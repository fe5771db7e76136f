"""Synthetic driving world: semantic grids, instances, rendering, segmentation.

The world is a low-resolution forward view. Rows run from a sky band at the
top down to the vehicle at the bottom row; columns are lateral position. A
road corridor climbs from the vehicle toward the horizon, bent by each
sample's curvature and shifted by its lateral offset, flanked by lane
markings, sidewalks, and building/vegetation blocks. Cars and pedestrians
are placed as compact instance masks. An InstanceMap holds their ids per
cell and their records as one read-only RECORD_DTYPE table, which
generation and extract_instances both read off the id grid with
_grid_records.

The world's geometry and labeling gains are module constants (WORLD_WIDTH,
WORLD_HEIGHT, SKY_ROWS, TORQUE_CURVATURE_GAIN, ...); what varies between
agents is only their style and their AgentProfile.

Every operation here is a pure function of its inputs (seeds included), and
all types are immutable after construction, so values can be shared freely
across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, RenderError
from .styles import N_CLASSES, StyleModel


class ClassId:
    """Fixed 8-class palette of the synthetic world, as plain int constants.

    Not an IntEnum: numpy takes a slow path for an int subclass, and these
    ids meet a class grid in every comparison and fill of the sample path.
    On a 32x64 uint8 grid, `grid == ClassId.CAR` took 5.6-7.5 us as an
    IntEnum member against 1.0-1.5 us for `grid == 2`, and np.full with one
    2.5-2.9 us against 1.1-1.2 us (2-vCPU x86 host, numpy 2).
    """

    ROAD = 0
    LANE_MARKING = 1
    CAR = 2
    PEDESTRIAN = 3
    BUILDING = 4
    VEGETATION = 5
    SKY = 6
    SIDEWALK = 7


THING_CLASSES = (ClassId.CAR, ClassId.PEDESTRIAN)
_IS_THING = np.isin(np.arange(256), THING_CLASSES)  # by uint8 class code
_BBOX_FLOOR = np.array([0, 0, 1, 1])  # smallest valid x0, y0, w, h
BACKGROUND_ID = -1
MIN_MAP_SIDE = 16  # cells per side of the smallest map perception accepts
# Scenarios classified per array pass in segment: measured fastest per
# scenario on 32x64 grids, and small enough to keep the temporaries flat.
_SEGMENT_CHUNK = 8


class TaskType(Enum):
    TURN = "turn"
    AVOID_CARS = "avoid-cars"
    STRAIGHT = "straight"


class Provenance(Enum):
    HUMAN = "human"
    CROWDSOURCED = "crowdsourced"
    AUGMENTED = "augmented"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SemanticMap:
    """Per-cell class labels. Requires >=16 cells per side and a road region."""

    classes: np.ndarray  # (height, width) uint8

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(np.asarray(self.classes, dtype=np.uint8))
        if grid.ndim != 2:
            raise ConfigurationError("semantic grid must be 2-D")
        h, w = grid.shape
        if h < MIN_MAP_SIDE or w < MIN_MAP_SIDE:
            raise ConfigurationError(
                f"maps must be at least {MIN_MAP_SIDE}x{MIN_MAP_SIDE}, got {h}x{w}"
            )
        if grid.max(initial=0) >= N_CLASSES:
            raise ConfigurationError("semantic grid holds an unknown class id")
        if not (grid == ClassId.ROAD).any():
            raise ConfigurationError("semantic map has no road region")
        object.__setattr__(self, "classes", _frozen(grid))

    @property
    def height(self) -> int:
        return self.classes.shape[0]

    @property
    def width(self) -> int:
        return self.classes.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SemanticMap):
            return NotImplemented
        return np.array_equal(self.classes, other.classes)


# One row per placed thing: its id, its class (one of THING_CLASSES), its
# bbox (x0, y0, w, h) in cells, and its affine (translate_x, translate_y,
# scale_x, scale_y), the transform that placed the source mask. Every field
# is native width, so arithmetic on bbox fields cannot wrap.
RECORD_DTYPE = np.dtype(
    [("id", np.int64), ("cls", np.uint8), ("bbox", np.int64, 4), ("affine", np.float64, 4)]
)


@dataclass(frozen=True, eq=False)
class InstanceMap:
    """Instance ids per cell plus a read-only RECORD_DTYPE table, one row per id.

    Validation checks every row's class and bbox, then finds the row of
    every instance cell and checks the cell against that row's bbox. When
    the ids are 0..n-1 in order, as generation, extract_instances, the
    codec and every insertion make them, a cell's value is its row. Any
    other id set (a crop keeps a subset, a decoded map may hold any ids) is
    looked up by a search over the sorted ids. The choice depends on the
    ids alone, and both lookups raise the same errors.
    """

    instance_grid: np.ndarray  # (height, width) int32, BACKGROUND_ID elsewhere
    records: np.ndarray  # (n,) RECORD_DTYPE

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(np.asarray(self.instance_grid, dtype=np.int32))
        records = np.ascontiguousarray(np.asarray(self.records, dtype=RECORD_DTYPE))
        if records.ndim != 1:
            raise ConfigurationError("instance records must be a 1-D table")
        ids, cls, bbox = records["id"], records["cls"], records["bbox"]
        if not (_IS_THING[cls].all() and (bbox >= _BBOX_FLOOR).all()):
            # The first bad row fails, on its class before its bbox.
            bad_class = ~_IS_THING[cls]
            k = (bad_class | (bbox < _BBOX_FLOOR).any(axis=1)).argmax()
            if bad_class[k]:
                raise ConfigurationError(f"{int(cls[k])} is not an instance class")
            raise ConfigurationError(f"bad bbox {tuple(bbox[k].tolist())}")
        flat = grid.ravel()
        if (ids == np.arange(ids.size)).all():
            cells = np.flatnonzero(flat != BACKGROUND_ID)
            values = flat[cells]
            # A negative id reads as a huge unsigned one.
            if not (values.view(np.uint32) < ids.size).all():
                raise ConfigurationError("grid references ids missing from records")
            owner = values
        else:
            by_id = np.argsort(ids, kind="stable")
            ordered = ids[by_id]
            if (ordered[1:] == ordered[:-1]).any():
                raise ConfigurationError("duplicate instance ids in records")
            # A record that carries BACKGROUND_ID owns the background cells too.
            if (ids == BACKGROUND_ID).any():
                cells = np.arange(flat.size)
            else:
                cells = np.flatnonzero(flat != BACKGROUND_ID)
            values = flat[cells]
            # The sorted ids end in a sentinel that no int32 cell holds.
            keys = np.append(ordered, np.iinfo(np.int64).max)
            rank = np.searchsorted(keys, values)
            if not (keys[rank] == values).all():
                raise ConfigurationError("grid references ids missing from records")
            owner = by_id[rank]
        ys, xs = np.divmod(cells, grid.shape[1])
        x0, y0, w, h = bbox[owner].T
        outside = (xs < x0) | (xs >= x0 + w) | (ys < y0) | (ys >= y0 + h)
        if outside.any():
            k = owner[outside].min()
            raise ConfigurationError(
                f"bbox {tuple(bbox[k].tolist())} does not enclose instance {ids[k]}"
            )
        object.__setattr__(self, "instance_grid", _frozen(grid))
        object.__setattr__(self, "records", _frozen(records))

    def next_free_id(self) -> int:
        return int(self.records["id"].max(initial=-1)) + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceMap):
            return NotImplemented
        return np.array_equal(self.instance_grid, other.instance_grid) and np.array_equal(
            self.records, other.records
        )


# A layout: one scene's semantic map and its instance map.
Layout = tuple[SemanticMap, InstanceMap]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Rendered appearance grid: 3 channels per cell, all values in [0, 1]."""

    pixels: np.ndarray  # (height, width, 3) float32
    style: int

    def __post_init__(self) -> None:
        px = np.ascontiguousarray(np.asarray(self.pixels, dtype=np.float32))
        if px.ndim != 3 or px.shape[2] != 3:
            raise ConfigurationError("scenario pixels must be (h, w, 3)")
        # Written so that NaN, which fails every comparison, fails the check.
        if not (px.min(initial=0.0) >= 0.0 and px.max(initial=0.0) <= 1.0):
            raise ConfigurationError("scenario channels must lie in [0, 1]")
        object.__setattr__(self, "pixels", _frozen(px))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self.style == other.style and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True)
class DrivingSample:
    """One observation: scenario, ground-truth maps, optional torque label.

    Torque semantics: 0.5 drives straight, below 0.5 turns left, above 0.5
    turns right. class_stats holds the sample's per-class pixel statistics,
    computed on first use and kept for the sample's life.
    """

    scenario: Scenario
    semantic: SemanticMap
    instances: InstanceMap
    label: Optional[float]
    task: TaskType
    provenance: Provenance

    def __post_init__(self) -> None:
        if self.label is not None and not (0.0 <= self.label <= 1.0):
            raise ConfigurationError(f"label {self.label} outside [0, 1]")

    @cached_property
    def class_stats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class pixel sums, squared-pixel sums and cell counts, read-only.

        (N_CLASSES, 3) float64, (N_CLASSES, 3) float64 and (N_CLASSES,)
        int64, each one bincount in row-major cell order; a pixel sum's bin
        is class * 3 + channel. The scenario's pixels and the semantic
        classes are read-only arrays, so the value cannot go stale; a
        dataclasses.replace copy is a new sample and computes its own. Every
        style fit reads them through styles.class_sums, so a sample that
        feeds several fits (its robot's style and the pooled style) makes
        its per-class pass once.
        """
        pixels = self.scenario.pixels.astype(np.float64).ravel()
        classes = self.semantic.classes.ravel()
        # Bin class * 3 + channel, matching the row-major (cell, channel) pixels.
        bins = (classes[:, None] * 3 + np.arange(3)).ravel()
        n_bins = 3 * N_CLASSES
        sums = np.bincount(bins, weights=pixels, minlength=n_bins).reshape(N_CLASSES, 3)
        sq_sums = np.bincount(bins, weights=pixels**2, minlength=n_bins).reshape(N_CLASSES, 3)
        counts = np.bincount(classes, minlength=N_CLASSES)
        return _frozen(sums), _frozen(sq_sums), _frozen(counts)


# ---------------------------------------------------------------------------
# Rendering and segmentation
# ---------------------------------------------------------------------------


def _texture_noise(
    height: int, width: int, style: StyleModel, seed: int
) -> np.ndarray:
    ss = np.random.SeedSequence([int(seed) & (2**63 - 1), style.texture_seed & (2**63 - 1), 0x7E])
    rng = np.random.default_rng(ss)
    return rng.uniform(-1.0, 1.0, size=(height, width, 3))


def render(semantic: SemanticMap, style: StyleModel, seed: int) -> Scenario:
    """Paint a semantic map in the given style.

    Each cell gets its class mean plus seeded texture noise bounded by the
    class spread, clamped to [0, 1]. Deterministic in (map, style, seed).
    Thing cells are already present in the semantic grid, so no instance
    map is needed. The noise buffer is scaled, shifted and clamped in
    place; a cell's product and sum are those of mean + noise * spread,
    since float addition commutes exactly.
    """
    classes = semantic.classes
    present = np.bincount(classes.ravel(), minlength=N_CLASSES) > 0
    missing = np.flatnonzero(present & np.isnan(style.class_means).any(axis=1))
    if missing.size:
        raise RenderError(f"style {style.style} has no appearance for class {int(missing[0])}")
    noise = _texture_noise(semantic.height, semantic.width, style, seed)
    noise *= style.class_spreads.take(classes)[..., None]
    noise += style.class_means.take(classes, axis=0)
    np.clip(noise, 0.0, 1.0, out=noise)
    return Scenario(pixels=noise.astype(np.float32), style=style.style)


def _classify_stack(pixels: np.ndarray, style: StyleModel) -> np.ndarray:
    """Nearest class mean per cell of an (n, h, w, 3) stack, Chebyshev distance.

    One pass per palette class over channel-first float64 planes: a class's
    distance is the elementwise maximum of the three per-channel absolute
    differences. A running minimum is replaced only where a class is
    strictly nearer, in ascending class order, so ties go to the lowest id
    as argmin's would; classes whose mean is NaN are skipped, and a cell no
    class is nearer to than infinity stays class 0.
    """
    planes = pixels.transpose(3, 0, 1, 2).astype(np.float64, order="C")  # (3, n, h, w)
    best = np.full(planes.shape[1:], np.inf)
    classes = np.zeros(planes.shape[1:], dtype=np.uint8)
    dist = np.empty_like(best)
    channel = np.empty_like(best)
    nearer = np.empty(best.shape, dtype=bool)
    for c in np.flatnonzero(~np.isnan(style.class_means).any(axis=1)):
        r, g, b = style.class_means[c]
        np.abs(np.subtract(planes[0], r, out=dist), out=dist)
        np.abs(np.subtract(planes[1], g, out=channel), out=channel)
        np.maximum(dist, channel, out=dist)
        np.abs(np.subtract(planes[2], b, out=channel), out=channel)
        np.maximum(dist, channel, out=dist)
        np.less(dist, best, out=nearer)
        np.minimum(best, dist, out=best)
        np.copyto(classes, np.uint8(c), where=nearer)
    return classes


def _label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-D bool grid, numbered 1.. in raster order.

    A component's number follows the raster order of its first cell, and
    cells outside the mask are 0. The grid is cut into horizontal runs of
    true cells, numbered in raster order of their first cell. Runs in
    adjacent rows that share a column are joined by union-find over run
    numbers: each round hooks the larger root of every link onto the
    smaller and then jumps pointers until every run points at its root. A
    root is therefore its component's smallest run, which holds the
    component's first cell, so ranking the roots gives the numbering.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    # A false column on each side keeps every run inside its row, so the
    # flat padded grid can be scanned as one line. Position i below stands
    # for the padded cell i + 1; runs start and stop at sign changes.
    stride = w + 2
    padded = np.zeros((h, stride), dtype=bool)
    padded[:, 1:-1] = mask
    flat = padded.ravel()
    edges = (flat[1:] != flat[:-1]).nonzero()[0]
    starts, stops = edges[::2], edges[1::2]
    # A link is a cell set together with the one below it; the first link
    # of each horizontal stretch stands for the stretch.
    links = flat[:-stride] & flat[stride:]
    first = (links[1:] > links[:-1]).nonzero()[0]
    upper = starts.searchsorted(first, "right")  # run numbers, 1..
    lower = starts.searchsorted(first + stride, "right")
    parent = np.arange(starts.size + 1)
    while upper.size:
        a, b = parent[upper], parent[lower]
        if (a == b).all():
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
    is_root = parent == np.arange(parent.size)
    is_root[0] = False  # run 0 stands for the background
    rank = is_root.cumsum()
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = rank[parent[1:]].repeat(stops - starts)
    return labels, int(rank[-1])


def _label_boxes(labels: np.ndarray, n: int) -> np.ndarray:
    """Bounding box of each label 1..n of a _label_components grid.

    Row k - 1 holds label k's (row start, row stop, column start, column
    stop), stops exclusive, as slices would take them.
    """
    flat = labels.ravel()
    cells = np.flatnonzero(flat)
    cells = cells[np.argsort(flat[cells], kind="stable")]  # row-major within a label
    counts = np.bincount(flat[cells], minlength=n + 1)[1:]
    starts = np.cumsum(counts) - counts
    ys, xs = np.divmod(cells, labels.shape[1])
    boxes = np.empty((n, 4), dtype=np.int64)
    boxes[:, 0] = ys[starts]
    boxes[:, 1] = ys[starts + counts - 1] + 1
    boxes[:, 2] = np.minimum.reduceat(xs, starts)
    boxes[:, 3] = np.maximum.reduceat(xs, starts) + 1
    return boxes


def _grid_records(classes: np.ndarray, grid: np.ndarray, n: int) -> np.ndarray:
    """The records of a grid whose ids 0..n-1 each hold a cell, in id order.

    Each row takes its class from its cells and its bbox from their extent,
    and its affine places it at the bbox origin at unit scale; one
    _label_boxes pass over the ids, shifted to 1..n, gives every bbox.
    Generation and extract_instances share this one record rule: both
    number their things 0..n-1 on the grid and read the table off it here.
    """
    records = np.zeros(n, dtype=RECORD_DTYPE)
    records["id"] = np.arange(n)
    on = grid != BACKGROUND_ID
    records["cls"][grid[on]] = classes[on]
    y0, y1, x0, x1 = _label_boxes(grid + 1, n).T
    bbox, affine = records["bbox"], records["affine"]
    bbox[:, 0] = affine[:, 0] = x0
    bbox[:, 1] = affine[:, 1] = y0
    bbox[:, 2] = x1 - x0
    bbox[:, 3] = y1 - y0
    affine[:, 2:] = 1.0
    return records


def extract_instances(classes: np.ndarray) -> InstanceMap:
    """Connected components of thing classes, ids assigned in raster order.

    One _label_components call per thing class numbers the class's
    components in raster order of their first cell, so component k gets
    the next free id plus k - 1; _grid_records then reads every record off
    the grid at once. Only callers that need a layout build one: segment
    returns the semantic map alone.
    """
    grid = np.full(classes.shape, BACKGROUND_ID, dtype=np.int32)
    n = 0
    for cls in THING_CLASSES:
        labels, count = _label_components(classes == cls)
        inside = labels > 0
        grid[inside] = labels[inside] + (n - 1)
        n += count
    return InstanceMap(instance_grid=grid, records=_grid_records(classes, grid, n))


def _shape_chunks(shapes: Iterable[tuple[int, ...]], size: int) -> Iterator[list[int]]:
    """The positions 0..n-1 of n shapes, grouped by shape, in chunks of at most size.

    Shapes come in order of first appearance, and positions ascend within
    a chunk. Every batched array pass of perception and of the augmentation
    fits stacks one chunk at a time.
    """
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    for positions in by_shape.values():
        for lo in range(0, len(positions), size):
            yield positions[lo : lo + size]


def segment(scenarios: Sequence[Scenario], style: StyleModel) -> list[SemanticMap]:
    """Recover the semantic map of every rendered scenario, in input order.

    Classification is nearest class appearance per cell. Exact for
    scenarios rendered under the same style because noise stays below half
    the separation floor. Scenarios are grouped by shape and classified
    _SEGMENT_CHUNK at a time, one array pass per palette class and chunk.
    A scenario whose cells hold no road, or whose map is invalid, fails the
    whole call with its own error; when several fail, the first in input
    order raises. A caller that needs the instance map as well, as a
    robot's upload does, runs extract_instances on the classes.
    """
    classified: list = [None] * len(scenarios)  # (class grid, has a road cell)
    for chunk in _shape_chunks((s.pixels.shape for s in scenarios), _SEGMENT_CHUNK):
        classes = _classify_stack(np.stack([scenarios[i].pixels for i in chunk]), style)
        road = (classes == ClassId.ROAD).any(axis=(1, 2)).tolist()
        for i, grid, hit in zip(chunk, classes, road):
            classified[i] = (grid, hit)
    maps = []
    for grid, hit in classified:
        if not hit:
            # Keep SemanticMap constructible for degenerate inputs by failing here.
            raise DegenerateInputError("segmented scenario contains no road cells")
        maps.append(SemanticMap(classes=grid))
    return maps


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

class _Template(NamedTuple):
    """A thing mask as runs of set cells, computed once.

    spans lists each run of set cells as (row, first column, column past
    the last), in row-major order; bounds is (row min, row max, column min,
    column max) over the set cells.
    """

    shape: tuple[int, int]
    spans: tuple[tuple[int, int, int], ...]
    bounds: tuple[int, int, int, int]


def _template(rows: list[list[int]]) -> _Template:
    spans = []
    for y, row in enumerate(rows):
        x = 0
        for value, run in itertools.groupby(row):
            n = len(list(run))
            if value:
                spans.append((y, x, x + n))
            x += n
    ys = [y for y, _, _ in spans]
    bounds = (min(ys), max(ys), min(a for _, a, _ in spans), max(b for _, _, b in spans) - 1)
    return _Template(shape=(len(rows), len(rows[0])), spans=tuple(spans), bounds=bounds)


# Car templates; pedestrian templates below. Masks must stay a single
# 4-connected component after mild rescaling.
_CAR_TEMPLATES = [
    _template([[1, 1, 1], [1, 1, 1]]),
    _template([[0, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 1]]),
    _template([[1, 1, 1, 1], [1, 1, 1, 1]]),
    _template([[0, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]),
]
_PEDESTRIAN_TEMPLATES = [
    _template([[1]]),
    _template([[1], [1]]),
    _template([[1, 1]]),
]


@dataclass(frozen=True)
class AgentProfile:
    """Per-agent world regime: how sharp its turns and avoidance margins are.

    Distinct regimes per agent are what make the agents' datasets genuine
    data islands rather than iid shards of one distribution.
    """

    curvature_range: tuple[float, float]
    avoid_gap: float
    turn_right_bias: float  # probability a turn curves right


# Geometry and labeling constants of the synthetic world.
WORLD_WIDTH = 64
WORLD_HEIGHT = 32
SKY_ROWS = 4
ROAD_HALF_WIDTH = (4, 8)  # inclusive bounds of the road's half width in cells
SIDEWALK_WIDTH = 3
TORQUE_CURVATURE_GAIN = 2.0  # k in torque = 0.5 + k*curv + j*offset
TORQUE_OFFSET_GAIN = 1.0  # j
CURVE_SHIFT_CELLS = 80.0  # lateral road shift at the horizon per unit curvature
OFFSET_JITTER = 0.05
AVOID_CAR_OFFSET_CELLS = 2.0
SCENERY_BAND_ROWS = 4
SCATTER_CARS = (6, 10)  # rng.integers bounds, high exclusive
SCATTER_PEDS = (4, 7)
VEHICLE_COL = (WORLD_WIDTH - 1) / 2.0


def torque_from_geometry(curvature: float, lane_offset: float) -> float:
    """Ground-truth steering torque for a road geometry.

    torque = 0.5 + k * curvature + j * lane_offset, clamped to [0, 1].
    Positive curvature bends right; positive offset means the lane center
    sits right of the vehicle. Exactly 0.5 iff both terms vanish.
    """
    raw = 0.5 + TORQUE_CURVATURE_GAIN * curvature + TORQUE_OFFSET_GAIN * lane_offset
    return float(min(1.0, max(0.0, raw)))


def _center_cols(curvature: float, offset: float) -> np.ndarray:
    """Road center column per ahead-distance row (index 0 = vehicle row)."""
    ground_rows = WORLD_HEIGHT - SKY_ROWS
    ahead = np.arange(ground_rows, dtype=np.float64)
    ahead_max = max(ground_rows - 1, 1)
    shift = curvature * CURVE_SHIFT_CELLS * (ahead / ahead_max) ** 2
    return VEHICLE_COL + offset * (WORLD_WIDTH / 2.0) + shift


def _paint_layout(
    rng: np.random.Generator, curvature: float, offset: float
) -> tuple[np.ndarray, np.ndarray]:
    """Base terrain: sky band, road corridor, markings, sidewalks, scenery.

    Returns (classes, center_cols). Row 0 is the horizon side; the
    vehicle sits at the bottom row. All ground rows are painted in one
    pass over (ahead distance, column).
    """
    h, w = WORLD_HEIGHT, WORLD_WIDTH
    half = int(rng.integers(ROAD_HALF_WIDTH[0], ROAD_HALF_WIDTH[1] + 1))
    centers = _center_cols(curvature, offset)
    ahead = np.arange(h - SKY_ROWS)
    # Scenery block types chosen per (row band, side).
    n_bands = (h - SKY_ROWS) // SCENERY_BAND_ROWS + 1
    band_kind = rng.integers(0, 2, size=(n_bands, 2))  # 0 building, 1 vegetation
    kinds = np.where(band_kind == 0, ClassId.BUILDING, ClassId.VEGETATION)
    kinds = kinds[ahead // SCENERY_BAND_ROWS]  # (ahead, side)
    cols = np.arange(w, dtype=np.float64)
    center = centers[:, None]
    lateral = np.abs(cols - center)
    ground = np.where(cols < center, kinds[:, :1], kinds[:, 1:])
    ground = np.where(lateral <= half + SIDEWALK_WIDTH, ClassId.SIDEWALK, ground)
    ground = np.where(lateral <= half, ClassId.ROAD, ground)
    # Dashed center marking on every other row ahead, where it hits road.
    dashed = ahead[::2]
    marks = np.floor(centers[dashed] + 0.5)
    inside = (marks >= 0) & (marks < w)
    dashed, marks = dashed[inside], marks[inside].astype(np.intp)
    on_road = ground[dashed, marks] == ClassId.ROAD
    ground[dashed[on_road], marks[on_road]] = ClassId.LANE_MARKING
    classes = np.full((h, w), ClassId.SKY, dtype=np.uint8)
    classes[SKY_ROWS:] = ground[::-1]  # ahead 0 is the bottom row
    return classes, centers


def _fits(
    cells: bytearray,
    allowed: bytearray,
    template: _Template,
    top: int,
    left: int,
    class_id: int,
) -> bool:
    """Whether a template placed at (top, left) fits the byte rows of a world grid.

    cells holds the class grid and allowed a 0/1 mask, both row-major. A
    template fits if it lies inside the grid, keeps a 1-cell (Chebyshev)
    gap to cells of its own class and covers only allowed cells.
    """
    h, w = WORLD_HEIGHT, WORLD_WIDTH
    mh, mw = template.shape
    if top < 0 or left < 0 or top + mh > h or left + mw > w:
        return False
    y_min, y_max, x_min, x_max = template.bounds
    x0, x1 = max(left + x_min - 1, 0), min(left + x_max + 2, w)
    for y in range(max(top + y_min - 1, 0), min(top + y_max + 2, h)):
        if cells.find(class_id, y * w + x0, y * w + x1) >= 0:
            return False
    for dy, a, b in template.spans:
        at = (top + dy) * w + left
        if allowed.find(0, at + a, at + b) >= 0:
            return False
    return True


def _add_instance(
    cells: bytearray,
    grid: np.ndarray,
    inst_id: int,
    template: _Template,
    top: int,
    left: int,
    class_id: int,
) -> None:
    """Paint a fitting template into cells and grid as instance inst_id.

    No record is kept: generation reads the table off the painted grid with
    _grid_records, the one record rule it shares with extract_instances. A
    later thing covers only cells no instance holds, so every id keeps its
    cells, and its record is its template's class and extent.
    """
    w = WORLD_WIDTH
    for dy, a, b in template.spans:
        at = (top + dy) * w + left
        cells[at + a : at + b] = bytes((class_id,)) * (b - a)
        grid[top + dy, left + a : left + b] = inst_id


def _scatter_background_things(
    rng: np.random.Generator,
    cells: bytearray,
    grid: np.ndarray,
    n: int,
    n_cars: int,
    n_peds: int,
) -> int:
    """Parked cars and pedestrians on the sidewalk strips, off the road.

    The grid holds ids 0..n-1; each thing placed takes the next id, and the
    new count is returned.

    No background thing lands on a road or lane cell, so the corridor,
    and with it each row's road span, is read once before the scatter;
    a thing may cover only cells off the corridor that no instance holds.
    Every draw of an attempt comes before its fit tests, so the tests may
    be merged and reordered without moving the random stream. The one test
    that precedes a draw, the road-row test before the gap draw, stays.
    """
    h, w = WORLD_HEIGHT, WORLD_WIDTH
    corridor = np.frombuffer(cells, dtype=np.uint8).reshape(h, w) <= ClassId.LANE_MARKING
    free = bytearray(~corridor & (grid == BACKGROUND_ID))
    has_road = corridor.any(axis=1).tolist()
    first_road = corridor.argmax(axis=1).tolist()
    last_road = (w - 1 - corridor[:, ::-1].argmax(axis=1)).tolist()
    for kind, count in ((ClassId.CAR, n_cars), (ClassId.PEDESTRIAN, n_peds)):
        templates = _CAR_TEMPLATES if kind == ClassId.CAR else _PEDESTRIAN_TEMPLATES
        placed = 0
        for _ in range(24):
            if placed >= count:
                break
            template = templates[int(rng.integers(len(templates)))]
            ahead = int(rng.integers(3, h - SKY_ROWS - 4))
            row = h - 1 - ahead
            side = 1 if rng.random() < 0.5 else -1
            if not has_road[row]:
                continue
            gap = int(rng.integers(0, 2))  # sidewalk column next to the road
            mh, mw = template.shape
            if side > 0:
                left = last_road[row] + 1 + gap
            else:
                left = first_road[row] - 1 - gap - mw + 1
            top = row - mh + 1
            if not _fits(cells, free, template, top, left, kind):
                continue
            _add_instance(cells, grid, n, template, top, left, kind)
            for dy, a, b in template.spans:
                at = (top + dy) * w + left
                free[at + a : at + b] = bytes(b - a)
            n += 1
            placed += 1
    return n


def _place_corridor_car(
    rng: np.random.Generator,
    cells: bytearray,
    grid: np.ndarray,
    centers: np.ndarray,
    side: int,
) -> bool:
    """One car in the driving corridor, centroid offset to one side.

    It is the first thing placed, id 0, so it may cover any road or lane cell.
    All draws of an attempt come before its fit test.
    """
    road = bytearray(np.frombuffer(cells, dtype=np.uint8) <= ClassId.LANE_MARKING)
    for _ in range(10):
        template = _CAR_TEMPLATES[int(rng.integers(len(_CAR_TEMPLATES)))]
        mh, mw = template.shape
        ahead = int(rng.integers(8, min(18, WORLD_HEIGHT - SKY_ROWS - 2)))
        row = WORLD_HEIGHT - 1 - ahead
        centroid_col = centers[ahead] + side * AVOID_CAR_OFFSET_CELLS
        left = int(np.floor(centroid_col - (mw - 1) / 2.0 + 0.5))
        top = row - mh + 1
        if not _fits(cells, road, template, top, left, ClassId.CAR):
            continue
        _add_instance(cells, grid, 0, template, top, left, ClassId.CAR)
        return True
    return False


def generate_scenario(
    style: StyleModel, profile: AgentProfile, task: TaskType, seed: int
) -> DrivingSample:
    """Generate one labeled sample, deterministic in (style, profile, task, seed).

    The torque label is computed analytically from the road geometry via
    torque_from_geometry; avoid-cars scenes label the lateral correction
    needed to pass the corridor car on its open side.
    """
    ss = np.random.SeedSequence(
        [int(seed) & (2**63 - 1), style.style, list(TaskType).index(task), 0x5EED]
    )
    rng = np.random.default_rng(ss)

    curvature = 0.0
    offset = 0.0
    avoid_side = 0
    if task == TaskType.TURN:
        sign = 1.0 if rng.random() < profile.turn_right_bias else -1.0
        curvature = sign * float(rng.uniform(*profile.curvature_range))
        offset = float(rng.uniform(-OFFSET_JITTER, OFFSET_JITTER))
    elif task == TaskType.AVOID_CARS:
        avoid_side = 1 if rng.random() < 0.5 else -1

    classes, centers = _paint_layout(rng, curvature, offset)
    cells = bytearray(classes)  # the class grid's byte rows, for placement
    grid = np.full(classes.shape, BACKGROUND_ID, dtype=np.int32)

    n = 0  # things placed so far, ids 0..n-1
    label_offset = offset
    if task == TaskType.AVOID_CARS:
        # Steer toward the open side of the corridor car; straight if none fits.
        n = int(_place_corridor_car(rng, cells, grid, centers, avoid_side))
        label_offset = -avoid_side * profile.avoid_gap if n else 0.0

    n_cars = int(rng.integers(*SCATTER_CARS))
    n_peds = int(rng.integers(*SCATTER_PEDS))
    n = _scatter_background_things(rng, cells, grid, n, n_cars, n_peds)

    semantic = SemanticMap(classes=np.frombuffer(cells, dtype=np.uint8).reshape(classes.shape))
    instances = InstanceMap(instance_grid=grid, records=_grid_records(semantic.classes, grid, n))
    render_seed = int(rng.integers(0, 2**63))
    scenario = render(semantic, style, render_seed)
    label = torque_from_geometry(curvature, label_offset)
    return DrivingSample(
        scenario=scenario,
        semantic=semantic,
        instances=instances,
        label=label,
        task=task,
        provenance=Provenance.HUMAN,
    )


def generate_dataset(
    style: StyleModel, profile: AgentProfile, tasks: Sequence[TaskType], seeds: Sequence[int]
) -> list[DrivingSample]:
    """One generate_scenario sample per (task, seed) pair, in order."""
    if len(tasks) != len(seeds):
        raise ConfigurationError("tasks and seeds must align")
    return [generate_scenario(style, profile, t, s) for t, s in zip(tasks, seeds)]
