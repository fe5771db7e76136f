"""Synthetic driving world: semantic grids, instances, rendering, segmentation.

The world is a low-resolution forward view. Rows run from a sky band at the
top down to the vehicle at the bottom row; columns are lateral position. A
road corridor climbs from the vehicle toward the horizon with configurable
curvature and lateral offset, flanked by lane markings, sidewalks, and
building/vegetation blocks. Cars and pedestrians are placed as compact
instance masks.

Every operation here is a pure function of its inputs (seeds included), and
all types are immutable after construction, so values can be shared freely
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, DegenerateInputError, RenderError
from .styles import N_CLASSES, StyleModel


class ClassId(IntEnum):
    """Fixed 8-class palette of the synthetic world."""

    ROAD = 0
    LANE_MARKING = 1
    CAR = 2
    PEDESTRIAN = 3
    BUILDING = 4
    VEGETATION = 5
    SKY = 6
    SIDEWALK = 7


THING_CLASSES = (ClassId.CAR, ClassId.PEDESTRIAN)
BACKGROUND_ID = -1

# 4-connectivity: diagonal contact does not merge instances.
_CONNECTIVITY = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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
        if h < 16 or w < 16:
            raise ConfigurationError(f"maps must be at least 16x16, got {h}x{w}")
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


@dataclass(frozen=True)
class InstanceRecord:
    """One placed thing: id, class, bounding box, and placement transform.

    bbox is (x0, y0, w, h) in cells; affine is (translate_x, translate_y,
    scale_x, scale_y), the transform that placed the source mask.
    """

    instance_id: int
    class_id: ClassId
    bbox: tuple[int, int, int, int]
    affine: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.class_id not in THING_CLASSES:
            raise ConfigurationError(f"{self.class_id!r} is not an instance class")
        x0, y0, w, h = self.bbox
        if w <= 0 or h <= 0 or x0 < 0 or y0 < 0:
            raise ConfigurationError(f"bad bbox {self.bbox}")


@dataclass(frozen=True, eq=False)
class InstanceMap:
    """Instance ids per cell plus one geometry record per id."""

    instance_grid: np.ndarray  # (height, width) int32, BACKGROUND_ID elsewhere
    records: tuple[InstanceRecord, ...]

    def __post_init__(self) -> None:
        grid = np.ascontiguousarray(np.asarray(self.instance_grid, dtype=np.int32))
        records = tuple(self.records)
        ids_in_records = [r.instance_id for r in records]
        if len(ids_in_records) != len(set(ids_in_records)):
            raise ConfigurationError("duplicate instance ids in records")
        # One pass over the grid finds every id's bounding box. Ids are
        # shifted to labels 1.. when their range is small (always, for maps
        # built here) and ranked through np.unique otherwise.
        lo, hi = (int(grid.min()), int(grid.max())) if grid.size else (0, -1)
        if hi - lo < grid.size:
            values = np.arange(lo, hi + 1)
            labels = grid.astype(np.int64) - (lo - 1)
        else:
            values, labels = np.unique(grid, return_inverse=True)
            labels = labels.reshape(grid.shape) + 1
        box_of = {
            int(v): box
            for v, box in zip(values, ndimage.find_objects(labels))
            if box is not None
        }
        if not set(box_of) - {BACKGROUND_ID} <= set(ids_in_records):
            raise ConfigurationError("grid references ids missing from records")
        for rec in records:
            box = box_of.get(rec.instance_id)
            if box is not None:
                (y_min, y_max), (x_min, x_max) = [(sl.start, sl.stop - 1) for sl in box]
                x0, y0, w, h = rec.bbox
                if x_min < x0 or x_max >= x0 + w or y_min < y0 or y_max >= y0 + h:
                    raise ConfigurationError(
                        f"bbox {rec.bbox} does not enclose instance {rec.instance_id}"
                    )
        object.__setattr__(self, "instance_grid", _frozen(grid))
        object.__setattr__(self, "records", records)

    @property
    def height(self) -> int:
        return self.instance_grid.shape[0]

    @property
    def width(self) -> int:
        return self.instance_grid.shape[1]

    def next_free_id(self) -> int:
        return max((r.instance_id for r in self.records), default=-1) + 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceMap):
            return NotImplemented
        return (
            np.array_equal(self.instance_grid, other.instance_grid)
            and self.records == other.records
        )


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
    turns right.
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


# ---------------------------------------------------------------------------
# Rendering and segmentation
# ---------------------------------------------------------------------------


def _texture_noise(
    height: int, width: int, style: StyleModel, seed: int
) -> np.ndarray:
    ss = np.random.SeedSequence([int(seed) & (2**63 - 1), style.texture_seed & (2**63 - 1), 0x7E])
    rng = np.random.default_rng(ss)
    return rng.uniform(-1.0, 1.0, size=(height, width, 3))


def render(
    semantic: SemanticMap,
    instances: InstanceMap,
    style: StyleModel,
    seed: int,
) -> Scenario:
    """Paint a layout in the given style.

    Each cell gets its class mean plus seeded texture noise bounded by the
    class spread, clamped to [0, 1]. Deterministic in (maps, style, seed).
    The instance map fixes the layout identity but does not alter appearance;
    thing cells are already present in the semantic grid.
    """
    del instances
    classes = semantic.classes
    for c in np.unique(classes):
        if not style.has_class(int(c)):
            raise RenderError(f"style {style.style} has no appearance for class {int(c)}")
    means = style.class_means[classes]  # (h, w, 3)
    amps = style.class_spreads[classes][..., None]
    noise = _texture_noise(semantic.height, semantic.width, style, seed)
    pixels = np.clip(means + noise * amps, 0.0, 1.0).astype(np.float32)
    return Scenario(pixels=pixels, style=style.style)


def _classify_cells(pixels: np.ndarray, style: StyleModel) -> np.ndarray:
    """Nearest class mean per cell, Chebyshev distance, ties to lowest id.

    Works on channel-first planes: a class's distance is the elementwise
    maximum of the three per-channel absolute differences, which is exactly
    the maximum over the channel axis.
    """
    planes = pixels.transpose(2, 0, 1).astype(np.float64, order="C")
    dists = np.full((N_CLASSES,) + planes.shape[1:], np.inf)
    for c in np.flatnonzero(~np.isnan(style.class_means).any(axis=1)):
        r, g, b = np.abs(planes - style.class_means[c][:, None, None])
        dists[c] = np.maximum(np.maximum(r, g), b)
    return dists.argmin(axis=0).astype(np.uint8)  # argmin picks lowest id on ties


def extract_instances(classes: np.ndarray) -> InstanceMap:
    """Connected components of thing classes, ids assigned in raster order.

    One labelling pass per thing class: ndimage numbers a class's components
    in raster order of their first cell, so component k gets the next free
    id plus k - 1, and find_objects gives every bounding box at once.
    """
    h, w = classes.shape
    grid = np.full((h, w), BACKGROUND_ID, dtype=np.int32)
    records = []
    for cls in THING_CLASSES:
        labels, _ = ndimage.label(classes == cls, structure=_CONNECTIVITY)
        first = len(records)
        inside = labels > 0
        grid[inside] = labels[inside] + (first - 1)
        for k, (rows, cols) in enumerate(ndimage.find_objects(labels)):
            x0, y0 = cols.start, rows.start
            records.append(
                InstanceRecord(
                    instance_id=first + k,
                    class_id=cls,
                    bbox=(x0, y0, cols.stop - x0, rows.stop - y0),
                    affine=(float(x0), float(y0), 1.0, 1.0),
                )
            )
    return InstanceMap(instance_grid=grid, records=tuple(records))


def segment(scenario: Scenario, style: StyleModel) -> tuple[SemanticMap, InstanceMap]:
    """Recover semantic and instance maps from a rendered scenario.

    Classification is nearest class appearance per cell; instances are the
    connected components of car and pedestrian cells. Exact for scenarios
    rendered under the same style because noise stays below half the
    separation floor. Callers segment each (scenario, style) pair once:
    policy.featurize is the usual entry, and its callers keep the result.
    """
    classes = _classify_cells(scenario.pixels, style)
    if not (classes == ClassId.ROAD).any():
        # Keep SemanticMap constructible for degenerate inputs by failing here.
        raise DegenerateInputError("segmented scenario contains no road cells")
    return SemanticMap(classes=classes), extract_instances(classes)


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

# Car templates as mask arrays; pedestrian templates below. Masks must stay a
# single 4-connected component after mild rescaling.
_CAR_TEMPLATES = [
    np.array([[1, 1, 1], [1, 1, 1]], dtype=bool),
    np.array([[0, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 1]], dtype=bool),
    np.array([[1, 1, 1, 1], [1, 1, 1, 1]], dtype=bool),
    np.array([[0, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 1, 1, 1, 1]], dtype=bool),
]
_PEDESTRIAN_TEMPLATES = [
    np.array([[1]], dtype=bool),
    np.array([[1], [1]], dtype=bool),
    np.array([[1, 1]], dtype=bool),
]


@dataclass(frozen=True)
class AgentProfile:
    """Per-agent world regime: how sharp its turns and avoidance margins are.

    Distinct regimes per agent are what make the agents' datasets genuine
    data islands rather than iid shards of one distribution.
    """

    style_id: int
    curvature_range: tuple[float, float] = (0.05, 0.15)
    avoid_gap: float = 0.12
    turn_right_bias: float = 0.5  # probability a turn curves right


@dataclass(frozen=True)
class WorldConfig:
    """Geometry and labeling constants of the synthetic world."""

    width: int = 64
    height: int = 32
    sky_rows: int = 4
    road_half_width: tuple[int, int] = (4, 8)
    sidewalk_width: int = 3
    torque_curvature_gain: float = 2.0  # k in torque = 0.5 + k*curv + j*offset
    torque_offset_gain: float = 1.0  # j
    curve_shift_cells: float = 80.0  # lateral road shift at the horizon per unit curvature
    offset_jitter: float = 0.05
    avoid_car_offset_cells: float = 2.0
    scenery_band_rows: int = 4
    scatter_cars: tuple[int, int] = (6, 10)  # rng.integers bounds, high exclusive
    scatter_peds: tuple[int, int] = (4, 7)

    def __post_init__(self) -> None:
        if self.width < 16 or self.height < 16:
            raise ConfigurationError("world must be at least 16x16 cells")
        if self.sky_rows < 1 or self.sky_rows > self.height // 4:
            raise ConfigurationError("sky_rows out of range")

    @property
    def vehicle_col(self) -> float:
        return (self.width - 1) / 2.0


def torque_from_geometry(
    curvature: float, lane_offset: float, config: WorldConfig
) -> float:
    """Ground-truth steering torque for a road geometry.

    torque = 0.5 + k * curvature + j * lane_offset, clamped to [0, 1].
    Positive curvature bends right; positive offset means the lane center
    sits right of the vehicle. Exactly 0.5 iff both terms vanish.
    """
    raw = (
        0.5
        + config.torque_curvature_gain * curvature
        + config.torque_offset_gain * lane_offset
    )
    return float(min(1.0, max(0.0, raw)))


class ScenarioGenerator:
    """Seeded generator of labeled driving samples for registered agents."""

    def __init__(
        self,
        config: WorldConfig,
        styles: Mapping[int, StyleModel],
        profiles: Optional[Mapping[int, AgentProfile]] = None,
    ):
        self.config = config
        self.styles = dict(styles)
        if profiles is None:
            profiles = {sid: AgentProfile(style_id=sid) for sid in self.styles}
        self.profiles = dict(profiles)
        for sid in self.profiles:
            if sid not in self.styles:
                raise ConfigurationError(f"profile for unregistered style {sid}")

    # -- geometry helpers --

    def _center_cols(self, curvature: float, offset: float) -> np.ndarray:
        """Road center column per ahead-distance row (index 0 = vehicle row)."""
        cfg = self.config
        ground_rows = cfg.height - cfg.sky_rows
        ahead = np.arange(ground_rows, dtype=np.float64)
        ahead_max = max(ground_rows - 1, 1)
        shift = curvature * cfg.curve_shift_cells * (ahead / ahead_max) ** 2
        return cfg.vehicle_col + offset * (cfg.width / 2.0) + shift

    def _paint_layout(
        self, rng: np.random.Generator, curvature: float, offset: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Base terrain: sky band, road corridor, markings, sidewalks, scenery.

        Returns (classes, center_cols). Row 0 is the horizon side; the
        vehicle sits at the bottom row.
        """
        cfg = self.config
        h, w = cfg.height, cfg.width
        classes = np.full((h, w), ClassId.SKY, dtype=np.uint8)
        half = int(rng.integers(cfg.road_half_width[0], cfg.road_half_width[1] + 1))
        centers = self._center_cols(curvature, offset)
        cols = np.arange(w, dtype=np.float64)
        # Scenery block types chosen per (row band, side).
        n_bands = (h - cfg.sky_rows) // cfg.scenery_band_rows + 1
        band_kind = rng.integers(0, 2, size=(n_bands, 2))  # 0 building, 1 vegetation
        for ahead in range(h - cfg.sky_rows):
            row = h - 1 - ahead
            center = centers[ahead]
            lateral = np.abs(cols - center)
            band = ahead // cfg.scenery_band_rows
            left_kind = ClassId.BUILDING if band_kind[band, 0] == 0 else ClassId.VEGETATION
            right_kind = ClassId.BUILDING if band_kind[band, 1] == 0 else ClassId.VEGETATION
            line = np.where(cols < center, int(left_kind), int(right_kind))
            line = np.where(lateral <= half + cfg.sidewalk_width, int(ClassId.SIDEWALK), line)
            line = np.where(lateral <= half, int(ClassId.ROAD), line)
            classes[row] = line
            if ahead % 2 == 0:  # dashed center marking
                mark = int(np.floor(center + 0.5))
                if 0 <= mark < w and classes[row, mark] == ClassId.ROAD:
                    classes[row, mark] = ClassId.LANE_MARKING
        return classes, centers

    def _place_mask(
        self,
        classes: np.ndarray,
        occupancy: np.ndarray,
        mask: np.ndarray,
        top: int,
        left: int,
        class_id: ClassId,
    ) -> Optional[np.ndarray]:
        """Write a mask if it fits and keeps a 1-cell gap to same-class cells."""
        h, w = classes.shape
        mh, mw = mask.shape
        if top < 0 or left < 0 or top + mh > h or left + mw > w:
            return None
        ys, xs = np.nonzero(mask)
        ys = ys + top
        xs = xs + left
        y_lo, y_hi = max(ys.min() - 1, 0), min(ys.max() + 2, h)
        x_lo, x_hi = max(xs.min() - 1, 0), min(xs.max() + 2, w)
        region = classes[y_lo:y_hi, x_lo:x_hi]
        if (region == class_id).any():  # Chebyshev gap to same-class instances
            return None
        if occupancy[ys, xs].any():
            return None
        return np.stack([ys, xs], axis=1)

    def _add_instance(
        self,
        classes: np.ndarray,
        grid: np.ndarray,
        occupancy: np.ndarray,
        records: list[InstanceRecord],
        cells: np.ndarray,
        class_id: ClassId,
    ) -> None:
        ys, xs = cells[:, 0], cells[:, 1]
        inst_id = len(records)
        classes[ys, xs] = class_id
        grid[ys, xs] = inst_id
        occupancy[ys, xs] = True
        x0, y0 = int(xs.min()), int(ys.min())
        records.append(
            InstanceRecord(
                instance_id=inst_id,
                class_id=class_id,
                bbox=(x0, y0, int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1),
                affine=(float(x0), float(y0), 1.0, 1.0),
            )
        )

    def _scatter_background_things(
        self,
        rng: np.random.Generator,
        classes: np.ndarray,
        grid: np.ndarray,
        occupancy: np.ndarray,
        records: list[InstanceRecord],
        centers: np.ndarray,
        n_cars: int,
        n_peds: int,
    ) -> None:
        """Parked cars and pedestrians on the sidewalk strips, off the road."""
        cfg = self.config
        h = cfg.height
        del centers
        for kind, count in ((ClassId.CAR, n_cars), (ClassId.PEDESTRIAN, n_peds)):
            templates = _CAR_TEMPLATES if kind == ClassId.CAR else _PEDESTRIAN_TEMPLATES
            placed = 0
            for _ in range(24):
                if placed >= count:
                    break
                mask = templates[int(rng.integers(len(templates)))]
                ahead = int(rng.integers(3, h - cfg.sky_rows - 4))
                row = h - 1 - ahead
                side = 1 if rng.random() < 0.5 else -1
                road_cols = np.flatnonzero(
                    np.isin(classes[row], (ClassId.ROAD, ClassId.LANE_MARKING))
                )
                if road_cols.size == 0:
                    continue
                gap = int(rng.integers(0, 2))  # sidewalk column next to the road
                if side > 0:
                    left = int(road_cols.max()) + 1 + gap
                else:
                    left = int(road_cols.min()) - 1 - gap - mask.shape[1] + 1
                top = row - mask.shape[0] + 1
                cells = self._place_mask(classes, occupancy, mask, top, left, kind)
                if cells is None:
                    continue
                road_or_lane = np.isin(
                    classes[cells[:, 0], cells[:, 1]], (ClassId.ROAD, ClassId.LANE_MARKING)
                )
                if road_or_lane.any():  # keep background things off the corridor
                    continue
                self._add_instance(classes, grid, occupancy, records, cells, kind)
                placed += 1

    def _place_corridor_car(
        self,
        rng: np.random.Generator,
        classes: np.ndarray,
        grid: np.ndarray,
        occupancy: np.ndarray,
        records: list[InstanceRecord],
        centers: np.ndarray,
        side: int,
    ) -> bool:
        """One car in the driving corridor, centroid offset to one side."""
        cfg = self.config
        for _ in range(10):
            mask = _CAR_TEMPLATES[int(rng.integers(len(_CAR_TEMPLATES)))]
            ahead = int(rng.integers(8, min(18, cfg.height - cfg.sky_rows - 2)))
            row = cfg.height - 1 - ahead
            centroid_col = centers[ahead] + side * cfg.avoid_car_offset_cells
            left = int(np.floor(centroid_col - (mask.shape[1] - 1) / 2.0 + 0.5))
            top = row - mask.shape[0] + 1
            cells = self._place_mask(classes, occupancy, mask, top, left, ClassId.CAR)
            if cells is None:
                continue
            on_road = np.isin(
                classes[cells[:, 0], cells[:, 1]], (ClassId.ROAD, ClassId.LANE_MARKING)
            )
            if not on_road.all():
                continue
            self._add_instance(classes, grid, occupancy, records, cells, ClassId.CAR)
            return True
        return False

    # -- public API --

    def generate_scenario(self, style: int, task: TaskType, seed: int) -> DrivingSample:
        """Generate one labeled sample, deterministic in (style, task, seed).

        The torque label is computed analytically from the road geometry via
        torque_from_geometry; avoid-cars scenes label the lateral correction
        needed to pass the corridor car on its open side.
        """
        if style not in self.styles:
            raise ConfigurationError(f"style {style} is not registered")
        profile = self.profiles[style]
        cfg = self.config
        ss = np.random.SeedSequence(
            [int(seed) & (2**63 - 1), style, list(TaskType).index(task), 0x5EED]
        )
        rng = np.random.default_rng(ss)

        curvature = 0.0
        offset = 0.0
        avoid_side = 0
        if task == TaskType.TURN:
            sign = 1.0 if rng.random() < profile.turn_right_bias else -1.0
            curvature = sign * float(rng.uniform(*profile.curvature_range))
            offset = float(rng.uniform(-cfg.offset_jitter, cfg.offset_jitter))
        elif task == TaskType.AVOID_CARS:
            avoid_side = 1 if rng.random() < 0.5 else -1

        classes, centers = self._paint_layout(rng, curvature, offset)
        grid = np.full(classes.shape, BACKGROUND_ID, dtype=np.int32)
        occupancy = np.zeros(classes.shape, dtype=bool)
        records: list[InstanceRecord] = []

        label_offset = offset
        if task == TaskType.AVOID_CARS:
            placed = self._place_corridor_car(
                rng, classes, grid, occupancy, records, centers, avoid_side
            )
            if placed:
                # Steer toward the open side of the corridor car.
                label_offset = -avoid_side * profile.avoid_gap
            else:
                label_offset = 0.0

        n_cars = int(rng.integers(*cfg.scatter_cars))
        n_peds = int(rng.integers(*cfg.scatter_peds))
        self._scatter_background_things(
            rng, classes, grid, occupancy, records, centers, n_cars, n_peds
        )

        semantic = SemanticMap(classes=classes)
        instances = InstanceMap(instance_grid=grid, records=tuple(records))
        render_seed = int(rng.integers(0, 2**63))
        scenario = render(semantic, instances, self.styles[style], render_seed)
        label = torque_from_geometry(curvature, label_offset, cfg)
        return DrivingSample(
            scenario=scenario,
            semantic=semantic,
            instances=instances,
            label=label,
            task=task,
            provenance=Provenance.HUMAN,
        )

    def generate_dataset(
        self, style: int, tasks: Sequence[TaskType], seeds: Sequence[int]
    ) -> list[DrivingSample]:
        if len(tasks) != len(seeds):
            raise ConfigurationError("tasks and seeds must align")
        return [self.generate_scenario(style, t, s) for t, s in zip(tasks, seeds)]


def relabel_sample(sample: DrivingSample, label: Optional[float]) -> DrivingSample:
    return replace(sample, label=label)
