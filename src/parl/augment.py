"""Semantic-dimension data augmentation with plausibility filtering.

Pipeline: fit a placement distribution (where) and a shape template library
(what) from an agent's real layouts, insert new instances into copies of a
layout, then filter candidates through a multi-scale plausibility scorer
calibrated on real layouts against internally generated corruptions. Only
candidates scoring at or above the threshold survive.

Everything here is statistics over discrete grids: placement is a smoothed
histogram over (context, position, scale) bins, shapes are masks harvested
from real instances, and the scorer aggregates class-adjacency, placement,
size, and shape-regularity evidence at three pooling scales.

The scorer works on batches of layouts, not one instance at a time: layouts
of one grid shape are stacked, at most _LAYOUT_CHUNK at a time, and every
step is an array pass over all of the batch's instances at once. One pass
lists each instance's cells, and one connected-component pass
(world._label_components) over a grid of cells and same-instance links tells
which instances are connected and which touch another of their class
(_layout_instances). At each pooling scale, one sort of (instance, pooled
cell) keys any-pools every instance, and the context, size and fill bins,
component counts and rings of outside neighbour classes are read from that
list (_scale_keys). Scoring, diagnostics_json and scorer fitting all read
those arrays, and the evidence tables they are looked up in are normalized
once, when the scale stats are built.

Scores are pinned bit for bit, and a float sum depends on its order. So
each ring direction is summed per instance exactly as ndarray.sum() sums it
alone (_segment_sums), the four direction sums are added in ring order, and
the weighted component sum stays one dot product per instance. A score never
depends on the other layouts of its batch.

Fitting works on the same shape chunks (_layout_chunks). fit_where lists
each chunk's instances once and reads every instance's context bin from
_depth_at on the stacked class grids at its mean cell; fit_what lists them
once too and puts the harvested templates back in input layout order, record
order within one. fit_scorer keys its fit split once for both the evidence
tables and the fit split's raw scores, then scores the holdout and the
corruptions in one batch. Every count is a whole number added exactly (the
adjacency tables are one bincount over pair codes), and the calibration's
medians come from _median, which returns np.median's value without the
numpy.ma import np.median makes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import astuple, dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, FittingError
from .styles import N_CLASSES
from .world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    RECORD_DTYPE,
    SemanticMap,
    THING_CLASSES,
    _frozen,
    _label_components,
    _shape_chunks,
)

Layout = tuple[SemanticMap, InstanceMap]

N_CTX_BINS = 4
POS_BINS = 8  # position histogram is POS_BINS x POS_BINS
N_SCALE_BINS = 3
POOL_FACTORS = (1, 2, 4)
SCORE_CAP = 1.0 - 1e-6
# Additive smoothing of the placement histograms (WherePredictor.probs).
_WHERE_ALPHA = 0.5
# Corruptions make_corruptions makes of each kind.
_CORRUPTIONS_PER_KIND = 4


# Scale bins by the larger bbox dimension: <= 2, <= 5, larger.
_SCALE_BIN_EDGES = (2, 5)


def scale_bin_of(width: int, height: int) -> int:
    """Scale bin by the larger bbox dimension: <=2, <=5, larger."""
    return bisect_left(_SCALE_BIN_EDGES, max(width, height))


def _depth_at(
    classes: np.ndarray, layout: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Signed distance to the road span at the given cells of stacked grids.

    classes is (layouts, h, w). Positive depths count cells inside the span
    (1 at the edge), negative depths count cells outside it. Rows without
    road are deeply off-road.
    """
    w = classes.shape[2]
    road_like = (classes == ClassId.ROAD) | (classes == ClassId.LANE_MARKING)
    lo = road_like.argmax(axis=2)[layout, rows]
    hi = w - 1 - road_like[:, :, ::-1].argmax(axis=2)[layout, rows]
    depth = np.where(
        (cols >= lo) & (cols <= hi),
        np.minimum(cols - lo, hi - cols) + 1,
        -np.maximum(lo - cols, cols - hi),
    )
    return np.where(road_like.any(axis=2)[layout, rows], depth, -w).astype(np.int32)


def _depth_map(classes: np.ndarray) -> np.ndarray:
    """_depth_at for every cell of one grid."""
    h, w = classes.shape
    return _depth_at(classes[None], 0, np.arange(h)[:, None], np.arange(w))


# Context bins by depth: 0 deep road (>= 3), 1 road edge (1..2), 2 roadside
# strip (-3..-1), 3 far off (<= -4). _depth_map never yields depth 0.
_CTX_DEPTH_EDGES = (-3, 1, 3)


def _ctx_bin_from_depth(depth: np.ndarray) -> np.ndarray:
    return (N_CTX_BINS - 1 - np.digitize(depth, _CTX_DEPTH_EDGES)).astype(np.int8)


def _pos_bins(rows: np.ndarray, cols: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    py = np.minimum(rows * POS_BINS // h, POS_BINS - 1)
    px = np.minimum(cols * POS_BINS // w, POS_BINS - 1)
    return py, px


class _Instances(NamedTuple):
    """The records of a batch of same-shape layouts that own cells, as columns, and where those cells lie.

    Arrays are per instance, layout by layout and in record order within
    one; the cells are grouped by instance and row-major within one, the
    order np.nonzero on each instance's mask lists them. Cell coordinates
    are within their own layout.
    """

    ids: np.ndarray  # (n,) record ids
    class_ids: np.ndarray  # (n,) int64
    bbox: np.ndarray  # (n, 4) each record's own (x0, y0, w, h)
    layout: np.ndarray  # (n,) the batch position of each instance's layout
    ys: np.ndarray  # cell rows and columns, grouped
    xs: np.ndarray
    owner: np.ndarray  # the instance each cell belongs to
    starts: np.ndarray  # (n,) offset of each instance's first cell
    counts: np.ndarray  # (n,) cells per instance
    box: np.ndarray  # (n, 4) inclusive y_min, y_max, x_min, x_max
    connected: np.ndarray  # (n,) bool: the cells form one 4-connected component
    # (n,) bool: a 4-neighbour cell holds another instance of the same class.
    # Generated worlds and the insertion sampler both keep a one-cell gap
    # between same-class instances, so contact only comes from corruption.
    contact: np.ndarray


# A cell's record is found by the rank of its (layout, id) key among the
# records' keys, so no table is ever sized by an id. Record ids outside the
# int32 range of the grid own no cell; clipping them just past that range
# keeps every key inside its layout's span.
_ID_LO, _ID_HI = -(2**31) - 1, 2**31
_KEY_SPAN = 2**33


def _layout_instances(maps: Sequence[InstanceMap]) -> _Instances:
    """Every record's cells, connectivity and contact, from whole-batch array passes.

    The maps must share one grid shape. Connectivity takes one
    _label_components pass over the stacked (2h, 2w-1) link grids: each
    cell sits at an even position, the link between two 4-neighbours is set
    only when both hold the same instance, and each layout's last row stays
    blank. Components then never join different instances or layouts, so an
    instance is connected exactly when its cells carry one label.
    """
    grids = np.stack([m.instance_grid for m in maps])
    n_maps, h, w = grids.shape
    # The record columns, concatenated one by one: np.concatenate copies
    # whole structured rows field by field, several times slower.
    tables = [m.records for m in maps]
    ids = np.concatenate([t["id"] for t in tables])
    rec_layout = np.repeat(np.arange(n_maps), [t.size for t in tables])
    rec_keys = rec_layout * _KEY_SPAN + np.clip(ids, _ID_LO, _ID_HI) - _ID_LO
    flat = grids.ravel()
    cells = np.flatnonzero(flat != BACKGROUND_ID)
    cell_keys = cells // (h * w) * _KEY_SPAN + flat[cells] - _ID_LO
    by_key = np.argsort(rec_keys)
    rec_of_cell = by_key[np.searchsorted(rec_keys[by_key], cell_keys)]

    # Contact: 4-neighbours of one layout holding different records of one
    # class. Background cells carry record and class -1.
    class_of = np.concatenate([t["cls"] for t in tables]).astype(np.int64)
    rec_grid = np.full(flat.size, -1, dtype=np.int64)
    rec_grid[cells] = rec_of_cell
    rec_grid = rec_grid.reshape(grids.shape)
    cls_grid = np.full(flat.size, -1, dtype=np.int64)
    cls_grid[cells] = class_of[rec_of_cell]
    cls_grid = cls_grid.reshape(grids.shape)
    touched = np.zeros(ids.size, dtype=bool)
    for a, b, ca, cb in (
        (rec_grid[:, :, :-1], rec_grid[:, :, 1:], cls_grid[:, :, :-1], cls_grid[:, :, 1:]),
        (rec_grid[:, :-1], rec_grid[:, 1:], cls_grid[:, :-1], cls_grid[:, 1:]),
    ):
        hit = (a != b) & (ca == cb) & (ca >= 0)
        touched[a[hit]] = True
        touched[b[hit]] = True

    grouped = np.argsort(rec_of_cell, kind="stable")
    cells, rec_of_cell = cells[grouped], rec_of_cell[grouped]
    per_record = np.bincount(rec_of_cell, minlength=ids.size)
    owns = per_record > 0
    rank_of_cell = (np.cumsum(owns) - 1)[rec_of_cell]
    counts = per_record[owns]
    starts = np.cumsum(counts) - counts

    occupied = grids != BACKGROUND_ID
    links = np.zeros((n_maps, 2 * h, 2 * w - 1), dtype=bool)
    links[:, ::2, ::2] = occupied
    links[:, ::2, 1::2] = (grids[:, :, :-1] == grids[:, :, 1:]) & occupied[:, :, 1:]
    links[:, 1:-1:2, ::2] = (grids[:, :-1] == grids[:, 1:]) & occupied[:, 1:]
    labels, n_labels = _label_components(links.reshape(n_maps * 2 * h, 2 * w - 1))
    owner = np.zeros(n_labels + 1, dtype=np.int64)
    owner[labels.reshape(links.shape)[:, ::2, ::2].ravel()[cells]] = rank_of_cell
    n_components = np.bincount(owner[1:], minlength=counts.size)

    layout, rest = np.divmod(cells, h * w)
    ys, xs = np.divmod(rest, w)
    box = np.stack(
        [
            ys[starts],
            ys[starts + counts - 1],
            np.minimum.reduceat(xs, starts),
            np.maximum.reduceat(xs, starts),
        ],
        axis=1,
    )
    return _Instances(
        ids=ids[owns],
        class_ids=class_of[owns],
        bbox=np.concatenate([t["bbox"] for t in tables])[owns],
        layout=layout[starts],
        ys=ys,
        xs=xs,
        owner=rank_of_cell,
        starts=starts,
        counts=counts,
        box=box,
        connected=n_components == 1,
        contact=touched[owns],
    )


# Layouts scored or fitted in one set of array passes, at most. Transient
# memory grows by about 0.1 MB per 32x64 layout, while the per-layout cost
# levels off well before this many.
_LAYOUT_CHUNK = 16


def _layout_chunks(layouts: Sequence[Layout]) -> Iterator[np.ndarray]:
    """The layouts' positions in shape chunks (world._shape_chunks) of at most _LAYOUT_CHUNK."""
    for positions in _shape_chunks((s.classes.shape for s, _ in layouts), _LAYOUT_CHUNK):
        yield np.array(positions)


FILL_BIN_EDGES = (0.55, 0.7, 0.85)
N_FILL_BINS = len(FILL_BIN_EDGES) + 1


# ---------------------------------------------------------------------------
# Where prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WherePredictor:
    """Per-class placement histogram over (context, position, scale) bins.

    counts holds the raw observations, and it is all a predictor stores.
    The rest is derived from it at construction: probs smooths each class's
    observed bins and their position-adjacent neighbours by _WHERE_ALPHA and
    normalizes them to sum to 1 (_smooth_and_normalize), and fitted marks
    the classes with any observation.
    """

    counts: np.ndarray  # (N_CLASSES, N_CTX_BINS, POS_BINS*POS_BINS, N_SCALE_BINS)
    probs: np.ndarray = field(init=False, repr=False)  # same shape, normalized per fitted class
    fitted: np.ndarray = field(init=False, repr=False)  # (N_CLASSES,) bool
    # Each class's probabilities summed along its flattened bins, found once
    # for every draw. A cumulative sum adds left to right, so a row of it is
    # the same bits as the cumulative sum of that class alone.
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shape = (N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS)
        counts = np.ascontiguousarray(np.asarray(self.counts, dtype=np.float64))
        if counts.shape != shape:
            raise FittingError(f"counts must have shape {shape}")
        # Written so that NaN fails it.
        if not ((counts >= 0.0) & (counts < np.inf)).all():
            raise FittingError("counts must be finite and nonnegative")
        probs = _smooth_and_normalize(counts, _WHERE_ALPHA)
        derived = {
            "counts": counts,
            "probs": probs,
            "fitted": counts.sum(axis=(1, 2, 3)) > 0,
            "_cumulative": np.cumsum(probs.reshape(N_CLASSES, -1), axis=1),
        }
        for name, arr in derived.items():
            object.__setattr__(self, name, _frozen(arr))

    def class_counts(self) -> np.ndarray:
        return self.counts.sum(axis=(1, 2, 3))

    def sample_bin(self, class_id: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
        """Draw (ctx, pos_y, pos_x, scale) for a class; class must be fitted."""
        if not self.fitted[class_id]:
            raise FittingError(f"where-predictor not fitted for class {class_id}")
        cumulative = self._cumulative[class_id]
        idx = int(np.searchsorted(cumulative, rng.random(), side="right"))
        idx = min(idx, cumulative.size - 1)
        ctx, pos, scale = np.unravel_index(idx, self.probs.shape[1:])
        return int(ctx), int(pos) // POS_BINS, int(pos) % POS_BINS, int(scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WherePredictor):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {"counts": self.counts}

    @classmethod
    def _from_state(cls, arrays: dict[str, np.ndarray]) -> "WherePredictor":
        return cls(counts=arrays["counts"])


def _smooth_and_normalize(counts: np.ndarray, alpha: float) -> np.ndarray:
    """Smooth observed bins and their position neighbors, then normalize."""
    grid = counts.reshape(N_CLASSES, N_CTX_BINS, POS_BINS, POS_BINS, N_SCALE_BINS)
    observed = grid > 0
    support = observed.copy()
    for axis in (2, 3):  # 4-neighborhood in the position plane only
        for shift in (-1, 1):
            support |= np.roll(observed, shift, axis=axis) & _roll_valid(
                grid.shape, axis, shift
            )
    smoothed = grid + alpha * support
    flat = smoothed.reshape(N_CLASSES, -1)
    totals = flat.sum(axis=1, keepdims=True)
    out = np.where(totals > 0, flat / np.where(totals == 0, 1.0, totals), 0.0)
    return out.reshape(counts.shape)


def _roll_valid(shape: tuple, axis: int, shift: int) -> np.ndarray:
    """Mask killing wrap-around entries introduced by np.roll."""
    valid = np.ones(shape, dtype=bool)
    index = [slice(None)] * len(shape)
    index[axis] = 0 if shift == 1 else -1
    valid[tuple(index)] = False
    return valid


def fit_where(layouts: Sequence[Layout]) -> WherePredictor:
    """Fit placement histograms from the instances observed in real layouts."""
    if not layouts:
        raise FittingError("fit_where needs at least one layout")
    counts = np.zeros(N_CLASSES * N_CTX_BINS * POS_BINS * POS_BINS * N_SCALE_BINS)
    n_instances = 0
    for index in _layout_chunks(layouts):
        classes = np.stack([layouts[i][0].classes for i in index])
        inst = _layout_instances([layouts[i][1] for i in index])
        _, h, w = classes.shape
        # Mean cell, rounded half to even as round() does.
        rows = np.rint(np.add.reduceat(inst.ys, inst.starts) / inst.counts).astype(np.intp)
        cols = np.rint(np.add.reduceat(inst.xs, inst.starts) / inst.counts).astype(np.intp)
        ctx = _ctx_bin_from_depth(_depth_at(classes, inst.layout, rows, cols))
        py, px = _pos_bins(rows, cols, h, w)
        sbins = np.searchsorted(_SCALE_BIN_EDGES, inst.bbox[:, 2:].max(axis=1))
        pos = py * POS_BINS + px
        bins = ((inst.class_ids * N_CTX_BINS + ctx) * POS_BINS * POS_BINS + pos) * N_SCALE_BINS + sbins
        # Whole-number counts: the bincount adds exactly, in any order.
        counts += np.bincount(bins, minlength=counts.size)
        n_instances += inst.ids.size
    if n_instances == 0:
        raise FittingError("no instances found in the provided layouts")
    return WherePredictor(
        counts=counts.reshape(N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS)
    )


# ---------------------------------------------------------------------------
# What prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WhatPredictor:
    """Shape template library: harvested masks, each with its class.

    The templates are indexed once, at construction: one pool per (class,
    scale bin) in template order, a mask's scale bin being scale_bin_of its
    own size, and the largest (height, width) per class.
    """

    templates: tuple[tuple[int, np.ndarray], ...]  # (class, mask)
    _pools: dict[tuple[int, int], tuple[np.ndarray, ...]] = field(init=False, repr=False)
    _max_dims: dict[int, tuple[int, int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        frozen = []
        pools: dict[tuple[int, int], list[np.ndarray]] = {}
        max_dims: dict[int, tuple[int, int]] = {}
        for cls, mask in self.templates:
            m = _frozen(np.ascontiguousarray(np.asarray(mask, dtype=bool)))
            frozen.append((int(cls), m))
            if m.ndim == 2:  # other masks only reach the decoder, which rejects them
                mh, mw = m.shape
                pools.setdefault((int(cls), scale_bin_of(mw, mh)), []).append(m)
                oh, ow = max_dims.get(int(cls), (0, 0))
                max_dims[int(cls)] = (max(oh, mh), max(ow, mw))
        object.__setattr__(self, "templates", tuple(frozen))
        object.__setattr__(self, "_pools", {key: tuple(p) for key, p in pools.items()})
        object.__setattr__(self, "_max_dims", max_dims)

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted({cls for cls, _ in self._pools}))

    def pick(
        self, class_id: int, scale_bin: int, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """A template for the class, preferring the requested scale bin."""
        for sbin in sorted(range(N_SCALE_BINS), key=lambda s: abs(s - scale_bin)):
            pool = self._pools.get((class_id, sbin))
            if pool:
                return pool[int(rng.integers(len(pool)))]
        return None

    def max_dims(self, class_id: int) -> tuple[int, int]:
        """Largest observed (height, width) for a class; (0, 0) if unseen."""
        return self._max_dims.get(class_id, (0, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WhatPredictor):
            return NotImplemented
        if len(self.templates) != len(other.templates):
            return False
        return all(
            a[0] == b[0] and np.array_equal(a[1], b[1])
            for a, b in zip(self.templates, other.templates)
        )

    def _state_arrays(self) -> dict[str, np.ndarray]:
        out = {"classes": np.array([cls for cls, _ in self.templates], dtype=np.int64)}
        for i, (_, mask) in enumerate(self.templates):
            out[f"mask{i}"] = mask.astype(np.uint8)
        return out

    @classmethod
    def _from_state(cls, arrays: dict[str, np.ndarray]) -> "WhatPredictor":
        """Decoded templates; `fit_what` only harvests masks already found connected."""
        templates = []
        for i, class_id in enumerate(arrays["classes"].reshape(-1).tolist()):
            flags = arrays[f"mask{i}"]
            mask = flags.astype(bool)
            # Any value but 0 and 1 would not re-encode to its bytes.
            if not np.array_equal(mask, flags):
                raise FittingError("template mask must hold only 0 and 1")
            if mask.ndim != 2 or not mask.any():
                raise FittingError("template mask must be a non-empty 2-D grid")
            if _label_components(mask)[1] != 1:
                raise FittingError("template mask must be a single component")
            templates.append((class_id, mask))
        return cls(templates=tuple(templates))


def fit_what(layouts: Sequence[Layout]) -> WhatPredictor:
    """Harvest connected instance masks from real layouts as templates.

    Templates come in input layout order, record order within a layout,
    whatever order the shape chunks list the layouts in.
    """
    if not layouts:
        raise FittingError("fit_what needs at least one layout")
    found: list[tuple[int, int, Optional[np.ndarray]]] = []  # (layout, class, mask)
    for index in _layout_chunks(layouts):
        maps = [layouts[i][1] for i in index]
        inst = _layout_instances(maps)
        for lay, inst_id, cls, (y0, y1, x0, x1), connected in zip(
            inst.layout.tolist(),
            inst.ids.tolist(),
            inst.class_ids.tolist(),
            inst.box.tolist(),
            inst.connected.tolist(),
        ):
            crop = None  # fragmented masks make unusable templates
            if connected:
                crop = maps[lay].instance_grid[y0 : y1 + 1, x0 : x1 + 1] == inst_id
            found.append((int(index[lay]), cls, crop))
    found.sort(key=lambda f: f[0])  # stable: record order stays within a layout
    templates = tuple((cls, crop) for _, cls, crop in found if crop is not None)
    if not templates:
        raise FittingError("no instances found in the provided layouts")
    missing = {cls for _, cls, _ in found} - {cls for cls, _ in templates}
    if missing:
        raise FittingError(f"no usable templates for classes {sorted(missing)}")
    return WhatPredictor(templates=templates)


# ---------------------------------------------------------------------------
# Candidates and insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AugmentationCandidate:
    """A layout with newly inserted instances, awaiting or carrying a score.

    inserted holds the ids of the inserted instances' records, as a
    read-only int64 array.
    """

    semantic: SemanticMap
    instances: InstanceMap
    inserted: np.ndarray
    source_sample_id: int
    score: Optional[float] = None

    def __post_init__(self) -> None:
        inserted = np.array(self.inserted, dtype=np.int64)
        known = (inserted[:, None] == self.instances.records["id"]).any(axis=1)
        missing = inserted[~known]
        if missing.size:
            raise DegenerateInputError(f"inserted id {missing[0]} missing from instance map")
        object.__setattr__(self, "inserted", _frozen(inserted))
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise DegenerateInputError(f"score {self.score} outside [0, 1]")


def _with_record(records: np.ndarray, row: tuple, at: Optional[int] = None) -> np.ndarray:
    """A copy of a record table with row written at position at, or appended."""
    if at is None:
        at = records.size
    out = np.empty(max(records.size, at + 1), dtype=RECORD_DTYPE)
    out[: records.size] = records
    out[at] = row
    return out


def _resize_mask(mask: np.ndarray, sy: float, sx: float) -> np.ndarray:
    """Nearest-neighbor upscale; factors >= 1 preserve 4-connectivity."""
    h, w = mask.shape
    nh, nw = max(1, int(round(h * sy))), max(1, int(round(w * sx)))
    rows = np.minimum((np.arange(nh) / sy).astype(int), h - 1)
    cols = np.minimum((np.arange(nw) / sx).astype(int), w - 1)
    return mask.take(rows, 0).take(cols, 1)


class _InsertionBase(NamedTuple):
    """A source layout and what every insertion into it reads, found once."""

    semantic: SemanticMap
    instances: InstanceMap
    ctx_map: np.ndarray  # context bin of every cell
    occupied: np.ndarray  # cells held by an instance
    new_id: int  # the id an inserted instance takes


_MAX_GRID_ID = int(np.iinfo(np.int32).max)
# Placement draws per insertion before sample_insertion gives up.
_INSERTION_ATTEMPTS = 8


def _insertion_base(base: Layout) -> _InsertionBase:
    semantic, instances = base
    new_id = instances.next_free_id()
    if new_id > _MAX_GRID_ID:
        raise DegenerateInputError(
            f"instance id {new_id} for an insertion does not fit the int32 instance grid"
        )
    return _InsertionBase(
        semantic=semantic,
        instances=instances,
        ctx_map=_ctx_bin_from_depth(_depth_map(semantic.classes)),
        occupied=instances.instance_grid != BACKGROUND_ID,
        new_id=new_id,
    )


def sample_insertion(
    where: WherePredictor,
    what: WhatPredictor,
    base: _InsertionBase,
    class_id: int,
    seed: int,
) -> Optional[AugmentationCandidate]:
    """Insert one instance of class_id into a copy of the base layout.

    base is _insertion_base(layout): one source's context map, occupancy
    and next instance id, found once for all of its insertions (building it
    raises DegenerateInputError when that id exceeds the int32 grid). Draws
    a (context, position, scale) bin, picks a matching anchor cell and
    template, applies a mild scale jitter, and writes the mask where it fits
    without touching existing instances (one-cell gap to same-class cells so
    components stay separable). Returns None if none of
    _INSERTION_ATTEMPTS draws fits.
    """
    classes = base.semantic.classes
    ctx_map, occupied = base.ctx_map, base.occupied
    h, w = classes.shape
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & (2**63 - 1), class_id, 0xA06])
    )
    max_h, max_w = what.max_dims(class_id)
    for _ in range(_INSERTION_ATTEMPTS):
        ctx, py, px, sbin = where.sample_bin(class_id, rng)
        template = what.pick(class_id, sbin, rng)
        if template is None:
            return None
        # Scale jitter capped by the largest real instance of the class, so
        # inserted sizes never leave the observed size distribution.
        cap_y = min(1.4, max_h / template.shape[0])
        cap_x = min(1.4, max_w / template.shape[1])
        sy = float(rng.uniform(1.0, cap_y)) if cap_y > 1.0 else 1.0
        sx = float(rng.uniform(1.0, cap_x)) if cap_x > 1.0 else 1.0
        mask = _resize_mask(template, sy, sx)
        y_lo, y_hi = py * h // POS_BINS, (py + 1) * h // POS_BINS
        x_lo, x_hi = px * w // POS_BINS, (px + 1) * w // POS_BINS
        window_ok = (ctx_map[y_lo:y_hi, x_lo:x_hi] == ctx) & ~occupied[y_lo:y_hi, x_lo:x_hi]
        anchors = np.argwhere(window_ok)
        if anchors.size == 0:
            continue
        r, c = anchors[int(rng.integers(anchors.shape[0]))]
        r, c = int(r) + y_lo, int(c) + x_lo
        mh, mw = mask.shape
        top, left = r - (mh - 1) // 2, c - (mw - 1) // 2
        if top < 0 or left < 0 or top + mh > h or left + mw > w:
            continue
        ys, xs = np.nonzero(mask)
        ys, xs = ys + top, xs + left
        if occupied[ys, xs].any():
            continue
        ry_lo, ry_hi = max(top - 1, 0), min(top + mh + 1, h)
        rx_lo, rx_hi = max(left - 1, 0), min(left + mw + 1, w)
        if (classes[ry_lo:ry_hi, rx_lo:rx_hi] == class_id).any():
            continue  # keep a separation gap to same-class cells
        new_classes = classes.copy()
        new_classes[ys, xs] = class_id
        new_grid = base.instances.instance_grid.copy()
        new_grid[ys, xs] = base.new_id
        row = (base.new_id, class_id, (xs.min(), ys.min(), mw, mh), (left, top, sx, sy))
        return AugmentationCandidate(
            semantic=SemanticMap(classes=new_classes),
            instances=InstanceMap(
                instance_grid=new_grid, records=_with_record(base.instances.records, row)
            ),
            inserted=[base.new_id],
            source_sample_id=0,
        )
    return None


# ---------------------------------------------------------------------------
# Plausibility scoring
# ---------------------------------------------------------------------------


def _mode_pool(classes: np.ndarray, factor: int) -> np.ndarray:
    """Majority class per factor x factor block of stacked grids, ties to the lowest id.

    classes is (layouts, h, w); blocks past the edge repeat the edge row
    and column.
    """
    if factor == 1:
        return classes
    n, h, w = classes.shape
    ph, pw = -h % factor, -w % factor
    if ph or pw:
        classes = np.pad(classes, ((0, 0), (0, ph), (0, pw)), mode="edge")
    hh, ww = classes.shape[1] // factor, classes.shape[2] // factor
    blocks = classes.reshape(n, hh, factor, ww, factor).transpose(0, 1, 3, 2, 4)
    keys = np.arange(n * hh * ww).reshape(n, hh, ww, 1, 1) * N_CLASSES + blocks
    votes = np.bincount(keys.ravel(), minlength=n * hh * ww * N_CLASSES)
    return votes.reshape(n, hh, ww, N_CLASSES).argmax(axis=3).astype(np.uint8)


def _adjacency_counts(classes: np.ndarray) -> np.ndarray:
    """Class pair counts of 4-adjacent cells, both ways, over stacked grids.

    One bincount over the (first, second) pair codes of the horizontal and
    vertical neighbours counts each pair one way; its transpose counts the
    other. The counts are whole numbers, so they are exact.
    """
    grids = classes.astype(np.intp)
    codes = np.concatenate(
        [
            (grids[:, :, :-1] * N_CLASSES + grids[:, :, 1:]).ravel(),
            (grids[:, :-1, :] * N_CLASSES + grids[:, 1:, :]).ravel(),
        ]
    )
    counts = np.bincount(codes, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    return (counts + counts.T).astype(np.float64)


EVIDENCE_FLOOR = 0.8


def _normalized_evidence(table: np.ndarray) -> np.ndarray:
    """0 for never-observed evidence, else a value in [floor, 1], per cell.

    Each row is scaled by its peak. The floor separates "rare but real" from
    "never seen": any observed bin beats every unobserved bin by a fixed
    gap, which is what the corruption calibration leans on.
    """
    peaks = table.max(axis=1, keepdims=True)
    ratio = table / np.where(peaks > 0, peaks, 1.0)
    return np.where(table > 0, EVIDENCE_FLOOR + (1.0 - EVIDENCE_FLOOR) * ratio, 0.0)


@dataclass(frozen=True, eq=False)
class _ScaleStats:
    """Evidence tables at one pooling scale.

    The *_norm tables are derived once at construction: never serialized,
    never compared. Adjacency normalizes as floor + ((1 - floor) * count) /
    peak, the other tables as floor + (1 - floor) * (count / peak); the two
    float associations are kept apart so scores stay bit for bit what the
    tables define.
    """

    adjacency: np.ndarray  # (N_CLASSES, N_CLASSES) pair counts
    ctx_freq: np.ndarray  # (N_CLASSES, N_CTX_BINS) instance context counts
    size_freq: np.ndarray  # (N_CLASSES, N_SCALE_BINS) instance size counts
    fill_freq: np.ndarray  # (N_CLASSES, N_FILL_BINS) bbox fill-ratio counts
    adj_norm: np.ndarray = field(init=False, repr=False)
    adj_seen: np.ndarray = field(init=False, repr=False)  # (N_CLASSES,) any adjacency
    ctx_norm: np.ndarray = field(init=False, repr=False)
    size_norm: np.ndarray = field(init=False, repr=False)
    fill_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, columns in (
            ("adjacency", N_CLASSES),
            ("ctx_freq", N_CTX_BINS),
            ("size_freq", N_SCALE_BINS),
            ("fill_freq", N_FILL_BINS),
        ):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if arr.shape != (N_CLASSES, columns):
                raise FittingError(f"{name} must have shape {(N_CLASSES, columns)}")
            if not ((arr >= 0.0) & (arr < np.inf)).all():
                raise FittingError(f"{name} must be finite and nonnegative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        peaks = self.adjacency.max(axis=1)
        safe = np.where(peaks > 0, peaks, 1.0)
        adj_norm = np.where(
            self.adjacency > 0,
            EVIDENCE_FLOOR + (1.0 - EVIDENCE_FLOOR) * self.adjacency / safe[:, None],
            0.0,
        )
        derived = {
            "adj_norm": adj_norm,
            "adj_seen": peaks > 0,
            "ctx_norm": _normalized_evidence(self.ctx_freq),
            "size_norm": _normalized_evidence(self.size_freq),
            "fill_norm": _normalized_evidence(self.fill_freq),
        }
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ScaleStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, n), getattr(other, n))
            for n in ("adjacency", "ctx_freq", "size_freq", "fill_freq")
        )


class _ScaleKeys(NamedTuple):
    """Evidence keys at one pooling scale, one entry per instance."""

    pooled: np.ndarray  # the mode-pooled class grids, (layouts, ph, pw)
    # Context of each mask's closest approach to the road (its maximum
    # depth), which keeps wide roadside blobs in the roadside bin even when
    # their far cells reach deep into the scenery.
    ctx_bin: np.ndarray
    size_bin: np.ndarray
    fill_bin: np.ndarray
    n_components: np.ndarray
    # The masks' outside 4-neighbours as (instance class, pooled neighbour
    # class) pairs, flat indices into an (N_CLASSES, N_CLASSES) table, in
    # runs by direction (down, up, right, left), then instance, then the
    # row-major order of the mask cell they neighbour; ring_lengths is (4, n).
    ring: np.ndarray
    ring_lengths: np.ndarray


# Ring directions, in ring order: down, up, right, left.
_RING_DY = np.array([1, -1, 0, 0])
_RING_DX = np.array([0, 0, 1, -1])


def _scale_keys(pooled: np.ndarray, inst: _Instances, factor: int) -> _ScaleKeys:
    """Every instance's evidence keys at one scale, in whole-batch array passes.

    pooled holds the batch's class grids mode-pooled by factor. Each
    instance is any-pooled: it owns every pooled cell one of its cells falls
    in. One sort of (instance, pooled cell) keys lists those cells grouped by
    instance and row-major within one; the bins come from per-instance
    reductions over that list, and a neighbour lies outside its instance
    when searchsorted does not find its key. Any-pooling maps 4-adjacent
    cells to the same or 4-adjacent blocks, so an instance connected at full
    resolution stays connected; only the rare fragmented instance has its
    pooled mask labelled.
    """
    _, ph, pw = pooled.shape
    size = ph * pw
    n = inst.ids.size
    keys = np.sort(inst.owner * size + (inst.ys // factor) * pw + inst.xs // factor)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    owner, cell = np.divmod(keys, size)
    py, px = np.divmod(cell, pw)
    layout = inst.layout[owner]
    n_cells = np.bincount(owner, minlength=n)
    first = np.cumsum(n_cells) - n_cells

    y0, x0 = inst.box[:, 0] // factor, inst.box[:, 2] // factor
    bh = inst.box[:, 1] // factor + 1 - y0
    bw = inst.box[:, 3] // factor + 1 - x0
    n_components = np.ones(n, dtype=np.int64)
    for i in np.flatnonzero(~inst.connected):
        mine = slice(first[i], first[i] + n_cells[i])
        mask = np.zeros((bh[i], bw[i]), dtype=bool)
        mask[py[mine] - y0[i], px[mine] - x0[i]] = True
        n_components[i] = _label_components(mask)[1]

    steps = (_RING_DY * pw + _RING_DX)[:, None]
    neighbour = keys + steps
    found = keys[np.minimum(np.searchsorted(keys, neighbour), keys.size - 1)] == neighbour
    outside = ~found
    outside[0] &= py < ph - 1
    outside[1] &= py > 0
    outside[2] &= px < pw - 1
    outside[3] &= px > 0
    runs = (owner + n * np.arange(4)[:, None])[outside]
    # Off-grid neighbours are clipped to some cell; only outside ones are kept.
    pairs = inst.class_ids[owner] * N_CLASSES + pooled.take(
        layout * size + cell + steps, mode="clip"
    )
    return _ScaleKeys(
        pooled=pooled,
        ctx_bin=_ctx_bin_from_depth(
            np.maximum.reduceat(_depth_at(pooled, layout, py, px), first)
        ),
        size_bin=np.searchsorted(_SCALE_BIN_EDGES, np.maximum(bw, bh)),
        fill_bin=np.searchsorted(FILL_BIN_EDGES, n_cells / (bw * bh), side="right"),
        n_components=n_components,
        ring=pairs[outside],
        ring_lengths=np.bincount(runs, minlength=4 * n).reshape(4, n),
    )


class _Chunk(NamedTuple):
    """Same-shape layouts scored together, with their instances and keys."""

    index: np.ndarray  # (layouts,) each layout's position in the input
    inst: _Instances
    scales: tuple[_ScaleKeys, ...]  # one per pool factor


def _chunks(layouts: Sequence[Layout]) -> Iterator[_Chunk]:
    """The layouts in shape chunks (_layout_chunks), with their instances and keys."""
    for index in _layout_chunks(layouts):
        classes = np.stack([layouts[i][0].classes for i in index])
        inst = _layout_instances([layouts[i][1] for i in index])
        scales = tuple(_scale_keys(_mode_pool(classes, f), inst, f) for f in POOL_FACTORS)
        yield _Chunk(index=index, inst=inst, scales=scales)


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum each run of values, bit for bit as ndarray.sum() sums it alone.

    The runs lie end to end in values, lengths[i] long. A float sum depends
    on its order, and numpy adds fewer than 8 elements left to right, longer
    runs in 8 lanes. The short runs are therefore summed together down the
    columns of a zero-padded matrix, one row at a time, which adds each
    column left to right (adding 0.0 changes no sum of nonnegative values);
    the long ones by .sum() on their own slice. padded.sum(axis=0) would not
    do: on a single column it sums the 8 entries in lanes.
    """
    starts = np.cumsum(lengths) - lengths
    short = lengths < 8
    run = np.repeat(np.arange(lengths.size), lengths)
    place = short[run]
    padded = np.zeros((8, lengths.size))
    padded[np.arange(values.size)[place] - starts[run[place]], run[place]] = values[place]
    sums = padded[0].copy()
    for row in padded[1:]:
        sums += row
    for i in np.flatnonzero(~short):
        sums[i] = values[starts[i] : starts[i] + lengths[i]].sum()
    return sums


def _component_values(stats: _ScaleStats, inst: _Instances, keys: _ScaleKeys) -> np.ndarray:
    """(box, instance, affine, shape) evidence per instance at one scale: (n, 4).

    The instance term is the mean adjacency evidence over the ring; a class
    without adjacency evidence scores 0 and an empty ring scores 1. Each
    direction's run is summed on its own and the four sums are added in
    ring order, starting from 0.0: float sums depend on their order, and the
    scores are pinned bit for bit.
    """
    cls = inst.class_ids
    n = cls.size
    evidence = stats.adj_norm.ravel()[keys.ring]
    sums = _segment_sums(evidence, keys.ring_lengths.ravel()).reshape(4, n)
    total = 0.0 + sums[0] + sums[1] + sums[2] + sums[3]
    count = keys.ring_lengths.sum(axis=0)
    ring = np.where(count > 0, total / np.maximum(count, 1), 1.0)
    return np.stack(
        [
            stats.ctx_norm[cls, keys.ctx_bin],
            np.where(stats.adj_seen[cls], ring, 0.0),
            stats.size_norm[cls, keys.size_bin],
            stats.fill_norm[cls, keys.fill_bin] * np.where(keys.n_components == 1, 1.0, 0.2),
        ],
        axis=1,
    )


def _fit_scale_stats(chunks: Sequence[_Chunk]) -> tuple[_ScaleStats, ...]:
    """Evidence tables at every pool factor, counted over the chunks' layouts."""
    n = len(POOL_FACTORS)
    adjacency = np.zeros((n, N_CLASSES, N_CLASSES))
    ctx_freq = np.zeros((n, N_CLASSES, N_CTX_BINS))
    size_freq = np.zeros((n, N_CLASSES, N_SCALE_BINS))
    fill_freq = np.zeros((n, N_CLASSES, N_FILL_BINS))
    for chunk in chunks:
        cls = chunk.inst.class_ids
        for k, keys in enumerate(chunk.scales):
            adjacency[k] += _adjacency_counts(keys.pooled)
            np.add.at(ctx_freq[k], (cls, keys.ctx_bin), 1)
            np.add.at(size_freq[k], (cls, keys.size_bin), 1)
            np.add.at(fill_freq[k], (cls, keys.fill_bin), 1)
    return tuple(
        _ScaleStats(
            adjacency=adjacency[k], ctx_freq=ctx_freq[k], size_freq=size_freq[k],
            fill_freq=fill_freq[k],
        )
        for k in range(n)
    )


def _global_adjacency_score(stats: _ScaleStats, pooled: np.ndarray) -> float:
    norm = stats.adj_norm
    a = pooled[:, :-1].ravel()
    b = pooled[:, 1:].ravel()
    c = pooled[:-1, :].ravel()
    d = pooled[1:, :].ravel()
    vals = np.concatenate([norm[a, b], norm[c, d]])
    return float(vals.mean()) if vals.size else 0.0


# The weights of an instance's box, instance, affine and shape components:
# all the same.
_SCORER_WEIGHTS = _frozen(np.array([0.25, 0.25, 0.25, 0.25]))


@dataclass(frozen=True, eq=False)
class PlausibilityScorer:
    """Three-scale layout judge with threshold acceptance.

    Four evidence components per instance: placement context (box), boundary
    adjacency (instance), size frequency (affine), and fill-ratio bin with
    connectivity (shape). Observed evidence maps to [EVIDENCE_FLOOR, 1]
    while never-observed evidence scores 0, and two hard gates multiply the
    per-instance score down: same-class contact (instances in real layouts
    always keep a gap) and a never-observed context or size bin. The layout
    score at a scale is the weakest instance's weighted component sum; the
    raw score is the mean over scales, then an affine calibration maps it to
    [0, 1) so real layouts clear the threshold with margin.

    raw_score and score_layout take a sequence of layouts and return one
    float64 per layout, in input order. Layouts of one grid shape are scored
    together, _LAYOUT_CHUNK at a time, in array passes over all their
    instances: per scale, _scale_keys yields every instance's evidence keys
    and _component_values an (instances, 4) array of components, which
    diagnostics_json and fitting read too. The ring term sums each
    direction's run with the exact order of ndarray.sum() (_segment_sums),
    np.vecdot takes each instance's weighted sum with numpy's 1-D dot
    routine, so every row adds its four terms as a lone
    `_SCORER_WEIGHTS @ row` would (a matrix product may add them in another
    order), and the minimum and the mean over scales are taken per layout.
    A layout's score is therefore the same bits in any batch.
    """

    scale_stats: tuple[_ScaleStats, ...]
    threshold: float
    calibration: np.ndarray  # (2,) slope, intercept

    def __post_init__(self) -> None:
        if len(self.scale_stats) != len(POOL_FACTORS):
            raise FittingError(f"expected {len(POOL_FACTORS)} scale stats")
        # Every range check is written so that NaN fails it.
        if not 0.0 < self.threshold < 1.0:
            raise FittingError(f"threshold {self.threshold} outside (0, 1)")
        calib = np.ascontiguousarray(np.asarray(self.calibration, dtype=np.float64))
        if not (calib.shape == (2,) and np.isfinite(calib).all()):
            raise FittingError("calibration must be a finite (slope, intercept)")
        calib.setflags(write=False)
        object.__setattr__(self, "calibration", calib)
        object.__setattr__(self, "scale_stats", tuple(self.scale_stats))

    # -- scoring --

    def raw_score(self, layouts: Sequence[Layout]) -> np.ndarray:
        """The uncalibrated score of each layout."""
        return self._raw_scores(_chunks(layouts), len(layouts))

    def score_layout(self, layouts: Sequence[Layout]) -> np.ndarray:
        """The calibrated score of each layout, in [0, SCORE_CAP]."""
        slope, intercept = self.calibration
        mapped = slope * self.raw_score(layouts) + intercept
        return np.minimum(np.maximum(mapped, 0.0), SCORE_CAP)

    def _raw_scores(self, chunks: Iterable[_Chunk], n_layouts: int) -> np.ndarray:
        out = np.empty(n_layouts)
        for chunk in chunks:
            out[chunk.index] = self._chunk_scores(chunk)
        return out

    def _chunk_scores(self, chunk: _Chunk) -> np.ndarray:
        inst = chunk.inst
        has = np.bincount(inst.layout, minlength=chunk.index.size) > 0
        # Each layout's instances lie together, so the layouts that hold
        # any cut the instance list into one run each.
        runs = np.searchsorted(inst.layout, np.flatnonzero(has))
        vals = np.empty((len(POOL_FACTORS), chunk.index.size))
        for k, (stats, keys) in enumerate(zip(self.scale_stats, chunk.scales)):
            for j in np.flatnonzero(~has):
                vals[k, j] = _global_adjacency_score(stats, keys.pooled[j])
            if not inst.ids.size:
                continue
            comps = _component_values(stats, inst, keys)
            # One 1-D dot per instance row: a matrix product may add the
            # four terms in another order.
            value = np.vecdot(_SCORER_WEIGHTS, comps)
            # Hard gates: configurations real layouts never produce.
            value = np.where(inst.contact, value * 0.1, value)
            value = np.where((comps[:, 0] == 0.0) | (comps[:, 2] == 0.0), value * 0.3, value)
            vals[k, has] = np.minimum.reduceat(value, runs)
        # Down the scale axis, each layout's mean adds its three values left
        # to right, as np.mean over that layout's values alone does.
        return vals.mean(axis=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlausibilityScorer):
            return NotImplemented
        return (
            self.scale_stats == other.scale_stats
            and self.threshold == other.threshold
            and np.array_equal(self.calibration, other.calibration)
        )

    def _state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "threshold": np.array([self.threshold]),
            "calibration": self.calibration,
        }
        for i, stats in enumerate(self.scale_stats):
            out[f"adj{i}"] = stats.adjacency
            out[f"ctx{i}"] = stats.ctx_freq
            out[f"size{i}"] = stats.size_freq
            out[f"fill{i}"] = stats.fill_freq
        return out

    @classmethod
    def _from_state(cls, arrays: dict[str, np.ndarray]) -> "PlausibilityScorer":
        stats = tuple(
            _ScaleStats(
                adjacency=arrays[f"adj{i}"],
                ctx_freq=arrays[f"ctx{i}"],
                size_freq=arrays[f"size{i}"],
                fill_freq=arrays[f"fill{i}"],
            )
            for i in range(len(POOL_FACTORS))
        )
        return cls(
            scale_stats=stats,
            threshold=float(arrays["threshold"][0]),
            calibration=arrays["calibration"],
        )


def diagnostics_json(scorer: PlausibilityScorer, layouts: Sequence[Layout]) -> str:
    """Per-component score distributions over a set of layouts, as JSON."""
    import json

    names = ("box", "instance", "affine", "shape")
    collected: list[list[np.ndarray]] = [[] for _ in POOL_FACTORS]
    owners: list[np.ndarray] = []
    for chunk in _chunks(layouts):
        owners.append(chunk.index[chunk.inst.layout])
        for stats, parts, keys in zip(scorer.scale_stats, collected, chunk.scales):
            parts.append(_component_values(stats, chunk.inst, keys))
    # Chunks group layouts by shape; the rows go back to layout order, and
    # record order within a layout, before any statistic sums them.
    order = np.argsort(np.concatenate(owners or [np.empty(0, dtype=np.int64)]), kind="stable")
    per_scale: list[dict] = []
    for factor, parts in zip(POOL_FACTORS, collected):
        # One contiguous row per component, in layout then record order.
        columns = np.concatenate(parts or [np.empty((0, 4))])[order].T.copy()
        per_scale.append(
            {
                "pool_factor": factor,
                "components": {
                    n: {
                        "mean": float(np.mean(v)) if v.size else None,
                        "min": float(np.min(v)) if v.size else None,
                        "max": float(np.max(v)) if v.size else None,
                        "count": int(v.size),
                    }
                    for n, v in zip(names, columns)
                },
            }
        )
    payload = {
        "threshold": scorer.threshold,
        "weights": [float(w) for w in _SCORER_WEIGHTS],
        "calibration": {"slope": float(scorer.calibration[0]), "intercept": float(scorer.calibration[1])},
        "scales": per_scale,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Corruption oracles (negatives for calibration and testing)
# ---------------------------------------------------------------------------


def _erase_record(classes: np.ndarray, grid: np.ndarray, mask: np.ndarray) -> None:
    """Remove a blob, backfilling with the commonest neighboring stuff class."""
    ring = np.zeros_like(mask)  # the 4-neighbours of the blob, outside it
    ring[1:] |= mask[:-1]
    ring[:-1] |= mask[1:]
    ring[:, 1:] |= mask[:, :-1]
    ring[:, :-1] |= mask[:, 1:]
    ring &= ~mask
    ring_classes = classes[ring]
    stuff = ring_classes[~np.isin(ring_classes, THING_CLASSES)]
    fill = int(np.bincount(stuff, minlength=N_CLASSES).argmax()) if stuff.size else ClassId.ROAD
    classes[mask] = fill
    grid[mask] = BACKGROUND_ID


def corrupt_relocate(layout: Layout, seed: int) -> Optional[Layout]:
    """Move one instance deep into the building/vegetation region."""
    semantic, instances = layout
    records = instances.records
    if not records.size:
        return None
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 0xBAD1]))
    k = int(rng.integers(records.size))
    inst_id, cls = records["id"][k], records["cls"][k]
    mask = instances.instance_grid == inst_id
    if not mask.any():
        return None
    classes = semantic.classes.copy()
    grid = instances.instance_grid.copy()
    _erase_record(classes, grid, mask)
    depth = _depth_map(classes)
    # Depth <= -12 keeps the blob far off-road even after 2x pooling.
    scenery = np.isin(classes, (ClassId.BUILDING, ClassId.VEGETATION))
    far = np.argwhere((depth <= -12) & scenery & (grid == BACKGROUND_ID))
    if far.size == 0:
        return None
    ys0, xs0 = np.nonzero(mask)
    mh, mw = ys0.max() - ys0.min() + 1, xs0.max() - xs0.min() + 1
    crop = mask[ys0.min() : ys0.max() + 1, xs0.min() : xs0.max() + 1]
    h, w = classes.shape
    order = rng.permutation(far.shape[0])
    for idx in order[:64]:
        r, c = far[idx]
        top, left = int(r) - (mh - 1) // 2, int(c) - (mw - 1) // 2
        if top < 0 or left < 0 or top + mh > h or left + mw > w:
            continue
        ys, xs = np.nonzero(crop)
        ys, xs = ys + top, xs + left
        if (grid[ys, xs] != BACKGROUND_ID).any():
            continue
        if not (scenery[ys, xs] & (depth[ys, xs] <= -12)).all():
            continue
        classes[ys, xs] = cls
        grid[ys, xs] = inst_id
        row = (inst_id, cls, (xs.min(), ys.min(), mw, mh), (left, top, 1.0, 1.0))
        return SemanticMap(classes=classes), InstanceMap(
            instance_grid=grid, records=_with_record(records, row, k)
        )
    return None


def corrupt_overlap(layout: Layout, seed: int) -> Optional[Layout]:
    """Duplicate one instance shifted by a cell: >50% footprint overlap.

    Only instances of 4+ cells qualify so a one-cell shift really does
    overlap most of the footprint. Instances are tried largest first, ties
    in record order; one count of the grid's values sizes them all.
    """
    semantic, instances = layout
    del seed  # selection is size-ordered, no randomness needed
    records = instances.records
    if not records.size:
        return None
    values, counts = np.unique(instances.instance_grid, return_counts=True)
    at = np.minimum(np.searchsorted(values, records["id"]), values.size - 1)
    sizes = np.where(values[at] == records["id"], counts[at], 0)
    h, w = semantic.classes.shape
    for k in np.argsort(-sizes, kind="stable"):
        if sizes[k] < 4:
            continue
        inst_id, cls = records["id"][k], records["cls"][k]
        mask = instances.instance_grid == inst_id
        for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            shifted = np.zeros_like(mask)
            ys, xs = np.nonzero(mask)
            ny, nx = ys + dy, xs + dx
            if ny.min() < 0 or nx.min() < 0 or ny.max() >= h or nx.max() >= w:
                continue
            other_cells = instances.instance_grid[ny, nx]
            if ((other_cells != BACKGROUND_ID) & (other_cells != inst_id)).any():
                continue
            shifted[ny, nx] = True
            classes = semantic.classes.copy()
            grid = instances.instance_grid.copy()
            new_id = instances.next_free_id()
            classes[shifted] = cls
            grid[shifted] = new_id
            x0, y0 = nx.min(), ny.min()
            row = (new_id, cls, (x0, y0, nx.max() - x0 + 1, ny.max() - y0 + 1), (x0, y0, 1.0, 1.0))
            return (
                SemanticMap(classes=classes),
                InstanceMap(instance_grid=grid, records=_with_record(records, row)),
            )
    return None


def corrupt_giant(layout: Layout, seed: int) -> Optional[Layout]:
    """Blow one instance up threefold: a size never seen in real layouts."""
    semantic, instances = layout
    records = instances.records
    if not records.size:
        return None
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 0xBAD3]))
    order = rng.permutation(records.size)
    h, w = semantic.classes.shape
    for k in order:
        inst_id, cls = records["id"][k], records["cls"][k]
        mask = instances.instance_grid == inst_id
        if not mask.any():
            continue
        ys0, xs0 = np.nonzero(mask)
        crop = mask[ys0.min() : ys0.max() + 1, xs0.min() : xs0.max() + 1]
        giant = _resize_mask(crop, 3.0, 3.0)
        mh, mw = giant.shape
        if mh > h or mw > w:
            continue
        classes = semantic.classes.copy()
        grid = instances.instance_grid.copy()
        _erase_record(classes, grid, mask)
        top = min(int(ys0.min()), h - mh)
        left = min(int(xs0.min()), w - mw)
        ys, xs = np.nonzero(giant)
        ys, xs = ys + top, xs + left
        if (grid[ys, xs] != BACKGROUND_ID).any():
            continue
        classes[ys, xs] = cls
        grid[ys, xs] = inst_id
        row = (inst_id, cls, (xs.min(), ys.min(), mw, mh), (left, top, 3.0, 3.0))
        return SemanticMap(classes=classes), InstanceMap(
            instance_grid=grid, records=_with_record(records, row, k)
        )
    return None


def make_corruptions(layouts: Sequence[Layout], seed: int) -> list[Layout]:
    """A deterministic batch of implausible layouts derived from real ones."""
    kinds = (corrupt_relocate, corrupt_overlap, corrupt_giant)
    out: list[Layout] = []
    for k, corrupt in enumerate(kinds):
        made = 0
        for i, layout in enumerate(layouts):
            if made >= _CORRUPTIONS_PER_KIND:
                break
            bad = corrupt(layout, seed + 1000 * k + i)
            if bad is not None:
                out.append(bad)
                made += 1
    return out


# ---------------------------------------------------------------------------
# Scorer fitting and the augmentation loop
# ---------------------------------------------------------------------------

_CALIBRATION_MARGIN = 0.1
_GAP_REQUIREMENT = 0.2
# Insertion attempts each source may spend, per candidate it is asked for.
_BUDGET_FACTOR = 16


def _median(values: np.ndarray) -> np.float64:
    """np.median of a 1-D float array, without the numpy.ma import it triggers.

    np.median takes the mean of the middle value, or of the two middle
    values, and that mean's sum starts from 0.0: so an odd count gives
    0.0 + the middle value (a -0.0 median reads 0.0), and an even count adds
    the two middle values to 0.0 and halves the sum. Any NaN, or no values,
    gives NaN.
    """
    ordered = np.sort(values)  # NaN sorts last
    n = ordered.size
    if n == 0 or np.isnan(ordered[-1]):
        return np.float64(np.nan)
    mid = n // 2
    if n % 2:
        return np.float64(0.0 + ordered[mid])
    return np.float64((0.0 + ordered[mid - 1] + ordered[mid]) / 2)


def fit_scorer(real_layouts: Sequence[Layout], threshold: float, seed: int) -> PlausibilityScorer:
    """Fit evidence tables on real layouts and calibrate the score map.

    Calibration anchors an affine map so that the weakest real layout still
    clears the threshold while internally generated corruptions land below
    it, then verifies on a held-out real split: >=95% above threshold, every
    corruption below the real median, and a mean separation of at least 0.2.
    seed draws the corruptions.
    """
    if len(real_layouts) < 10:
        raise FittingError(f"fit_scorer needs >=10 layouts, got {len(real_layouts)}")
    if not 0.0 < threshold < 1.0:
        raise FittingError("threshold must lie strictly inside (0, 1)")
    n_fit = max(int(len(real_layouts) * 0.7), len(real_layouts) - 20)
    n_fit = min(n_fit, len(real_layouts) - 1)
    fit_split = list(real_layouts[:n_fit])
    holdout = list(real_layouts[n_fit:])
    # The fit split's keys serve both the evidence tables and its raw scores.
    fit_chunks = list(_chunks(fit_split))
    stats = _fit_scale_stats(fit_chunks)
    probe = PlausibilityScorer(
        scale_stats=stats,
        threshold=threshold,
        calibration=np.array([1.0, 0.0]),
    )
    raw_fit = probe._raw_scores(fit_chunks, len(fit_split))
    corruptions = make_corruptions(fit_split, seed)
    if not corruptions:
        raise FittingError("could not generate calibration corruptions")
    # A layout's score does not depend on its batch, so the holdout and the
    # corruptions are scored together.
    raw_hold, raw_bad = np.split(probe.raw_score(holdout + corruptions), [len(holdout)])
    r_min, r_med = float(raw_fit.min()), float(_median(raw_fit))
    c_hi = float(raw_bad.max())
    x_mid = (r_min + c_hi) / 2.0 if r_min > c_hi else (r_med + c_hi) / 2.0
    if r_med - x_mid <= 1e-9:
        raise FittingError("real and corrupted layouts are not separable")
    base_slope = _CALIBRATION_MARGIN / (r_med - x_mid)
    for factor in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        slope = base_slope * factor
        intercept = threshold - slope * x_mid
        scorer = PlausibilityScorer(
            scale_stats=stats,
            threshold=threshold,
            calibration=np.array([slope, intercept]),
        )

        def mapped(raws: np.ndarray) -> np.ndarray:
            return np.clip(slope * raws + intercept, 0.0, SCORE_CAP)

        hold_scores = mapped(raw_hold)
        real_scores = mapped(np.concatenate([raw_fit, raw_hold]))
        bad_scores = mapped(raw_bad)
        if (hold_scores >= threshold).mean() < 0.95:
            continue
        if (bad_scores >= threshold).any():
            continue
        if (bad_scores >= _median(real_scores)).any():
            continue
        if real_scores.mean() - bad_scores.mean() < _GAP_REQUIREMENT + 0.05:
            continue
        return scorer
    raise FittingError("scorer calibration failed to separate real from corrupted")


@dataclass
class AugmentStats:
    """Counters accumulated across augment_semantic calls."""

    attempts: int = 0
    accepted: int = 0
    rejected_low_score: int = 0
    insertion_failures: int = 0

    def acceptance_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else 0.0

    def __add__(self, other: "AugmentStats") -> "AugmentStats":
        return AugmentStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


def augment_semantic(
    sources: Sequence[Layout],
    fan_out: int,
    where: WherePredictor,
    what: WhatPredictor,
    scorer: PlausibilityScorer,
    seeds: Sequence[int],
    threshold: float,
) -> tuple[list[AugmentationCandidate], AugmentStats]:
    """Produce up to fan_out accepted augmented layouts from each source layout.

    seeds holds one seed per source, and each candidate's source_sample_id
    is its source's position in sources. Returns the accepted candidates,
    each source's in attempt order, source after source, and the counts of
    the call's attempts.

    Per source, attempts insert a thing instance into the source's layout
    and keep candidates whose plausibility score reaches threshold, until
    fan_out candidates are accepted or the attempt budget
    (_BUDGET_FACTOR * fan_out) is spent; returning fewer than fan_out is a
    valid outcome.

    The sources advance in waves. In a wave, every unfinished source draws
    attempts until it holds fan_out minus its accepted count in candidates,
    or has spent its budget, and the wave is scored in one batch. A source
    taking its attempts one at a time would make every one of these, since
    it cannot reach fan_out sooner, so each source's draws, candidates and
    counts are the same as one by one.
    """
    if fan_out < 1:
        raise DegenerateInputError("fan_out must be >= 1")
    if len(seeds) != len(sources):
        raise DegenerateInputError(f"{len(seeds)} seeds for {len(sources)} sources")
    known = what.classes()
    classes = [c for c in THING_CLASSES if where.fitted[c] and c in known]
    if not classes:
        raise FittingError("predictors cover no thing classes")
    counts = where.class_counts()[classes]
    cumulative = np.cumsum(counts / counts.sum())
    budget = _BUDGET_FACTOR * fan_out
    stats = AugmentStats()
    bases = [_insertion_base(source) for source in sources]
    rngs = [
        np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 0xA76]))
        for seed in seeds
    ]
    accepted: list[list[AugmentationCandidate]] = [[] for _ in sources]
    spent = [0] * len(sources)
    active = list(range(len(sources)))
    while active:
        wave: list[AugmentationCandidate] = []
        for i in active:
            held = 0
            while held < fan_out - len(accepted[i]) and spent[i] < budget:
                spent[i] += 1
                stats.attempts += 1
                pick = int(np.searchsorted(cumulative, rngs[i].random(), side="right"))
                class_id = classes[min(pick, len(classes) - 1)]
                attempt_seed = int(rngs[i].integers(0, 2**63))
                candidate = sample_insertion(where, what, bases[i], class_id, attempt_seed)
                if candidate is None:
                    stats.insertion_failures += 1
                    continue
                wave.append(replace(candidate, source_sample_id=i))
                held += 1
        values = scorer.score_layout([(c.semantic, c.instances) for c in wave]) if wave else []
        for candidate, value in zip(wave, values):
            candidate = replace(candidate, score=float(value))
            if candidate.score >= threshold:
                accepted[candidate.source_sample_id].append(candidate)
                stats.accepted += 1
            else:
                stats.rejected_low_score += 1
        active = [i for i in active if len(accepted[i]) < fan_out and spent[i] < budget]
    return [candidate for per_source in accepted for candidate in per_source], stats
