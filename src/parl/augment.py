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

The scorer never works on a full-grid mask per instance. One find_objects
pass gives every instance's bbox and cells; at each pooling scale, one
component function (_instance_components) any-pools the instance onto its
bbox crop plus a pooled cell of margin and returns the instance's context,
size and fill bins, its component count and its ring of outside neighbour
classes. Scoring, diagnostics_json and scorer fitting all read those
components, and the evidence tables they are looked up in are normalized
once, when the scale stats are built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np
from scipy import ndimage

from .errors import DegenerateInputError, FittingError
from .styles import N_CLASSES
from .world import (
    BACKGROUND_ID,
    ClassId,
    DrivingSample,
    InstanceMap,
    InstanceRecord,
    SemanticMap,
    THING_CLASSES,
)

Layout = tuple[SemanticMap, InstanceMap]

N_CTX_BINS = 4
POS_BINS = 8  # position histogram is POS_BINS x POS_BINS
N_SCALE_BINS = 3
POOL_FACTORS = (1, 2, 4)
SCORE_CAP = 1.0 - 1e-6

_CONN4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def scale_bin_of(width: int, height: int) -> int:
    """Scale bin by the larger bbox dimension: <=2, <=5, larger."""
    m = max(width, height)
    if m <= 2:
        return 0
    if m <= 5:
        return 1
    return 2


def _depth_map(classes: np.ndarray) -> np.ndarray:
    """Signed distance to the road span per cell.

    Positive depths count cells inside the span (1 at the edge), negative
    depths count cells outside it. Rows without road are deeply off-road.
    """
    h, w = classes.shape
    road_like = (classes == ClassId.ROAD) | (classes == ClassId.LANE_MARKING)
    lo = road_like.argmax(axis=1)[:, None]
    hi = w - 1 - road_like[:, ::-1].argmax(axis=1)[:, None]
    cols = np.arange(w)
    depth = np.where(
        (cols >= lo) & (cols <= hi),
        np.minimum(cols - lo, hi - cols) + 1,
        -np.maximum(lo - cols, cols - hi),
    ).astype(np.int32)
    depth[~road_like.any(axis=1)] = -w
    return depth


# Context bins by depth: 0 deep road (>= 3), 1 road edge (1..2), 2 roadside
# strip (-3..-1), 3 far off (<= -4). _depth_map never yields depth 0.
_CTX_DEPTH_EDGES = (-3, 1, 3)


def _ctx_bin_from_depth(depth: np.ndarray) -> np.ndarray:
    return (N_CTX_BINS - 1 - np.digitize(depth, _CTX_DEPTH_EDGES)).astype(np.int8)


def _ctx_bin_of(depth: int) -> int:
    return N_CTX_BINS - 1 - bisect_right(_CTX_DEPTH_EDGES, depth)


def _pos_bins(rows: np.ndarray, cols: np.ndarray, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    py = np.minimum(rows * POS_BINS // h, POS_BINS - 1)
    px = np.minimum(cols * POS_BINS // w, POS_BINS - 1)
    return py, px


def _record_mask(instances: InstanceMap, record: InstanceRecord) -> np.ndarray:
    return instances.instance_grid == record.instance_id


_Box = tuple[slice, slice]


class _Cells(NamedTuple):
    """Where one record's instance lies on the full-resolution grid."""

    record: InstanceRecord
    box: _Box  # bbox slices
    ys: np.ndarray  # cell rows and columns, row-major
    xs: np.ndarray
    connected: bool  # the cells form one 4-connected component


def _instance_cells(instances: InstanceMap) -> list[_Cells]:
    """The cells of each record that owns any, found in one pass over the grid.

    find_objects gives every bbox; the cells come from the bbox crop, in
    the row-major order np.nonzero on the full grid would list them.
    """
    grid = instances.instance_grid
    boxes = ndimage.find_objects(grid + 1)
    out = []
    for rec in instances.records:
        i = rec.instance_id
        box = boxes[i] if 0 <= i < len(boxes) else None
        if box is None:
            continue
        mask = grid[box] == i
        ys, xs = np.nonzero(mask)
        connected = ndimage.label(mask, structure=_CONN4)[1] == 1
        out.append(_Cells(rec, box, ys + box[0].start, xs + box[1].start, connected))
    return out


FILL_BIN_EDGES = (0.55, 0.7, 0.85)
N_FILL_BINS = len(FILL_BIN_EDGES) + 1


def _fill_bin(fill: float) -> int:
    return bisect_right(FILL_BIN_EDGES, fill)


def _contact_flags(instances: InstanceMap) -> dict[int, bool]:
    """Whether each record touches another record of the same class.

    Two 4-adjacent cells touch when they hold different records of the same
    class. Generated worlds and the insertion sampler both keep a one-cell
    gap between same-class instances, so contact only ever comes from
    corrupted layouts.
    """
    grid = instances.instance_grid
    records = instances.records
    if not records:
        return {}
    # Class per grid value, indexed by id + 1; background maps to -1.
    class_of = np.full(max(r.instance_id for r in records) + 2, -1, dtype=np.int64)
    class_of[[r.instance_id + 1 for r in records]] = [int(r.class_id) for r in records]
    classes = class_of[grid + 1]
    touched = np.zeros(class_of.size, dtype=bool)
    for a, b, ca, cb in (
        (grid[:, :-1], grid[:, 1:], classes[:, :-1], classes[:, 1:]),
        (grid[:-1], grid[1:], classes[:-1], classes[1:]),
    ):
        hit = (a != b) & (ca == cb) & (ca >= 0)
        touched[a[hit] + 1] = True
        touched[b[hit] + 1] = True
    return {r.instance_id: bool(touched[r.instance_id + 1]) for r in records}


# ---------------------------------------------------------------------------
# Where prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WherePredictor:
    """Per-class placement histogram over (context, position, scale) bins.

    counts holds raw observations; probs adds additive smoothing over
    observed bins and their position-adjacent neighbors, normalized to sum
    to 1 per fitted class.
    """

    alpha: float
    counts: np.ndarray  # (N_CLASSES, N_CTX_BINS, POS_BINS*POS_BINS, N_SCALE_BINS)
    probs: np.ndarray  # same shape, normalized per fitted class
    fitted: np.ndarray  # (N_CLASSES,) bool

    def __post_init__(self) -> None:
        shape = (N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS)
        for name in ("counts", "probs"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if arr.shape != shape:
                raise FittingError(f"{name} must have shape {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        fitted = np.ascontiguousarray(np.asarray(self.fitted, dtype=bool))
        fitted.setflags(write=False)
        object.__setattr__(self, "fitted", fitted)
        for c in range(N_CLASSES):
            if fitted[c]:
                total = self.probs[c].sum()
                if abs(total - 1.0) > 1e-9:
                    raise FittingError(f"class {c} probabilities sum to {total}")

    def class_counts(self) -> np.ndarray:
        return self.counts.sum(axis=(1, 2, 3))

    def sample_bin(self, class_id: int, rng: np.random.Generator) -> tuple[int, int, int, int]:
        """Draw (ctx, pos_y, pos_x, scale) for a class; class must be fitted."""
        if not self.fitted[class_id]:
            raise FittingError(f"where-predictor not fitted for class {class_id}")
        flat = self.probs[class_id].ravel()
        idx = int(np.searchsorted(np.cumsum(flat), rng.random(), side="right"))
        idx = min(idx, flat.size - 1)
        ctx, pos, scale = np.unravel_index(idx, self.probs[class_id].shape)
        return int(ctx), int(pos) // POS_BINS, int(pos) % POS_BINS, int(scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WherePredictor):
            return NotImplemented
        return (
            self.alpha == other.alpha
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.probs, other.probs)
            and np.array_equal(self.fitted, other.fitted)
        )

    def _state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "alpha": np.array([self.alpha]),
            "counts": self.counts,
            "probs": self.probs,
            "fitted": self.fitted.astype(np.uint8),
        }

    @classmethod
    def _from_state(cls, arrays: dict[str, np.ndarray]) -> "WherePredictor":
        return cls(
            alpha=float(arrays["alpha"][0]),
            counts=arrays["counts"],
            probs=arrays["probs"],
            fitted=arrays["fitted"].astype(bool),
        )


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


def fit_where(layouts: Sequence[Layout], alpha: float = 0.5) -> WherePredictor:
    """Fit placement histograms from the instances observed in real layouts."""
    if not layouts:
        raise FittingError("fit_where needs at least one layout")
    counts = np.zeros((N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS))
    n_instances = 0
    for semantic, instances in layouts:
        depth = _depth_map(semantic.classes)
        ctx_map = _ctx_bin_from_depth(depth)
        h, w = semantic.classes.shape
        for rec, _, ys, xs, _ in _instance_cells(instances):
            r, c = int(round(ys.mean())), int(round(xs.mean()))
            py, px = _pos_bins(np.array([r]), np.array([c]), h, w)
            sbin = scale_bin_of(rec.bbox[2], rec.bbox[3])
            counts[rec.class_id, ctx_map[r, c], py[0] * POS_BINS + px[0], sbin] += 1
            n_instances += 1
    if n_instances == 0:
        raise FittingError("no instances found in the provided layouts")
    probs = _smooth_and_normalize(counts, alpha)
    fitted = counts.sum(axis=(1, 2, 3)) > 0
    return WherePredictor(alpha=alpha, counts=counts, probs=probs, fitted=fitted)


# ---------------------------------------------------------------------------
# What prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class WhatPredictor:
    """Shape template library: per class and scale bin, harvested masks."""

    templates: tuple[tuple[int, int, np.ndarray], ...]  # (class, scale_bin, mask)

    def __post_init__(self) -> None:
        frozen = []
        for cls, sbin, mask in self.templates:
            m = np.ascontiguousarray(np.asarray(mask, dtype=bool))
            if not m.any():
                raise FittingError("empty template mask")
            _, n = ndimage.label(m, structure=_CONN4)
            if n != 1:
                raise FittingError("template mask must be a single component")
            m.setflags(write=False)
            frozen.append((int(cls), int(sbin), m))
        object.__setattr__(self, "templates", tuple(frozen))

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted({cls for cls, _, _ in self.templates}))

    def pick(
        self, class_id: int, scale_bin: int, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """A template for the class, preferring the requested scale bin."""
        for sbin in sorted(range(N_SCALE_BINS), key=lambda s: abs(s - scale_bin)):
            pool = [m for cls, sb, m in self.templates if cls == class_id and sb == sbin]
            if pool:
                return pool[int(rng.integers(len(pool)))]
        return None

    def max_dims(self, class_id: int) -> tuple[int, int]:
        """Largest observed (height, width) for a class; (0, 0) if unseen."""
        hs = [m.shape[0] for cls, _, m in self.templates if cls == class_id]
        ws = [m.shape[1] for cls, _, m in self.templates if cls == class_id]
        return (max(hs), max(ws)) if hs else (0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WhatPredictor):
            return NotImplemented
        if len(self.templates) != len(other.templates):
            return False
        return all(
            a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])
            for a, b in zip(self.templates, other.templates)
        )

    def _state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "meta": np.array(
                [[cls, sbin] for cls, sbin, _ in self.templates], dtype=np.int64
            ).reshape(len(self.templates), 2),
        }
        for i, (_, _, mask) in enumerate(self.templates):
            out[f"mask{i}"] = mask.astype(np.uint8)
        return out

    @classmethod
    def _from_state(cls, arrays: dict[str, np.ndarray]) -> "WhatPredictor":
        meta = arrays["meta"].reshape(-1, 2)
        templates = [
            (int(meta[i, 0]), int(meta[i, 1]), arrays[f"mask{i}"].astype(bool))
            for i in range(meta.shape[0])
        ]
        return cls(templates=tuple(templates))


def fit_what(layouts: Sequence[Layout]) -> WhatPredictor:
    """Harvest connected instance masks from real layouts as templates."""
    if not layouts:
        raise FittingError("fit_what needs at least one layout")
    templates = []
    seen: set[int] = set()
    for _, instances in layouts:
        for rec, box, _, _, connected in _instance_cells(instances):
            seen.add(int(rec.class_id))
            if not connected:
                continue  # fragmented masks make unusable templates
            crop = instances.instance_grid[box] == rec.instance_id
            sbin = scale_bin_of(crop.shape[1], crop.shape[0])
            templates.append((int(rec.class_id), sbin, crop))
    if not templates:
        raise FittingError("no instances found in the provided layouts")
    have = {cls for cls, _, _ in templates}
    missing = seen - have
    if missing:
        raise FittingError(f"no usable templates for classes {sorted(missing)}")
    return WhatPredictor(templates=tuple(templates))


# ---------------------------------------------------------------------------
# Candidates and insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentationCandidate:
    """A layout with newly inserted instances, awaiting or carrying a score."""

    semantic: SemanticMap
    instances: InstanceMap
    inserted: tuple[InstanceRecord, ...]
    source_sample_id: int
    score: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserted", tuple(self.inserted))
        known = set(self.instances.records)
        for rec in self.inserted:
            if rec not in known:
                raise DegenerateInputError("inserted record missing from instance map")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise DegenerateInputError(f"score {self.score} outside [0, 1]")


def _resize_mask(mask: np.ndarray, sy: float, sx: float) -> np.ndarray:
    """Nearest-neighbor upscale; factors >= 1 preserve 4-connectivity."""
    h, w = mask.shape
    nh, nw = max(1, int(round(h * sy))), max(1, int(round(w * sx)))
    rows = np.minimum((np.arange(nh) / sy).astype(int), h - 1)
    cols = np.minimum((np.arange(nw) / sx).astype(int), w - 1)
    return mask[np.ix_(rows, cols)]


def sample_insertion(
    where: WherePredictor,
    what: WhatPredictor,
    base: Layout,
    class_id: ClassId,
    seed: int,
    max_attempts: int = 8,
) -> Optional[AugmentationCandidate]:
    """Insert one instance of class_id into a copy of the base layout.

    Draws a (context, position, scale) bin, picks a matching anchor cell and
    template, applies a mild scale jitter, and writes the mask where it fits
    without touching existing instances (one-cell gap to same-class cells so
    components stay separable). Returns None if no attempt fits.
    """
    semantic, instances = base
    classes = semantic.classes
    h, w = classes.shape
    depth = _depth_map(classes)
    ctx_map = _ctx_bin_from_depth(depth)
    occupied = instances.instance_grid != BACKGROUND_ID
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & (2**63 - 1), int(class_id), 0xA06])
    )
    for _ in range(max_attempts):
        ctx, py, px, sbin = where.sample_bin(int(class_id), rng)
        template = what.pick(int(class_id), sbin, rng)
        if template is None:
            return None
        # Scale jitter capped by the largest real instance of the class, so
        # inserted sizes never leave the observed size distribution.
        max_h, max_w = what.max_dims(int(class_id))
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
        new_grid = instances.instance_grid.copy()
        new_id = instances.next_free_id()
        new_grid[ys, xs] = new_id
        record = InstanceRecord(
            instance_id=new_id,
            class_id=class_id,
            bbox=(int(xs.min()), int(ys.min()), mw, mh),
            affine=(float(left), float(top), sx, sy),
        )
        return AugmentationCandidate(
            semantic=SemanticMap(classes=new_classes),
            instances=InstanceMap(
                instance_grid=new_grid, records=instances.records + (record,)
            ),
            inserted=(record,),
            source_sample_id=0,
        )
    return None


# ---------------------------------------------------------------------------
# Plausibility scoring
# ---------------------------------------------------------------------------


def _mode_pool(classes: np.ndarray, factor: int) -> np.ndarray:
    """Majority class per factor x factor block, ties to the lowest id."""
    if factor == 1:
        return classes
    h, w = classes.shape
    ph, pw = -h % factor, -w % factor
    if ph or pw:
        classes = np.pad(classes, ((0, ph), (0, pw)), mode="edge")
    hh, ww = classes.shape[0] // factor, classes.shape[1] // factor
    blocks = classes.reshape(hh, factor, ww, factor).transpose(0, 2, 1, 3)
    keys = np.arange(hh * ww).reshape(hh, ww, 1, 1) * N_CLASSES + blocks
    votes = np.bincount(keys.ravel(), minlength=hh * ww * N_CLASSES)
    return votes.reshape(hh, ww, N_CLASSES).argmax(axis=2).astype(np.uint8)


def _adjacency_counts(classes: np.ndarray) -> np.ndarray:
    counts = np.zeros((N_CLASSES, N_CLASSES))
    pairs = [
        (classes[:, :-1].ravel(), classes[:, 1:].ravel()),
        (classes[:-1, :].ravel(), classes[1:, :].ravel()),
    ]
    for a, b in pairs:
        np.add.at(counts, (a, b), 1)
        np.add.at(counts, (b, a), 1)
    return counts


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
        for name in ("adjacency", "ctx_freq", "size_freq", "fill_freq"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
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


class _Components(NamedTuple):
    """Evidence keys of one instance at one pooling scale."""

    # Context of the mask's closest approach to the road (its maximum
    # depth), which keeps wide roadside blobs in the roadside bin even when
    # their far cells reach deep into the scenery.
    ctx_bin: int
    size_bin: int
    fill_bin: int
    n_components: int
    # Pooled classes of the mask's outside 4-neighbours, one array per
    # direction (down, up, right, left), each in row-major order of the
    # mask cell they neighbour.
    ring: tuple[np.ndarray, ...]


def _instance_components(
    pooled: np.ndarray, depth: np.ndarray, factor: int, cells: _Cells
) -> _Components:
    """One instance's evidence keys at one scale, computed on its bbox crop.

    The crop is the factor-aligned bbox any-pooled, plus one pooled cell of
    margin clipped to the grid, so every outside neighbour of the pooled
    mask lies inside it and every mask cell at the crop's edge sits on the
    grid's edge. Any-pooling maps 4-adjacent cells to the same or 4-adjacent
    blocks, so an instance connected at full resolution stays connected.
    """
    box = cells.box
    y0, y1 = box[0].start // factor, (box[0].stop - 1) // factor + 1
    x0, x1 = box[1].start // factor, (box[1].stop - 1) // factor + 1
    h, w = pooled.shape
    top, bottom = max(y0 - 1, 0), min(y1 + 1, h)
    left, right = max(x0 - 1, 0), min(x1 + 1, w)
    mask = np.zeros((bottom - top, right - left), dtype=bool)
    mask[cells.ys // factor - top, cells.xs // factor - left] = True
    classes = pooled[top:bottom, left:right]
    out = ~mask
    ring = (
        classes[1:][mask[:-1] & out[1:]],
        classes[:-1][mask[1:] & out[:-1]],
        classes[:, 1:][mask[:, :-1] & out[:, 1:]],
        classes[:, :-1][mask[:, 1:] & out[:, :-1]],
    )
    bw, bh = x1 - x0, y1 - y0
    n_components = 1 if cells.connected else ndimage.label(mask, structure=_CONN4)[1]
    return _Components(
        ctx_bin=_ctx_bin_of(int(depth[top:bottom, left:right][mask].max())),
        size_bin=scale_bin_of(bw, bh),
        fill_bin=_fill_bin(mask.sum() / (bw * bh)),
        n_components=n_components,
        ring=ring,
    )


def _layout_scales(
    layout: Layout,
) -> Iterator[tuple[np.ndarray, list[tuple[InstanceRecord, _Components]]]]:
    """Per pool factor: the pooled class grid and each instance's components.

    Records without cells are left out. Instances are found once for all
    scales.
    """
    semantic, instances = layout
    cells = _instance_cells(instances)
    for factor in POOL_FACTORS:
        pooled = _mode_pool(semantic.classes, factor)
        depth = _depth_map(pooled)
        yield pooled, [
            (c.record, _instance_components(pooled, depth, factor, c)) for c in cells
        ]


def _component_values(
    stats: _ScaleStats, cls: int, comps: _Components
) -> tuple[float, float, float, float]:
    """(box, instance, affine, shape) evidence of one instance at one scale.

    The instance term is the mean adjacency evidence over the ring; a class
    without adjacency evidence scores 0 and an empty ring scores 1. Each
    direction is summed on its own and the four sums are added in ring
    order: float sums depend on their order, and the scores are pinned bit
    for bit.
    """
    box = float(stats.ctx_norm[cls, comps.ctx_bin])
    affine = float(stats.size_norm[cls, comps.size_bin])
    shape = float(stats.fill_norm[cls, comps.fill_bin]) * (
        1.0 if comps.n_components == 1 else 0.2
    )
    if not stats.adj_seen[cls]:
        return box, 0.0, affine, shape
    row = stats.adj_norm[cls]
    total, count = 0.0, 0
    for neighbours in comps.ring:
        total += float(row[neighbours].sum())
        count += neighbours.size
    return box, total / count if count else 1.0, affine, shape


def _fit_scale_stats(layouts: Sequence[Layout]) -> tuple[_ScaleStats, ...]:
    """Evidence tables at every pool factor, counted over the layouts."""
    n = len(POOL_FACTORS)
    adjacency = np.zeros((n, N_CLASSES, N_CLASSES))
    ctx_freq = np.zeros((n, N_CLASSES, N_CTX_BINS))
    size_freq = np.zeros((n, N_CLASSES, N_SCALE_BINS))
    fill_freq = np.zeros((n, N_CLASSES, N_FILL_BINS))
    for layout in layouts:
        for k, (pooled, instances) in enumerate(_layout_scales(layout)):
            adjacency[k] += _adjacency_counts(pooled)
            for rec, comps in instances:
                ctx_freq[k, rec.class_id, comps.ctx_bin] += 1
                size_freq[k, rec.class_id, comps.size_bin] += 1
                fill_freq[k, rec.class_id, comps.fill_bin] += 1
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

    Each instance is evaluated on its own bbox crop, pooled per scale, never
    on the full grid. One component function (_instance_components) yields
    the evidence keys that scoring, diagnostics_json and fitting all share,
    and the evidence tables are normalized once, when the scale stats are
    built.
    """

    scale_stats: tuple[_ScaleStats, ...]
    threshold: float
    weights: np.ndarray  # (4,) box, instance, affine, shape
    calibration: np.ndarray  # (2,) slope, intercept

    def __post_init__(self) -> None:
        if len(self.scale_stats) != len(POOL_FACTORS):
            raise FittingError(f"expected {len(POOL_FACTORS)} scale stats")
        if not 0.0 < self.threshold < 1.0:
            raise FittingError(f"threshold {self.threshold} outside (0, 1)")
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.shape != (4,) or (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
            raise FittingError("weights must be 4 nonnegative values summing to 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        calib = np.ascontiguousarray(np.asarray(self.calibration, dtype=np.float64))
        if calib.shape != (2,):
            raise FittingError("calibration must be (slope, intercept)")
        calib.setflags(write=False)
        object.__setattr__(self, "calibration", calib)
        object.__setattr__(self, "scale_stats", tuple(self.scale_stats))

    # -- scoring --

    def raw_score(self, layout: Layout) -> float:
        contacts = _contact_flags(layout[1])
        vals = []
        for stats, (pooled, instances) in zip(self.scale_stats, _layout_scales(layout)):
            if not instances:
                vals.append(_global_adjacency_score(stats, pooled))
                continue
            scores = []
            for rec, comps in instances:
                box, ring, affine, shape = _component_values(stats, int(rec.class_id), comps)
                value = float(self.weights @ np.array([box, ring, affine, shape]))
                # Hard gates: configurations real layouts never produce.
                if contacts[rec.instance_id]:
                    value *= 0.1
                if box == 0.0 or affine == 0.0:
                    value *= 0.3
                scores.append(value)
            vals.append(min(scores))
        return float(np.mean(vals))

    def score_layout(self, layout: Layout) -> float:
        slope, intercept = self.calibration
        mapped = slope * self.raw_score(layout) + intercept
        return float(min(max(mapped, 0.0), SCORE_CAP))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlausibilityScorer):
            return NotImplemented
        return (
            self.scale_stats == other.scale_stats
            and self.threshold == other.threshold
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.calibration, other.calibration)
        )

    def _state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "threshold": np.array([self.threshold]),
            "weights": self.weights,
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
            weights=arrays["weights"],
            calibration=arrays["calibration"],
        )


def score(scorer: PlausibilityScorer, candidate: AugmentationCandidate) -> AugmentationCandidate:
    """Score a candidate and return a copy carrying the score."""
    value = scorer.score_layout((candidate.semantic, candidate.instances))
    return replace(candidate, score=value)


def diagnostics_json(scorer: PlausibilityScorer, layouts: Sequence[Layout]) -> str:
    """Per-component score distributions over a set of layouts, as JSON."""
    import json

    names = ("box", "instance", "affine", "shape")
    collected: list[dict[str, list[float]]] = [{n: [] for n in names} for _ in POOL_FACTORS]
    for layout in layouts:
        for stats, values, (_, instances) in zip(
            scorer.scale_stats, collected, _layout_scales(layout)
        ):
            for rec, comps in instances:
                for n, v in zip(names, _component_values(stats, int(rec.class_id), comps)):
                    values[n].append(v)
    per_scale: list[dict] = []
    for factor, values in zip(POOL_FACTORS, collected):
        per_scale.append(
            {
                "pool_factor": factor,
                "components": {
                    n: {
                        "mean": float(np.mean(v)) if v else None,
                        "min": float(np.min(v)) if v else None,
                        "max": float(np.max(v)) if v else None,
                        "count": len(v),
                    }
                    for n, v in values.items()
                },
            }
        )
    payload = {
        "threshold": scorer.threshold,
        "weights": [float(w) for w in scorer.weights],
        "calibration": {"slope": float(scorer.calibration[0]), "intercept": float(scorer.calibration[1])},
        "scales": per_scale,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Corruption oracles (negatives for calibration and testing)
# ---------------------------------------------------------------------------


def _erase_record(classes: np.ndarray, grid: np.ndarray, mask: np.ndarray) -> None:
    """Remove a blob, backfilling with the commonest neighboring stuff class."""
    dilated = ndimage.binary_dilation(mask, structure=_CONN4)
    ring = dilated & ~mask
    ring_classes = classes[ring]
    stuff = ring_classes[~np.isin(ring_classes, THING_CLASSES)]
    fill = int(np.bincount(stuff, minlength=N_CLASSES).argmax()) if stuff.size else int(ClassId.ROAD)
    classes[mask] = fill
    grid[mask] = BACKGROUND_ID


def corrupt_relocate(layout: Layout, seed: int) -> Optional[Layout]:
    """Move one instance deep into the building/vegetation region."""
    semantic, instances = layout
    if not instances.records:
        return None
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 0xBAD1]))
    rec = instances.records[int(rng.integers(len(instances.records)))]
    mask = _record_mask(instances, rec)
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
        classes[ys, xs] = rec.class_id
        grid[ys, xs] = rec.instance_id
        new_rec = InstanceRecord(
            instance_id=rec.instance_id,
            class_id=rec.class_id,
            bbox=(int(xs.min()), int(ys.min()), int(mw), int(mh)),
            affine=(float(left), float(top), 1.0, 1.0),
        )
        records = tuple(
            new_rec if r.instance_id == rec.instance_id else r for r in instances.records
        )
        return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)
    return None


def corrupt_overlap(layout: Layout, seed: int) -> Optional[Layout]:
    """Duplicate one instance shifted by a cell: >50% footprint overlap.

    Only instances of 4+ cells qualify so a one-cell shift really does
    overlap most of the footprint.
    """
    semantic, instances = layout
    del seed  # selection is size-ordered, no randomness needed
    if not instances.records:
        return None
    sizes = {
        rec.instance_id: int(_record_mask(instances, rec).sum()) for rec in instances.records
    }
    order = sorted(
        range(len(instances.records)),
        key=lambda i: (-sizes[instances.records[i].instance_id], i),
    )
    h, w = semantic.classes.shape
    for idx in order:
        rec = instances.records[int(idx)]
        if sizes[rec.instance_id] < 4:
            continue
        mask = _record_mask(instances, rec)
        if not mask.any():
            continue
        for dy, dx in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            shifted = np.zeros_like(mask)
            ys, xs = np.nonzero(mask)
            ny, nx = ys + dy, xs + dx
            if ny.min() < 0 or nx.min() < 0 or ny.max() >= h or nx.max() >= w:
                continue
            other_cells = instances.instance_grid[ny, nx]
            if ((other_cells != BACKGROUND_ID) & (other_cells != rec.instance_id)).any():
                continue
            shifted[ny, nx] = True
            classes = semantic.classes.copy()
            grid = instances.instance_grid.copy()
            new_id = instances.next_free_id()
            classes[shifted] = rec.class_id
            grid[shifted] = new_id
            new_rec = InstanceRecord(
                instance_id=new_id,
                class_id=rec.class_id,
                bbox=(int(nx.min()), int(ny.min()), int(nx.max() - nx.min() + 1), int(ny.max() - ny.min() + 1)),
                affine=(float(nx.min()), float(ny.min()), 1.0, 1.0),
            )
            return (
                SemanticMap(classes=classes),
                InstanceMap(instance_grid=grid, records=instances.records + (new_rec,)),
            )
    return None


def corrupt_giant(layout: Layout, seed: int) -> Optional[Layout]:
    """Blow one instance up threefold: a size never seen in real layouts."""
    semantic, instances = layout
    if not instances.records:
        return None
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 0xBAD3]))
    order = rng.permutation(len(instances.records))
    h, w = semantic.classes.shape
    for idx in order:
        rec = instances.records[int(idx)]
        mask = _record_mask(instances, rec)
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
        classes[ys, xs] = rec.class_id
        grid[ys, xs] = rec.instance_id
        new_rec = InstanceRecord(
            instance_id=rec.instance_id,
            class_id=rec.class_id,
            bbox=(int(xs.min()), int(ys.min()), int(mw), int(mh)),
            affine=(float(left), float(top), 3.0, 3.0),
        )
        records = tuple(new_rec if r.instance_id == rec.instance_id else r for r in instances.records)
        return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)
    return None


def make_corruptions(layouts: Sequence[Layout], seed: int, per_kind: int = 4) -> list[Layout]:
    """A deterministic batch of implausible layouts derived from real ones."""
    kinds = (corrupt_relocate, corrupt_overlap, corrupt_giant)
    out: list[Layout] = []
    for k, corrupt in enumerate(kinds):
        made = 0
        for i, layout in enumerate(layouts):
            if made >= per_kind:
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


def fit_scorer(
    real_layouts: Sequence[Layout],
    threshold: float = 0.5,
    weights: Sequence[float] = (0.25, 0.25, 0.25, 0.25),
    margin: float = _CALIBRATION_MARGIN,
    seed: int = 0xD15C,
) -> PlausibilityScorer:
    """Fit evidence tables on real layouts and calibrate the score map.

    Calibration anchors an affine map so that the weakest real layout still
    clears the threshold while internally generated corruptions land below
    it, then verifies on a held-out real split: >=95% above threshold, every
    corruption below the real median, and a mean separation of at least 0.2.
    """
    if len(real_layouts) < 10:
        raise FittingError(f"fit_scorer needs >=10 layouts, got {len(real_layouts)}")
    if not 0.0 < threshold < 1.0:
        raise FittingError("threshold must lie strictly inside (0, 1)")
    n_fit = max(int(len(real_layouts) * 0.7), len(real_layouts) - 20)
    n_fit = min(n_fit, len(real_layouts) - 1)
    fit_split = list(real_layouts[:n_fit])
    holdout = list(real_layouts[n_fit:])
    stats = _fit_scale_stats(fit_split)
    probe = PlausibilityScorer(
        scale_stats=stats,
        threshold=threshold,
        weights=np.asarray(weights, dtype=np.float64),
        calibration=np.array([1.0, 0.0]),
    )
    raw_fit = np.array([probe.raw_score(layout) for layout in fit_split])
    raw_hold = np.array([probe.raw_score(layout) for layout in holdout])
    corruptions = make_corruptions(fit_split, seed)
    if not corruptions:
        raise FittingError("could not generate calibration corruptions")
    raw_bad = np.array([probe.raw_score(layout) for layout in corruptions])
    r_min, r_med = float(raw_fit.min()), float(np.median(raw_fit))
    c_hi = float(raw_bad.max())
    x_mid = (r_min + c_hi) / 2.0 if r_min > c_hi else (r_med + c_hi) / 2.0
    if r_med - x_mid <= 1e-9:
        raise FittingError("real and corrupted layouts are not separable")
    base_slope = margin / (r_med - x_mid)
    for factor in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        slope = base_slope * factor
        intercept = threshold - slope * x_mid
        scorer = PlausibilityScorer(
            scale_stats=stats,
            threshold=threshold,
            weights=np.asarray(weights, dtype=np.float64),
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
        if (bad_scores >= np.median(real_scores)).any():
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


def augment_semantic(
    sample: Union[DrivingSample, Layout],
    fan_out: int,
    where: WherePredictor,
    what: WhatPredictor,
    scorer: PlausibilityScorer,
    seed: int,
    threshold: Optional[float] = None,
    budget_factor: int = 16,
    source_sample_id: int = 0,
    stats_out: Optional[AugmentStats] = None,
) -> list[AugmentationCandidate]:
    """Produce up to fan_out accepted augmented layouts from one source.

    The source may be a DrivingSample or a bare (semantic, instances) layout.

    Repeatedly inserts a thing instance into the sample's layout and keeps
    candidates whose plausibility score reaches the acceptance threshold
    (the scorer's own threshold unless overridden). Stops when fan_out
    candidates are accepted or the attempt budget (budget_factor * fan_out)
    is exhausted; returning fewer than fan_out is a valid outcome.
    """
    if fan_out < 1:
        raise DegenerateInputError("fan_out must be >= 1")
    tau = scorer.threshold if threshold is None else float(threshold)
    if hasattr(sample, "semantic"):
        base: Layout = (sample.semantic, sample.instances)
    else:
        base = (sample[0], sample[1])
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 0xA76]))
    classes = [
        int(c)
        for c in THING_CLASSES
        if where.fitted[int(c)] and any(cls == int(c) for cls, _, _ in what.templates)
    ]
    if not classes:
        raise FittingError("predictors cover no thing classes")
    counts = where.class_counts()[classes]
    class_probs = counts / counts.sum()
    accepted: list[AugmentationCandidate] = []
    for _ in range(budget_factor * fan_out):
        if len(accepted) >= fan_out:
            break
        if stats_out is not None:
            stats_out.attempts += 1
        pick = int(np.searchsorted(np.cumsum(class_probs), rng.random(), side="right"))
        class_id = ClassId(classes[min(pick, len(classes) - 1)])
        attempt_seed = int(rng.integers(0, 2**63))
        candidate = sample_insertion(where, what, base, class_id, attempt_seed)
        if candidate is None:
            if stats_out is not None:
                stats_out.insertion_failures += 1
            continue
        candidate = replace(candidate, source_sample_id=source_sample_id)
        scored = score(scorer, candidate)
        if scored.score is not None and scored.score >= tau:
            accepted.append(scored)
            if stats_out is not None:
                stats_out.accepted += 1
        else:
            if stats_out is not None:
                stats_out.rejected_low_score += 1
    return accepted
