"""Property tests: the scorer's and the fits' vectorized kernels against their definitions.

The batched scorer is checked bit for bit against a reference copy of the
per-instance crop path it replaced, under the default weights and under
unequal ones patched in for them: the golden test pins only equal weights,
which cannot tell a reordered weighted sum from the right one. A batch must also give each
layout the same bits as scoring that layout alone. The batched fit_where
and fit_what are checked the same way against the per-layout fits they
replaced, and the fitting helpers against the numpy calls they replaced.
"""

import json
from bisect import bisect_right
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from parl import augment
from parl.augment import (
    FILL_BIN_EDGES,
    N_SCALE_BINS,
    POOL_FACTORS,
    POS_BINS,
    WherePredictor,
    WhatPredictor,
    _CTX_DEPTH_EDGES,
    _LAYOUT_CHUNK,
    _adjacency_counts,
    _ctx_bin_from_depth,
    _depth_map,
    _global_adjacency_score,
    _layout_instances,
    _mode_pool,
    _pos_bins,
    _segment_sums,
    N_CTX_BINS,
    diagnostics_json,
    fit_what,
    fit_where,
    scale_bin_of,
)
from parl.errors import FittingError
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    RECORD_DTYPE,
    SemanticMap,
    THING_CLASSES,
)

SETTINGS = settings(max_examples=200, deadline=None)


class _Rec(NamedTuple):
    """One row of a record table as Python values, for the per-record references."""

    instance_id: int
    class_id: int
    bbox: tuple
    affine: tuple


def _recs(table):
    return [
        _Rec(i, c, tuple(b), tuple(a))
        for i, c, b, a in zip(
            table["id"].tolist(), table["cls"].tolist(), table["bbox"].tolist(), table["affine"].tolist()
        )
    ]


@st.composite
def instance_maps(draw, shape=None):
    """Small grids of a few records; some records own no cells."""
    h, w = shape or (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=5))
    grid = draw(hnp.arrays(np.int32, (h, w), elements=st.sampled_from([BACKGROUND_ID] + ids)))
    records = []
    for i in ids:
        ys, xs = np.nonzero(grid == i)
        bbox = (
            (int(xs.min()), int(ys.min()), int(np.ptp(xs)) + 1, int(np.ptp(ys)) + 1)
            if ys.size
            else (0, 0, 1, 1)
        )
        records.append((i, draw(st.sampled_from(THING_CLASSES)), bbox, (0.0, 0.0, 1.0, 1.0)))
    return InstanceMap(instance_grid=grid, records=np.array(records, dtype=RECORD_DTYPE))


def class_grids(max_side=9):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1))
    )


def _brute_contacts(instances):
    """Per record id: a 4-neighbour cell holds another record of the same class."""
    grid = instances.instance_grid
    class_of = {r.instance_id: r.class_id for r in _recs(instances.records)}
    contacts = {r.instance_id: False for r in _recs(instances.records)}
    h, w = grid.shape
    for y in range(h):
        for x in range(w):
            for ny, nx in ((y + 1, x), (y, x + 1)):
                if ny >= h or nx >= w:
                    continue
                a, b = int(grid[y, x]), int(grid[ny, nx])
                if a != b and a != BACKGROUND_ID and b != BACKGROUND_ID and class_of[a] == class_of[b]:
                    contacts[a] = contacts[b] = True
    return contacts


@SETTINGS
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: st.lists(instance_maps(shape), min_size=1, max_size=4)
    )
)
def test_contact_flags_match_brute_force(maps):
    # Stacked layouts must not touch each other across their edges.
    inst = _layout_instances(maps)
    got = [(int(lay), i, bool(c)) for lay, i, c in zip(inst.layout, inst.ids.tolist(), inst.contact)]
    expected = []
    for lay, instances in enumerate(maps):
        contacts = _brute_contacts(instances)
        expected += [
            (lay, r.instance_id, contacts[r.instance_id])
            for r in _recs(instances.records)
            if (instances.instance_grid == r.instance_id).any()
        ]
    assert got == expected


@SETTINGS
@given(
    st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
        lambda shape: st.lists(instance_maps(shape), min_size=2, max_size=4)
    )
)
def test_stacked_instances_match_each_map_alone(maps):
    # One layout's bottom row lies next to the next layout's top row in the
    # stack; no instance may connect across that seam.
    inst = _layout_instances(maps)
    got = [
        (int(lay), i, int(n), tuple(box), bool(c))
        for lay, i, n, box, c in zip(inst.layout, inst.ids.tolist(), inst.counts, inst.box, inst.connected)
    ]
    expected = []
    for lay, instances in enumerate(maps):
        for r in _recs(instances.records):
            mask = instances.instance_grid == r.instance_id
            if mask.any():
                ys, xs = np.nonzero(mask)
                box = (ys.min(), ys.max(), xs.min(), xs.max())
                connected = ndimage.label(mask, structure=_CONN4)[1] == 1
                expected.append((lay, r.instance_id, int(mask.sum()), box, connected))
    assert got == expected


@SETTINGS
@given(class_grids())
def test_depth_map_matches_definition(classes):
    h, w = classes.shape
    depth = _depth_map(classes)
    assert depth.dtype == np.int32 and depth.shape == (h, w)
    for row in range(h):
        road = [c for c in range(w) if classes[row, c] in (ClassId.ROAD, ClassId.LANE_MARKING)]
        for col in range(w):
            if not road:
                want = -w
            elif road[0] <= col <= road[-1]:
                want = min(col - road[0], road[-1] - col) + 1
            else:
                want = -(road[0] - col if col < road[0] else col - road[-1])
            assert depth[row, col] == want


@SETTINGS
@given(class_grids(), st.sampled_from([2, 3, 4]))
def test_mode_pool_is_block_majority(classes, factor):
    h, w = classes.shape
    pooled = _mode_pool(classes[None], factor)[0]
    assert pooled.shape == (-(-h // factor), -(-w // factor))
    for by in range(pooled.shape[0]):
        for bx in range(pooled.shape[1]):
            # Blocks past the edge repeat the edge row and column.
            votes = np.zeros(N_CLASSES, dtype=int)
            for y in range(by * factor, (by + 1) * factor):
                for x in range(bx * factor, (bx + 1) * factor):
                    votes[classes[min(y, h - 1), min(x, w - 1)]] += 1
            assert pooled[by, bx] == int(np.flatnonzero(votes == votes.max())[0])


# ---------------------------------------------------------------------------
# Reference: the per-instance crop scorer, one instance and scale at a time
# ---------------------------------------------------------------------------

_CONN4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


class _Cells(NamedTuple):
    record: _Rec
    box: tuple
    ys: np.ndarray
    xs: np.ndarray
    connected: bool


def _instance_cells(instances):
    grid = instances.instance_grid
    boxes = ndimage.find_objects(grid + 1)
    out = []
    for rec in _recs(instances.records):
        i = rec.instance_id
        box = boxes[i] if 0 <= i < len(boxes) else None
        if box is None:
            continue
        mask = grid[box] == i
        ys, xs = np.nonzero(mask)
        connected = ndimage.label(mask, structure=_CONN4)[1] == 1
        out.append(_Cells(rec, box, ys + box[0].start, xs + box[1].start, connected))
    return out


class _Components(NamedTuple):
    ctx_bin: int
    size_bin: int
    fill_bin: int
    n_components: int
    ring: tuple


def _instance_components(pooled, depth, factor, cells):
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
    depth_max = int(depth[top:bottom, left:right][mask].max())
    return _Components(
        ctx_bin=N_CTX_BINS - 1 - bisect_right(_CTX_DEPTH_EDGES, depth_max),
        size_bin=scale_bin_of(bw, bh),
        fill_bin=bisect_right(FILL_BIN_EDGES, mask.sum() / (bw * bh)),
        n_components=n_components,
        ring=ring,
    )


def _reference_scales(layout):
    semantic, instances = layout
    cells = _instance_cells(instances)
    for factor in POOL_FACTORS:
        pooled = _mode_pool(semantic.classes[None], factor)[0]
        depth = _depth_map(pooled)
        yield pooled, [(c.record, _instance_components(pooled, depth, factor, c)) for c in cells]


def _reference_values(stats, cls, comps):
    box = float(stats.ctx_norm[cls, comps.ctx_bin])
    affine = float(stats.size_norm[cls, comps.size_bin])
    shape = float(stats.fill_norm[cls, comps.fill_bin]) * (1.0 if comps.n_components == 1 else 0.2)
    if not stats.adj_seen[cls]:
        return box, 0.0, affine, shape
    row = stats.adj_norm[cls]
    total, count = 0.0, 0
    for neighbours in comps.ring:
        total += float(row[neighbours].sum())
        count += neighbours.size
    return box, total / count if count else 1.0, affine, shape


# The scorer's component weights, as augment._SCORER_WEIGHTS holds them.
EQUAL_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


def _reference_raw_score(scorer, layout, weights=EQUAL_WEIGHTS):
    contacts = _brute_contacts(layout[1])
    vals = []
    for stats, (pooled, instances) in zip(scorer.scale_stats, _reference_scales(layout)):
        if not instances:
            vals.append(_global_adjacency_score(stats, pooled))
            continue
        scores = []
        for rec, comps in instances:
            box, ring, affine, shape = _reference_values(stats, int(rec.class_id), comps)
            value = float(np.array(weights) @ np.array([box, ring, affine, shape]))
            if contacts[rec.instance_id]:
                value *= 0.1
            if box == 0.0 or affine == 0.0:
                value *= 0.3
            scores.append(value)
        vals.append(min(scores))
    return float(np.mean(vals))


def _reference_diagnostics(scorer, layouts, weights=EQUAL_WEIGHTS):
    names = ("box", "instance", "affine", "shape")
    collected = [{n: [] for n in names} for _ in POOL_FACTORS]
    for layout in layouts:
        for stats, values, (_, instances) in zip(
            scorer.scale_stats, collected, _reference_scales(layout)
        ):
            for rec, comps in instances:
                for n, v in zip(names, _reference_values(stats, int(rec.class_id), comps)):
                    values[n].append(v)
    per_scale = [
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
        for factor, values in zip(POOL_FACTORS, collected)
    ]
    payload = {
        "threshold": scorer.threshold,
        "weights": [float(w) for w in weights],
        "calibration": {"slope": float(scorer.calibration[0]), "intercept": float(scorer.calibration[1])},
        "scales": per_scale,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The per-layout scorer against the reference
# ---------------------------------------------------------------------------

_STUFF = [c for c in range(N_CLASSES) if c not in THING_CLASSES and c != ClassId.ROAD]


@st.composite
def scored_layouts(draw, shapes=st.tuples(st.integers(16, 26), st.integers(16, 26)), kind="random"):
    """A road band on random stuff, with thing blobs that may touch, fragment or vanish.

    kind "empty" draws no records; "touching" adds two one-cell records of
    one class side by side, and "fragmented" one record of two cells a row
    apart.
    """
    h, w = draw(shapes)
    classes = draw(hnp.arrays(np.uint8, (h, w), elements=st.sampled_from(_STUFF)))
    lo = draw(st.integers(0, w - 1))
    classes[:, lo : draw(st.integers(lo + 1, w))] = ClassId.ROAD
    grid = np.full((h, w), BACKGROUND_ID, dtype=np.int32)
    ids = [] if kind == "empty" else draw(st.lists(st.integers(0, 40), max_size=7, unique=True))
    for i in ids:
        for _ in range(draw(st.integers(0, 2))):  # no blob: a record without cells
            y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            blob = draw(hnp.arrays(bool, (draw(st.integers(1, 6)), draw(st.integers(1, 12)))))
            ys, xs = np.nonzero(blob[: h - y, : w - x])
            grid[ys + y, xs + x] = i
    grid[:, lo] = BACKGROUND_ID  # keeps a road column
    special = {}
    if kind in ("touching", "fragmented"):
        y = draw(st.integers(0, h - 3))
        x = draw(st.sampled_from([x for x in range(w - 1) if lo not in (x, x + 1)]))
        cls = draw(st.sampled_from(THING_CLASSES))
        if kind == "touching":
            grid[y, x], grid[y, x + 1] = 50, 51
            special = {50: cls, 51: cls}
        else:
            grid[y, x] = grid[y + 2, x] = 52
            special = {52: cls}
    records = []
    for i in ids + list(special):
        cls = special[i] if i in special else draw(st.sampled_from(THING_CLASSES))
        ys, xs = np.nonzero(grid == i)
        classes[ys, xs] = cls
        bbox = (
            (int(xs.min()), int(ys.min()), int(np.ptp(xs)) + 1, int(np.ptp(ys)) + 1)
            if ys.size
            else (0, 0, 1, 1)
        )
        records.append((i, cls, bbox, (0.0, 0.0, 1.0, 1.0)))
    return SemanticMap(classes=classes), InstanceMap(
        instance_grid=grid, records=np.array(records, dtype=RECORD_DTYPE)
    )


WEIGHTS = [EQUAL_WEIGHTS, (0.1, 0.2, 0.3, 0.4)]


def _weighted(weights):
    """The scorer's component weights set to weights while the context lasts."""
    return mock.patch.object(augment, "_SCORER_WEIGHTS", np.array(weights))


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("weights", WEIGHTS)
@settings(max_examples=150, deadline=None)
@given(st.lists(scored_layouts(), min_size=1, max_size=3))
def test_raw_score_and_diagnostics_match_per_instance_reference(scorer, weights, batch):
    with _weighted(weights):
        got, diagnostics = scorer.raw_score(batch), diagnostics_json(scorer, batch)
    assert _hexes(got) == _hexes(_reference_raw_score(scorer, l, weights) for l in batch)
    assert diagnostics == _reference_diagnostics(scorer, batch, weights)


# Few shapes, so that batches hold same-shape groups; 16 x 21 is not a
# multiple of any pool factor but 1.
_BATCH_SHAPES = st.sampled_from([(16, 16), (16, 21), (23, 16)])


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        st.lists(scored_layouts(_BATCH_SHAPES), max_size=20),
        scored_layouts(_BATCH_SHAPES, kind="empty"),
        scored_layouts(_BATCH_SHAPES, kind="touching"),
        scored_layouts(_BATCH_SHAPES, kind="fragmented"),
    ).flatmap(lambda drawn: st.permutations(drawn[0] + list(drawn[1:])))
)
def test_batched_raw_score_matches_each_alone_and_reference(scorer, batch):
    got = scorer.raw_score(batch)
    assert got.dtype == np.float64 and got.shape == (len(batch),)
    alone = [scorer.raw_score([layout])[0] for layout in batch]
    assert _hexes(got) == _hexes(alone)
    assert _hexes(got) == _hexes(_reference_raw_score(scorer, l) for l in batch)


@pytest.mark.parametrize("weights", WEIGHTS)
def test_real_layouts_match_per_instance_reference(scorer, layouts, weights):
    with _weighted(weights):
        got, diagnostics = _hexes(scorer.raw_score(layouts)), diagnostics_json(scorer, layouts)
    assert got == _hexes(_reference_raw_score(scorer, layout, weights) for layout in layouts)
    assert diagnostics == _reference_diagnostics(scorer, layouts, weights)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 300), max_size=6).flatmap(
        lambda lengths: st.tuples(
            st.just(np.array(lengths, dtype=np.int64)),
            hnp.arrays(
                np.float64,
                sum(lengths),
                elements=st.floats(0.0, 1.0, allow_subnormal=False),
            ),
        )
    )
)
# One short run alone: numpy sums a lone zero-padded column in lanes.
@example(runs=(np.array([6]), np.full(6, 0.94855504)))
def test_segment_sums_match_ndarray_sum(runs):
    lengths, values = runs
    starts = np.cumsum(lengths) - lengths
    want = [values[a : a + n].copy().sum().hex() for a, n in zip(starts, lengths)]
    assert [v.hex() for v in _segment_sums(values, lengths)] == want


# ---------------------------------------------------------------------------
# Reference: the fits one layout at a time, and the calls they replaced
# ---------------------------------------------------------------------------


def _reference_fit_where(layouts):
    """fit_where listing each layout's instances alone, into np.add.at counts."""
    counts = np.zeros((N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS))
    n_instances = 0
    for semantic, instances in layouts:
        ctx_map = _ctx_bin_from_depth(_depth_map(semantic.classes))
        h, w = semantic.classes.shape
        inst = _layout_instances([instances])
        rows = np.rint(np.add.reduceat(inst.ys, inst.starts) / inst.counts).astype(np.intp)
        cols = np.rint(np.add.reduceat(inst.xs, inst.starts) / inst.counts).astype(np.intp)
        py, px = _pos_bins(rows, cols, h, w)
        sbins = np.array([scale_bin_of(w, h) for _, _, w, h in inst.bbox.tolist()], dtype=np.intp)
        np.add.at(counts, (inst.class_ids, ctx_map[rows, cols], py * POS_BINS + px, sbins), 1)
        n_instances += inst.ids.size
    if n_instances == 0:
        raise FittingError("no instances found in the provided layouts")
    return WherePredictor(counts=counts)


def _reference_fit_what(layouts):
    """fit_what listing each layout's instances alone."""
    templates = []
    seen = set()
    for _, instances in layouts:
        inst = _layout_instances([instances])
        for inst_id, cls, (y0, y1, x0, x1), connected in zip(
            inst.ids.tolist(), inst.class_ids.tolist(), inst.box, inst.connected
        ):
            seen.add(cls)
            if not connected:
                continue
            crop = instances.instance_grid[y0 : y1 + 1, x0 : x1 + 1] == inst_id
            templates.append((cls, crop))
    if not templates:
        raise FittingError("no instances found in the provided layouts")
    missing = seen - {cls for cls, _ in templates}
    if missing:
        raise FittingError(f"no usable templates for classes {sorted(missing)}")
    return WhatPredictor(templates=tuple(templates))


def _reference_adjacency_counts(classes):
    counts = np.zeros((N_CLASSES, N_CLASSES))
    for a, b in (
        (classes[:, :, :-1].ravel(), classes[:, :, 1:].ravel()),
        (classes[:, :-1, :].ravel(), classes[:, 1:, :].ravel()),
    ):
        np.add.at(counts, (a, b), 1)
        np.add.at(counts, (b, a), 1)
    return counts


def _reference_sample_bin(where, class_id, rng):
    """sample_bin with the class's cumulative sum taken on every draw."""
    flat = where.probs[class_id].ravel()
    idx = min(int(np.searchsorted(np.cumsum(flat), rng.random(), side="right")), flat.size - 1)
    ctx, pos, scale = np.unravel_index(idx, where.probs[class_id].shape)
    return int(ctx), int(pos) // POS_BINS, int(pos) % POS_BINS, int(scale)


def _outcome(fit, layouts):
    try:
        return fit(layouts)
    except FittingError as err:
        return f"FittingError: {err}"


def _bits(array):
    return array.dtype.str, array.shape, array.tobytes()


def _with_cellless_record(layout, instance_id=60):
    semantic, instances = layout
    record = np.array([(instance_id, ClassId.CAR, (0, 0, 1, 1), (0.0, 0.0, 1.0, 1.0))], RECORD_DTYPE)
    return semantic, InstanceMap(
        instance_grid=instances.instance_grid, records=np.concatenate([instances.records, record])
    )


# Mixed shapes, with a layout without instances, one with a fragmented
# instance and one with a record that owns no cell, in any order.
_FIT_BATCHES = st.tuples(
    st.lists(scored_layouts(_BATCH_SHAPES), max_size=12),
    scored_layouts(_BATCH_SHAPES, kind="empty"),
    scored_layouts(_BATCH_SHAPES, kind="fragmented"),
    scored_layouts(_BATCH_SHAPES).map(_with_cellless_record),
).flatmap(lambda drawn: st.permutations(drawn[0] + list(drawn[1:])))


@pytest.mark.parametrize("chunk", [2, _LAYOUT_CHUNK])
@settings(max_examples=60, deadline=None)
@given(batch=_FIT_BATCHES)
def test_batched_fits_match_per_layout_reference(chunk, batch):
    with mock.patch.object(augment, "_LAYOUT_CHUNK", chunk):
        where, what = _outcome(fit_where, batch), _outcome(fit_what, batch)
    want_where, want_what = _reference_fit_where(batch), _outcome(_reference_fit_what, batch)
    for name in ("counts", "probs", "fitted"):
        assert _bits(getattr(where, name)) == _bits(getattr(want_where, name))
    if isinstance(want_what, str):
        assert what == want_what
    else:
        assert [(c, _bits(m)) for c, m in what.templates] == [
            (c, _bits(m)) for c, m in want_what.templates
        ]


def test_batched_fits_match_per_layout_reference_on_real_layouts(layouts):
    assert fit_where(layouts) == _reference_fit_where(layouts)
    assert fit_what(layouts) == _reference_fit_what(layouts)


@SETTINGS
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)).flatmap(
        lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1))
    )
)
def test_adjacency_counts_match_add_at_reference(classes):
    assert _bits(_adjacency_counts(classes)) == _bits(_reference_adjacency_counts(classes))


_MEDIAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),  # ties and signed zeros
    st.floats(-1e300, 1e300, allow_nan=False),
)


@SETTINGS
@given(
    hnp.arrays(np.float64, st.integers(1, 12), elements=_MEDIAN_VALUES),
    st.booleans(),
)
@example(np.array([0.3]), False)
@example(np.array([0.1, 0.2]), False)
@example(np.array([0.5, 0.5, 0.5, 0.2]), False)
@example(np.array([0.1, 0.2, 0.3]), True)
@example(np.array([-0.0]), False)
@example(np.array([-0.0, -0.0]), False)
def test_median_matches_np_median(values, with_nan):
    if with_nan:
        values = np.append(values, np.nan)
    want = np.median(values)
    got = augment._median(values)
    assert type(got) is type(want)
    assert float(got).hex() == float(want).hex() or (np.isnan(got) and np.isnan(want))


def test_where_cumulative_rows_are_each_class_alone(predictors):
    where, _ = predictors
    for c in range(N_CLASSES):
        assert _bits(where._cumulative[c]) == _bits(np.cumsum(where.probs[c].ravel()))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sample_bin_matches_cumsum_per_call_reference(predictors, seed):
    where, _ = predictors
    fitted = np.flatnonzero(where.fitted)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(300):
        c = int(fitted[k % fitted.size])
        assert where.sample_bin(c, got_rng) == _reference_sample_bin(where, c, want_rng)
