"""Property tests: the scorer's vectorized kernels against their definitions.

The per-layout scorer is checked bit for bit against a reference copy of the
per-instance crop path it replaced, under the default weights and under
unequal ones: the golden test pins only equal weights, which cannot tell a
reordered weighted sum from the right one.
"""

import json
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from parl.augment import (
    FILL_BIN_EDGES,
    POOL_FACTORS,
    PlausibilityScorer,
    _contact_flags,
    _CTX_DEPTH_EDGES,
    _depth_map,
    _global_adjacency_score,
    _mode_pool,
    _segment_sums,
    N_CTX_BINS,
    diagnostics_json,
    scale_bin_of,
)
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    InstanceRecord,
    SemanticMap,
    THING_CLASSES,
)

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def instance_maps(draw):
    """Small grids of a few records; some records own no cells."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
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
        records.append(InstanceRecord(i, draw(st.sampled_from(THING_CLASSES)), bbox, (0.0, 0.0, 1.0, 1.0)))
    return InstanceMap(instance_grid=grid, records=tuple(records))


def class_grids(max_side=9):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1))
    )


@SETTINGS
@given(instance_maps())
def test_contact_flags_match_brute_force(instances):
    grid = instances.instance_grid
    class_of = {r.instance_id: r.class_id for r in instances.records}
    expected = {r.instance_id: False for r in instances.records}
    h, w = grid.shape
    for y in range(h):
        for x in range(w):
            for ny, nx in ((y + 1, x), (y, x + 1)):
                if ny >= h or nx >= w:
                    continue
                a, b = int(grid[y, x]), int(grid[ny, nx])
                if a != b and a != BACKGROUND_ID and b != BACKGROUND_ID and class_of[a] == class_of[b]:
                    expected[a] = expected[b] = True
    assert _contact_flags(instances) == expected


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
    pooled = _mode_pool(classes, factor)
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
    record: InstanceRecord
    box: tuple
    ys: np.ndarray
    xs: np.ndarray
    connected: bool


def _instance_cells(instances):
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
        pooled = _mode_pool(semantic.classes, factor)
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


def _reference_raw_score(scorer, layout):
    contacts = _contact_flags(layout[1])
    vals = []
    for stats, (pooled, instances) in zip(scorer.scale_stats, _reference_scales(layout)):
        if not instances:
            vals.append(_global_adjacency_score(stats, pooled))
            continue
        scores = []
        for rec, comps in instances:
            box, ring, affine, shape = _reference_values(stats, int(rec.class_id), comps)
            value = float(scorer.weights @ np.array([box, ring, affine, shape]))
            if contacts[rec.instance_id]:
                value *= 0.1
            if box == 0.0 or affine == 0.0:
                value *= 0.3
            scores.append(value)
        vals.append(min(scores))
    return float(np.mean(vals))


def _reference_diagnostics(scorer, layouts):
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
        "weights": [float(w) for w in scorer.weights],
        "calibration": {"slope": float(scorer.calibration[0]), "intercept": float(scorer.calibration[1])},
        "scales": per_scale,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The per-layout scorer against the reference
# ---------------------------------------------------------------------------

_STUFF = [c for c in range(N_CLASSES) if c not in THING_CLASSES and c != ClassId.ROAD]


@st.composite
def scored_layouts(draw):
    """A road band on random stuff, with thing blobs that may touch, fragment or vanish."""
    h, w = draw(st.integers(16, 26)), draw(st.integers(16, 26))
    classes = draw(hnp.arrays(np.uint8, (h, w), elements=st.sampled_from(_STUFF)))
    lo = draw(st.integers(0, w - 1))
    classes[:, lo : draw(st.integers(lo + 1, w))] = ClassId.ROAD
    grid = np.full((h, w), BACKGROUND_ID, dtype=np.int32)
    ids = draw(st.lists(st.integers(0, 40), max_size=7, unique=True))
    for i in ids:
        for _ in range(draw(st.integers(0, 2))):  # no blob: a record without cells
            y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            blob = draw(hnp.arrays(bool, (draw(st.integers(1, 6)), draw(st.integers(1, 12)))))
            ys, xs = np.nonzero(blob[: h - y, : w - x])
            grid[ys + y, xs + x] = i
    grid[:, lo] = BACKGROUND_ID  # keeps a road column
    records = []
    for i in ids:
        cls = draw(st.sampled_from(THING_CLASSES))
        ys, xs = np.nonzero(grid == i)
        classes[ys, xs] = cls
        bbox = (
            (int(xs.min()), int(ys.min()), int(np.ptp(xs)) + 1, int(np.ptp(ys)) + 1)
            if ys.size
            else (0, 0, 1, 1)
        )
        records.append(InstanceRecord(i, cls, bbox, (0.0, 0.0, 1.0, 1.0)))
    return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=tuple(records))


WEIGHTS = [(0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)]


def _weighted(scorer, weights):
    return PlausibilityScorer(
        scale_stats=scorer.scale_stats,
        threshold=scorer.threshold,
        weights=np.array(weights),
        calibration=scorer.calibration,
    )


@pytest.mark.parametrize("weights", WEIGHTS)
@settings(max_examples=150, deadline=None)
@given(st.lists(scored_layouts(), min_size=1, max_size=3))
def test_raw_score_and_diagnostics_match_per_instance_reference(scorer, weights, batch):
    judge = _weighted(scorer, weights)
    for layout in batch:
        assert judge.raw_score(layout).hex() == _reference_raw_score(judge, layout).hex()
    assert diagnostics_json(judge, batch) == _reference_diagnostics(judge, batch)


@pytest.mark.parametrize("weights", WEIGHTS)
def test_real_layouts_match_per_instance_reference(scorer, layouts, weights):
    judge = _weighted(scorer, weights)
    got = [judge.raw_score(layout).hex() for layout in layouts]
    assert got == [_reference_raw_score(judge, layout).hex() for layout in layouts]
    assert diagnostics_json(judge, layouts) == _reference_diagnostics(judge, layouts)


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
def test_segment_sums_match_ndarray_sum(runs):
    lengths, values = runs
    starts = np.cumsum(lengths) - lengths
    want = [values[a : a + n].copy().sum().hex() for a, n in zip(starts, lengths)]
    assert [v.hex() for v in _segment_sums(values, lengths)] == want
