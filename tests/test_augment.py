"""Tests for placement/shape predictors, insertion, scoring, and corruption."""

import copy
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from parl.augment import (
    AugmentStats,
    AugmentationCandidate,
    N_CTX_BINS,
    N_SCALE_BINS,
    POOL_FACTORS,
    POS_BINS,
    SCORE_CAP,
    PlausibilityScorer,
    WherePredictor,
    _BUDGET_FACTOR,
    _insertion_base,
    _resize_mask,
    augment_semantic,
    corrupt_giant,
    corrupt_overlap,
    corrupt_relocate,
    diagnostics_json,
    fit_scorer,
    fit_what,
    fit_where,
    make_corruptions,
    sample_insertion,
    scale_bin_of,
)
from parl.codec import decode_models, encode_models
from parl.errors import DecodeError, DegenerateInputError, FittingError
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    RECORD_DTYPE,
    SemanticMap,
    THING_CLASSES,
)


def _row(instances, inst_id):
    """The record table's row for an id, as (id, class, bbox, affine) Python values."""
    [row] = instances.records[instances.records["id"] == inst_id].tolist()
    return row[0], row[1], tuple(row[2].tolist()), tuple(row[3].tolist())


def _rows(instances):
    return [_row(instances, i) for i in instances.records["id"].tolist()]


# ---------------------------------------------------------------------------
# Scale bins
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dims,expected",
    [((1, 1), 0), ((2, 2), 0), ((1, 2), 0), ((3, 1), 1), ((5, 5), 1), ((2, 6), 2), ((9, 9), 2)],
)
def test_scale_bin_thresholds(dims, expected):
    assert scale_bin_of(*dims) == expected


# ---------------------------------------------------------------------------
# Where predictor
# ---------------------------------------------------------------------------


def test_fit_where_counts_match_instances(layouts):
    where = fit_where(layouts)
    by_class = np.zeros(N_CLASSES)
    for _, instances in layouts:
        for inst_id, cls, _, _ in _rows(instances):
            if (instances.instance_grid == inst_id).any():
                by_class[cls] += 1
    assert np.array_equal(where.class_counts(), by_class)
    assert np.array_equal(where.fitted, by_class > 0)


def test_fit_where_probs_normalized(predictors):
    where, _ = predictors
    for c in range(N_CLASSES):
        total = where.probs[c].sum()
        if where.fitted[c]:
            assert total == pytest.approx(1.0, abs=1e-9)
        else:
            assert total == 0.0


def test_where_covers_thing_classes(predictors):
    where, _ = predictors
    for cls in THING_CLASSES:
        assert where.fitted[cls]


def test_sample_bin_in_range(predictors):
    where, _ = predictors
    rng = np.random.default_rng(3)
    for _ in range(50):
        ctx, py, px, sbin = where.sample_bin(int(ClassId.CAR), rng)
        assert 0 <= ctx < N_CTX_BINS
        assert 0 <= py < POS_BINS and 0 <= px < POS_BINS
        assert 0 <= sbin < N_SCALE_BINS


def test_sample_bin_unfitted_class_rejected(predictors):
    where, _ = predictors
    assert not where.fitted[ClassId.SKY]
    with pytest.raises(FittingError):
        where.sample_bin(int(ClassId.SKY), np.random.default_rng(0))


def test_fit_where_rejects_empty():
    with pytest.raises(FittingError):
        fit_where([])


def test_where_predictor_validates_shape():
    with pytest.raises(FittingError):
        WherePredictor(counts=np.zeros((2, 2)))


def test_where_predictor_derives_probs_and_fitted_from_counts(predictors):
    """A predictor stores its counts; what it samples from is derived from them at construction."""
    where, _ = predictors
    again = WherePredictor(counts=where.counts.copy())
    for name in ("probs", "fitted", "_cumulative"):
        assert getattr(again, name).tobytes() == getattr(where, name).tobytes()
        assert not getattr(again, name).flags.writeable
    assert again == where


def _encoded_state(model, arrays):
    """A model container holding model's record with its state arrays replaced."""
    bad = copy.copy(model)
    object.__setattr__(bad, "_state_arrays", lambda: arrays)
    return encode_models([bad])


# Tampered where-predictor state arrays: each passed validation written with
# comparisons that NaN passes.
_BAD_WHERE_STATES = {
    "nan-counts": lambda w: {"counts": np.where(w.counts > 0, np.nan, w.counts)},
    "negative-counts": lambda w: {"counts": np.where(w.counts > 0, -w.counts, w.counts)},
    "inf-counts": lambda w: {"counts": np.where(w.counts > 0, np.inf, w.counts)},
}


@pytest.mark.parametrize("case", sorted(_BAD_WHERE_STATES))
def test_where_predictor_rejects_nan_and_negative_state(predictors, case):
    where, _ = predictors
    arrays = {**where._state_arrays(), **_BAD_WHERE_STATES[case](where)}
    with pytest.raises(FittingError):
        WherePredictor._from_state(arrays)
    with pytest.raises(DecodeError):
        decode_models(_encoded_state(where, arrays))


# ---------------------------------------------------------------------------
# What predictor
# ---------------------------------------------------------------------------


def test_fit_what_templates_are_tight_and_connected(predictors):
    _, what = predictors
    assert what.templates
    for cls, mask in what.templates:
        assert cls in tuple(int(c) for c in THING_CLASSES)
        assert mask.any(axis=0).all() and mask.any(axis=1).all()  # tight crop


def test_what_pick_prefers_requested_scale(predictors):
    _, what = predictors
    rng = np.random.default_rng(7)
    available = {
        scale_bin_of(m.shape[1], m.shape[0]) for cls, m in what.templates if cls == int(ClassId.CAR)
    }
    for want in available:
        mask = what.pick(int(ClassId.CAR), want, rng)
        assert mask is not None
        assert scale_bin_of(mask.shape[1], mask.shape[0]) == want


def test_what_pick_unknown_class(predictors):
    _, what = predictors
    assert what.pick(int(ClassId.SKY), 0, np.random.default_rng(0)) is None
    assert what.max_dims(int(ClassId.SKY)) == (0, 0)


def _scan_pick(templates, class_id, scale_bin, rng):
    """WhatPredictor.pick as a scan of every template, kept as its reference."""
    for sbin in sorted(range(N_SCALE_BINS), key=lambda s: abs(s - scale_bin)):
        pool = [
            m
            for cls, m in templates
            if cls == class_id and scale_bin_of(m.shape[1], m.shape[0]) == sbin
        ]
        if pool:
            return pool[int(rng.integers(len(pool)))]
    return None


def test_what_index_matches_template_scan(predictors):
    _, what = predictors
    classes = sorted({cls for cls, _ in what.templates})
    assert what.classes() == tuple(classes)
    for cls in classes + [int(ClassId.SKY)]:
        hs = [m.shape[0] for c, m in what.templates if c == cls]
        ws = [m.shape[1] for c, m in what.templates if c == cls]
        assert what.max_dims(cls) == ((max(hs), max(ws)) if hs else (0, 0))
        for want in range(N_SCALE_BINS):
            indexed, scanned = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(6):
                assert what.pick(cls, want, indexed) is _scan_pick(what.templates, cls, want, scanned)


def test_what_max_dims_bound_templates(predictors):
    _, what = predictors
    for cls in what.classes():
        mh, mw = what.max_dims(cls)
        for tcls, mask in what.templates:
            if tcls == cls:
                assert mask.shape[0] <= mh and mask.shape[1] <= mw


def test_fit_what_rejects_empty():
    with pytest.raises(FittingError):
        fit_what([])


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------


def _first_insertion(where, what, base, class_id, seeds=range(40)):
    for seed in seeds:
        candidate = sample_insertion(where, what, _insertion_base(base), class_id, seed)
        if candidate is not None:
            return candidate
    pytest.fail(f"no insertion of class {class_id} succeeded")


@pytest.mark.parametrize("class_id", [ClassId.CAR, ClassId.PEDESTRIAN])
def test_insertion_writes_exactly_one_instance(layouts, predictors, class_id):
    where, what = predictors
    base = layouts[0]
    candidate = _first_insertion(where, what, base, class_id)
    assert len(candidate.inserted) == 1
    inst_id, cls, _, _ = _row(candidate.instances, candidate.inserted[0])
    assert cls == class_id
    assert len(candidate.instances.records) == len(base[1].records) + 1
    mask = candidate.instances.instance_grid == inst_id
    assert mask.any()
    # Inserted cells were free background; everything else is untouched.
    assert (base[1].instance_grid[mask] == BACKGROUND_ID).all()
    assert np.array_equal(
        candidate.instances.instance_grid[~mask], base[1].instance_grid[~mask]
    )
    assert (candidate.semantic.classes[mask] == class_id).all()
    assert np.array_equal(candidate.semantic.classes[~mask], base[0].classes[~mask])


def test_insertion_bbox_matches_mask(layouts, predictors):
    where, what = predictors
    candidate = _first_insertion(where, what, layouts[1], ClassId.CAR)
    inst_id, _, bbox, _ = _row(candidate.instances, candidate.inserted[0])
    ys, xs = np.nonzero(candidate.instances.instance_grid == inst_id)
    assert bbox == (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))


def test_insertion_keeps_separation_gap(layouts, predictors):
    where, what = predictors
    base = layouts[2]
    candidate = _first_insertion(where, what, base, ClassId.CAR)
    _, cls, (x, y, w, h), _ = _row(candidate.instances, candidate.inserted[0])
    grid_h, grid_w = base[0].classes.shape
    window = base[0].classes[
        max(y - 1, 0) : min(y + h + 1, grid_h), max(x - 1, 0) : min(x + w + 1, grid_w)
    ]
    assert not (window == cls).any()


def test_insertion_deterministic(layouts, predictors):
    where, what = predictors
    a = _first_insertion(where, what, layouts[0], ClassId.CAR, seeds=range(40))
    b = _first_insertion(where, what, layouts[0], ClassId.CAR, seeds=range(40))
    assert np.array_equal(a.semantic.classes, b.semantic.classes)
    assert np.array_equal(a.instances.instance_grid, b.instances.instance_grid)
    assert a.inserted.tolist() == b.inserted.tolist()


def test_candidate_requires_known_inserted_record(layouts):
    semantic, instances = layouts[0]
    foreign = int(instances.records["id"][0])
    stripped = instances.records[1:]

    grid = instances.instance_grid.copy()
    grid[grid == foreign] = BACKGROUND_ID
    smaller = InstanceMap(instance_grid=grid, records=stripped)
    with pytest.raises(DegenerateInputError, match=f"inserted id {foreign} missing"):
        AugmentationCandidate(
            semantic=semantic, instances=smaller, inserted=[foreign], source_sample_id=0
        )
    kept = AugmentationCandidate(
        semantic=semantic, instances=instances, inserted=[foreign], source_sample_id=0
    )
    assert kept.inserted.dtype == np.int64 and not kept.inserted.flags.writeable


def test_candidate_score_range_validated(layouts):
    semantic, instances = layouts[0]
    with pytest.raises(DegenerateInputError):
        AugmentationCandidate(
            semantic=semantic,
            instances=instances,
            inserted=(),
            source_sample_id=0,
            score=1.5,
        )


# ---------------------------------------------------------------------------
# Scorer calibration
# ---------------------------------------------------------------------------


def test_scorer_accepts_real_layouts(layouts, scorer):
    scores = scorer.score_layout(layouts)
    assert (scores >= 0.0).all() and (scores <= SCORE_CAP).all()
    assert (scores >= scorer.threshold).mean() >= 0.95


def test_scorer_separates_fresh_corruptions(layouts, scorer):
    # Corruptions regenerated with a seed the calibration never saw.
    real = scorer.score_layout(layouts)
    bad_layouts = make_corruptions(layouts, seed=777)
    assert bad_layouts
    bad = scorer.score_layout(bad_layouts)
    assert (bad < scorer.threshold).all()
    assert (bad < np.median(real)).all()
    assert real.mean() - bad.mean() >= 0.2


def test_scorer_deterministic(layouts):
    assert fit_scorer(layouts, 0.5, 0xD15C) == fit_scorer(layouts, 0.5, 0xD15C)


def test_fit_scorer_needs_ten_layouts(layouts):
    with pytest.raises(FittingError):
        fit_scorer(layouts[:9], 0.5, 0xD15C)


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1])
def test_fit_scorer_threshold_strictly_inside(layouts, threshold):
    with pytest.raises(FittingError):
        fit_scorer(layouts, threshold=threshold, seed=0xD15C)


def _with_cell(table, value):
    """A copy of table with its first cell set to value."""
    out = table.copy()
    out.reshape(-1)[0] = value
    return out


_BAD_SCORER_STATES = {
    "nan-calibration": lambda s: {"calibration": np.array([np.nan, 0.0])},
    "inf-calibration": lambda s: {"calibration": np.array([1.0, np.inf])},
    "negative-evidence": lambda s: {"ctx1": _with_cell(s.scale_stats[1].ctx_freq, -1.0)},
    "nan-evidence": lambda s: {"adj0": _with_cell(s.scale_stats[0].adjacency, np.nan)},
}


@pytest.mark.parametrize("case", sorted(_BAD_SCORER_STATES))
def test_scorer_rejects_nan_and_negative_state(scorer, case):
    arrays = {**scorer._state_arrays(), **_BAD_SCORER_STATES[case](scorer)}
    with pytest.raises(FittingError):
        PlausibilityScorer._from_state(arrays)
    with pytest.raises(DecodeError):
        decode_models(_encoded_state(scorer, arrays))


def test_score_attaches_value(layouts, predictors, scorer):
    where, what = predictors
    assert _first_insertion(where, what, layouts[0], ClassId.CAR).score is None
    scored, _ = augment_semantic(
        [layouts[0]], fan_out=2, where=where, what=what, scorer=scorer, seeds=[3], threshold=0.0
    )
    assert scored
    for candidate in scored:
        assert candidate.score is not None
        assert 0.0 <= candidate.score <= SCORE_CAP
        [value] = scorer.score_layout([(candidate.semantic, candidate.instances)])
        assert candidate.score == value


def _with_cellless_record(layout, instance_id):
    """The layout plus a record of the given id that owns no cell."""
    semantic, instances = layout
    extra = np.array([(instance_id, ClassId.CAR, (0, 0, 1, 1), (0.0, 0.0, 1.0, 1.0))], RECORD_DTYPE)
    return semantic, InstanceMap(
        instance_grid=instances.instance_grid, records=np.concatenate([instances.records, extra])
    )


@pytest.mark.parametrize("instance_id", [10**7, 2**32 - 1])
def test_large_cellless_id_scores_like_none_in_little_memory(layouts, scorer, instance_id):
    plain = layouts[2]
    large = _with_cellless_record(plain, instance_id)
    want = scorer.raw_score([plain])[0]
    tracemalloc.start()
    try:
        got = scorer.raw_score([large])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.hex() == want.hex()
    assert peak < 2 * 2**20


def test_insertion_past_the_int32_grid_raises(layouts, predictors, scorer):
    where, what = predictors
    base = _with_cellless_record(layouts[0], 2**31 - 1)
    with pytest.raises(DegenerateInputError):
        _insertion_base(base)
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            [layouts[1], base], fan_out=2, where=where, what=what, scorer=scorer, seeds=[0, 1],
            threshold=scorer.threshold,
        )


# ---------------------------------------------------------------------------
# Corruption oracles
# ---------------------------------------------------------------------------


def _layout_with_corruption(layouts, corrupt, seeds=range(20)):
    for layout in layouts:
        for seed in seeds:
            bad = corrupt(layout, seed)
            if bad is not None:
                return layout, bad
    pytest.fail(f"{corrupt.__name__} produced nothing")


def test_corrupt_relocate_moves_one_record(layouts):
    source, bad = _layout_with_corruption(layouts, corrupt_relocate)
    assert len(bad[1].records) == len(source[1].records)
    moved = [(a, b) for a, b in zip(_rows(source[1]), _rows(bad[1])) if a[2] != b[2]]
    assert len(moved) == 1
    old, new = moved[0]
    assert old[:2] == new[:2]
    # The blob now sits where the source layout had pure scenery.
    mask = bad[1].instance_grid == new[0]
    assert np.isin(source[0].classes[mask], (ClassId.BUILDING, ClassId.VEGETATION)).all()


def test_corrupt_overlap_adds_touching_duplicate(layouts):
    source, bad = _layout_with_corruption(layouts, corrupt_overlap)
    assert len(bad[1].records) == len(source[1].records) + 1
    new = _rows(bad[1])[-1]
    twin = next(
        r
        for r in _rows(source[1])
        if r[1] == new[1] and r[0] != new[0]
        and abs(r[2][0] - new[2][0]) + abs(r[2][1] - new[2][1]) == 1
    )
    new_mask = bad[1].instance_grid == new[0]
    twin_mask = bad[1].instance_grid == twin[0]
    grown = np.zeros_like(new_mask)
    ys, xs = np.nonzero(new_mask)
    h, w = new_mask.shape
    for dy, dx in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        ny, nx = ys + dy, xs + dx
        ok = (ny >= 0) & (ny < h) & (nx >= 0) & (nx < w)
        grown[ny[ok], nx[ok]] = True
    assert (grown & twin_mask).any()  # same-class contact, never seen in real data


def test_corrupt_giant_scales_threefold(layouts):
    source, bad = _layout_with_corruption(layouts, corrupt_giant)
    changed = [(a, b) for a, b in zip(_rows(source[1]), _rows(bad[1])) if a[2][2:] != b[2][2:]]
    assert len(changed) == 1
    old, new = changed[0]
    assert new[2][2] == 3 * old[2][2]
    assert new[2][3] == 3 * old[2][3]
    old_area = (source[1].instance_grid == old[0]).sum()
    new_area = (bad[1].instance_grid == new[0]).sum()
    assert new_area == 9 * old_area


def test_make_corruptions_deterministic(layouts):
    batch = make_corruptions(layouts, seed=5)
    again = make_corruptions(layouts, seed=5)
    assert 0 < len(batch) <= 12
    assert len(batch) == len(again)
    for (sa, ia), (sb, ib) in zip(batch, again):
        assert np.array_equal(sa.classes, sb.classes)
        assert np.array_equal(ia.instance_grid, ib.instance_grid)


# ---------------------------------------------------------------------------
# Augmentation loop
# ---------------------------------------------------------------------------


def test_augment_exact_fan_out_at_zero_threshold(layouts, predictors, scorer):
    where, what = predictors
    for i, layout in enumerate(layouts[:2]):
        out, _ = augment_semantic(
            [layout], fan_out=2, where=where, what=what, scorer=scorer, seeds=[i], threshold=0.0
        )
        assert len(out) == 2


def test_augment_threshold_one_rejects_everything(layouts, predictors, scorer):
    where, what = predictors
    out, stats = augment_semantic(
        [layouts[0]], fan_out=3, where=where, what=what, scorer=scorer, seeds=[9], threshold=1.0
    )
    assert out == []
    assert stats.accepted == 0
    assert stats.attempts == 16 * 3  # full budget spent
    assert stats.acceptance_rate() == 0.0


def test_augment_accepts_only_above_threshold(layouts, predictors, scorer, small_dataset):
    where, what = predictors
    sources = [(s.semantic, s.instances) for s in (small_dataset[4], small_dataset[0])]
    out, _ = augment_semantic(
        sources, fan_out=4, where=where, what=what, scorer=scorer, seeds=[20, 21],
        threshold=scorer.threshold,
    )
    assert out
    for candidate in out:
        assert candidate.score is not None and candidate.score >= scorer.threshold
        assert candidate.score <= SCORE_CAP
        assert len(candidate.inserted) == 1
        _, instances = sources[candidate.source_sample_id]
        assert len(candidate.instances.records) == len(instances.records) + 1


def test_augment_stats_accounting(layouts, predictors, scorer):
    where, what = predictors
    out, stats = augment_semantic(
        [layouts[5]], fan_out=3, where=where, what=what, scorer=scorer, seeds=[2],
        threshold=scorer.threshold,
    )
    assert stats.accepted == len(out)
    assert stats.attempts == stats.accepted + stats.rejected_low_score + stats.insertion_failures
    assert stats.attempts <= 16 * 3
    assert 0.0 <= stats.acceptance_rate() <= 1.0


def test_augment_rejects_bad_fan_out(layouts, predictors, scorer):
    where, what = predictors
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            [layouts[0]], fan_out=0, where=where, what=what, scorer=scorer, seeds=[0],
            threshold=scorer.threshold,
        )
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            layouts[:2], fan_out=1, where=where, what=what, scorer=scorer, seeds=[0],
            threshold=scorer.threshold,
        )


def test_augment_deterministic(layouts, predictors, scorer):
    where, what = predictors
    runs = [
        augment_semantic(
            [layouts[7]], fan_out=2, where=where, what=what, scorer=scorer, seeds=[6],
            threshold=scorer.threshold,
        )[0]
        for _ in range(2)
    ]
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(*runs):
        assert np.array_equal(a.semantic.classes, b.semantic.classes)
        assert a.score == b.score
        assert a.inserted.tolist() == b.inserted.tolist()


def _sequential_augment(sources, fan_out, where, what, scorer, seeds, threshold):
    """One source at a time, one score per candidate: the loop the waves replace."""
    classes = [
        int(c)
        for c in THING_CLASSES
        if where.fitted[int(c)] and any(cls == int(c) for cls, _ in what.templates)
    ]
    counts = where.class_counts()[classes]
    class_probs = counts / counts.sum()
    stats = AugmentStats()
    out = []
    for i, (source, seed) in enumerate(zip(sources, seeds)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 0xA76]))
        base = _insertion_base(source)
        accepted = 0
        for _ in range(_BUDGET_FACTOR * fan_out):
            if accepted >= fan_out:
                break
            stats.attempts += 1
            pick = int(np.searchsorted(np.cumsum(class_probs), rng.random(), side="right"))
            class_id = classes[min(pick, len(classes) - 1)]
            candidate = sample_insertion(where, what, base, class_id, int(rng.integers(0, 2**63)))
            if candidate is None:
                stats.insertion_failures += 1
                continue
            value = float(scorer.score_layout([(candidate.semantic, candidate.instances)])[0])
            if value >= threshold:
                out.append(replace(candidate, source_sample_id=i, score=value))
                accepted += 1
                stats.accepted += 1
            else:
                stats.rejected_low_score += 1
    return out, stats


def _fully_occupied(layout):
    """The layout under one instance that covers every cell: no insertion fits."""
    semantic, instances = layout
    h, w = instances.instance_grid.shape
    records = np.array([(0, ClassId.CAR, (0, 0, w, h), (0.0, 0.0, 1.0, 1.0))], RECORD_DTYPE)
    return semantic, InstanceMap(instance_grid=np.zeros((h, w), dtype=np.int32), records=records)


def _candidate_bytes(candidate):
    return (
        candidate.semantic.classes.tobytes(),
        candidate.instances.instance_grid.tobytes(),
        candidate.instances.records.tobytes(),
        candidate.inserted.tobytes(),
        candidate.source_sample_id,
        candidate.score.hex(),
    )


@pytest.mark.parametrize(
    "fan_out,threshold",
    [
        (2, 0.0),  # every candidate accepted
        (3, 1.0),  # every candidate rejected: each budget is spent
        (6, 0.6),  # one source spends its budget, the others reach fan_out
        (4, 0.6),  # sources finish in different waves, one on budget
    ],
)
def test_multi_source_augment_matches_sequential_reference(
    layouts, predictors, scorer, fan_out, threshold
):
    where, what = predictors
    # The fully occupied source fails every insertion.
    sources = [layouts[0], layouts[3], _fully_occupied(layouts[5]), layouts[8], layouts[11]]
    seeds = [5, 17, 3, 2**40 + 9, 88]
    got, stats = augment_semantic(
        sources, fan_out=fan_out, where=where, what=what, scorer=scorer, seeds=seeds,
        threshold=threshold,
    )
    want, want_stats = _sequential_augment(sources, fan_out, where, what, scorer, seeds, threshold)
    assert [_candidate_bytes(c) for c in got] == [_candidate_bytes(c) for c in want]
    assert stats == want_stats
    assert stats.insertion_failures >= _BUDGET_FACTOR * fan_out  # the occupied source
    assert 2 not in {c.source_sample_id for c in got}


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_json_shape(layouts, scorer):
    payload = json.loads(diagnostics_json(scorer, layouts))
    assert payload["threshold"] == scorer.threshold
    assert len(payload["weights"]) == 4
    assert {"slope", "intercept"} <= set(payload["calibration"])
    assert len(payload["scales"]) == len(POOL_FACTORS)
    for scale in payload["scales"]:
        for name in ("box", "instance", "affine", "shape"):
            component = scale["components"][name]
            assert component["count"] > 0
            assert 0.0 <= component["min"] <= component["max"] <= 1.0


@given(
    mask=arrays(bool, st.tuples(st.integers(1, 8), st.integers(1, 8))),
    sy=st.floats(0.1, 4.0),
    sx=st.floats(0.1, 4.0),
    transposed=st.booleans(),
)
@settings(max_examples=200)
def test_resize_mask_gathers_as_ix_does(mask, sy, sx, transposed):
    # A transposed mask is a strided view, as a template slice can be.
    mask = mask.T if transposed else mask
    h, w = mask.shape
    nh, nw = max(1, int(round(h * sy))), max(1, int(round(w * sx)))
    rows = np.minimum((np.arange(nh) / sy).astype(int), h - 1)
    cols = np.minimum((np.arange(nw) / sx).astype(int), w - 1)
    want = mask[np.ix_(rows, cols)]
    got = _resize_mask(mask, sy, sx)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
