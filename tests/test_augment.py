"""Tests for placement/shape predictors, insertion, scoring, and corruption."""

import copy
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    score,
)
from parl.codec import decode_models, encode_models
from parl.errors import DecodeError, DegenerateInputError, FittingError
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    InstanceRecord,
    SemanticMap,
    THING_CLASSES,
)


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
        for rec in instances.records:
            if (instances.instance_grid == rec.instance_id).any():
                by_class[rec.class_id] += 1
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
    shape = (N_CLASSES, N_CTX_BINS, POS_BINS * POS_BINS, N_SCALE_BINS)
    with pytest.raises(FittingError):
        WherePredictor(
            alpha=0.5,
            counts=np.zeros((2, 2)),
            probs=np.zeros(shape),
            fitted=np.zeros(N_CLASSES, dtype=bool),
        )
    bad_probs = np.zeros(shape)
    bad_probs[0, 0, 0, 0] = 0.5  # does not sum to 1 for a fitted class
    with pytest.raises(FittingError):
        WherePredictor(
            alpha=0.5,
            counts=np.ones(shape),
            probs=bad_probs,
            fitted=np.ones(N_CLASSES, dtype=bool),
        )


def _encoded_state(model, arrays):
    """A model container holding model's record with its state arrays replaced."""
    bad = copy.copy(model)
    object.__setattr__(bad, "_state_arrays", lambda: arrays)
    return encode_models([bad])


def _with_class_probs(where, values):
    """where.probs with its first fitted class's bins set to values, then zeros."""
    probs = where.probs.copy()
    c = int(np.flatnonzero(where.fitted)[0])
    probs[c] = 0.0
    probs[c].reshape(-1)[: len(values)] = values
    return probs


# Tampered where-predictor state arrays: each passed validation written with
# comparisons that NaN passes.
_BAD_WHERE_STATES = {
    "negative-probs": lambda w: {"probs": _with_class_probs(w, [-1.0, 2.0])},
    "nan-prob": lambda w: {"probs": _with_class_probs(w, [np.nan, 1.0])},
    "inf-probs": lambda w: {"probs": _with_class_probs(w, [np.inf, -np.inf, 1.0])},
    "nan-counts": lambda w: {"counts": np.where(w.counts > 0, np.nan, w.counts)},
    "negative-alpha": lambda w: {"alpha": np.array([-0.5])},
    "nan-alpha": lambda w: {"alpha": np.array([np.nan])},
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
    for cls, sbin, mask in what.templates:
        assert cls in tuple(int(c) for c in THING_CLASSES)
        assert 0 <= sbin < N_SCALE_BINS
        assert mask.any(axis=0).all() and mask.any(axis=1).all()  # tight crop
        assert sbin == scale_bin_of(mask.shape[1], mask.shape[0])


def test_what_pick_prefers_requested_scale(predictors):
    _, what = predictors
    rng = np.random.default_rng(7)
    available = {sbin for cls, sbin, _ in what.templates if cls == int(ClassId.CAR)}
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
        pool = [m for cls, sb, m in templates if cls == class_id and sb == sbin]
        if pool:
            return pool[int(rng.integers(len(pool)))]
    return None


def test_what_index_matches_template_scan(predictors):
    _, what = predictors
    classes = sorted({cls for cls, _, _ in what.templates})
    assert what.classes() == tuple(classes)
    for cls in classes + [int(ClassId.SKY)]:
        hs = [m.shape[0] for c, _, m in what.templates if c == cls]
        ws = [m.shape[1] for c, _, m in what.templates if c == cls]
        assert what.max_dims(cls) == ((max(hs), max(ws)) if hs else (0, 0))
        for want in range(N_SCALE_BINS):
            indexed, scanned = np.random.default_rng(3), np.random.default_rng(3)
            for _ in range(6):
                assert what.pick(cls, want, indexed) is _scan_pick(what.templates, cls, want, scanned)


def test_what_max_dims_bound_templates(predictors):
    _, what = predictors
    for cls in what.classes():
        mh, mw = what.max_dims(cls)
        for tcls, _, mask in what.templates:
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
        candidate = sample_insertion(where, what, base, class_id, seed)
        if candidate is not None:
            return candidate
    pytest.fail(f"no insertion of class {class_id} succeeded")


@pytest.mark.parametrize("class_id", [ClassId.CAR, ClassId.PEDESTRIAN])
def test_insertion_writes_exactly_one_instance(layouts, predictors, class_id):
    where, what = predictors
    base = layouts[0]
    candidate = _first_insertion(where, what, base, class_id)
    assert len(candidate.inserted) == 1
    rec = candidate.inserted[0]
    assert rec.class_id == class_id
    assert len(candidate.instances.records) == len(base[1].records) + 1
    mask = candidate.instances.instance_grid == rec.instance_id
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
    rec = candidate.inserted[0]
    ys, xs = np.nonzero(candidate.instances.instance_grid == rec.instance_id)
    assert rec.bbox == (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))


def test_insertion_keeps_separation_gap(layouts, predictors):
    where, what = predictors
    base = layouts[2]
    candidate = _first_insertion(where, what, base, ClassId.CAR)
    rec = candidate.inserted[0]
    x, y, w, h = rec.bbox
    grid_h, grid_w = base[0].classes.shape
    window = base[0].classes[
        max(y - 1, 0) : min(y + h + 1, grid_h), max(x - 1, 0) : min(x + w + 1, grid_w)
    ]
    assert not (window == rec.class_id).any()


def test_insertion_deterministic(layouts, predictors):
    where, what = predictors
    a = _first_insertion(where, what, layouts[0], ClassId.CAR, seeds=range(40))
    b = _first_insertion(where, what, layouts[0], ClassId.CAR, seeds=range(40))
    assert np.array_equal(a.semantic.classes, b.semantic.classes)
    assert np.array_equal(a.instances.instance_grid, b.instances.instance_grid)
    assert a.inserted == b.inserted


def test_candidate_requires_known_inserted_record(layouts):
    semantic, instances = layouts[0]
    foreign = instances.records[0]
    stripped = instances.records[1:]
    from parl.world import InstanceMap

    grid = instances.instance_grid.copy()
    grid[grid == foreign.instance_id] = BACKGROUND_ID
    smaller = InstanceMap(instance_grid=grid, records=stripped)
    with pytest.raises(DegenerateInputError):
        AugmentationCandidate(
            semantic=semantic, instances=smaller, inserted=(foreign,), source_sample_id=0
        )


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
    assert fit_scorer(layouts) == fit_scorer(layouts)


def test_fit_scorer_needs_ten_layouts(layouts):
    with pytest.raises(FittingError):
        fit_scorer(layouts[:9])


@pytest.mark.parametrize("threshold", [0.0, 1.0, -0.1])
def test_fit_scorer_threshold_strictly_inside(layouts, threshold):
    with pytest.raises(FittingError):
        fit_scorer(layouts, threshold=threshold)


def _with_cell(table, value):
    """A copy of table with its first cell set to value."""
    out = table.copy()
    out.reshape(-1)[0] = value
    return out


_BAD_SCORER_STATES = {
    "nan-weight": lambda s: {"weights": np.array([np.nan, 0.5, 0.25, 0.25])},
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
    candidate = _first_insertion(where, what, layouts[0], ClassId.CAR)
    assert candidate.score is None
    [scored] = score(scorer, [candidate])
    assert scored.score is not None
    assert 0.0 <= scored.score <= SCORE_CAP
    assert scored.score == scorer.score_layout([(scored.semantic, scored.instances)])[0]


def _with_cellless_record(layout, instance_id):
    """The layout plus a record of the given id that owns no cell."""
    semantic, instances = layout
    extra = InstanceRecord(instance_id, ClassId.CAR, (0, 0, 1, 1), (0.0, 0.0, 1.0, 1.0))
    return semantic, InstanceMap(
        instance_grid=instances.instance_grid, records=instances.records + (extra,)
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
        sample_insertion(where, what, base, ClassId.CAR, 0)
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            [layouts[1], base], fan_out=2, where=where, what=what, scorer=scorer, seeds=[0, 1]
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
    moved = [
        (a, b)
        for a, b in zip(source[1].records, bad[1].records)
        if a.bbox != b.bbox
    ]
    assert len(moved) == 1
    old, new = moved[0]
    assert old.instance_id == new.instance_id and old.class_id == new.class_id
    # The blob now sits where the source layout had pure scenery.
    mask = bad[1].instance_grid == new.instance_id
    assert np.isin(source[0].classes[mask], (ClassId.BUILDING, ClassId.VEGETATION)).all()


def test_corrupt_overlap_adds_touching_duplicate(layouts):
    source, bad = _layout_with_corruption(layouts, corrupt_overlap)
    assert len(bad[1].records) == len(source[1].records) + 1
    new = bad[1].records[-1]
    twin = next(
        r
        for r in source[1].records
        if r.class_id == new.class_id and r.instance_id != new.instance_id
        and abs(r.bbox[0] - new.bbox[0]) + abs(r.bbox[1] - new.bbox[1]) == 1
    )
    new_mask = bad[1].instance_grid == new.instance_id
    twin_mask = bad[1].instance_grid == twin.instance_id
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
    changed = [
        (a, b)
        for a, b in zip(source[1].records, bad[1].records)
        if a.bbox[2:] != b.bbox[2:]
    ]
    assert len(changed) == 1
    old, new = changed[0]
    assert new.bbox[2] == 3 * old.bbox[2]
    assert new.bbox[3] == 3 * old.bbox[3]
    old_area = (source[1].instance_grid == old.instance_id).sum()
    new_area = (bad[1].instance_grid == new.instance_id).sum()
    assert new_area == 9 * old_area


def test_make_corruptions_deterministic(layouts):
    batch = make_corruptions(layouts, seed=5, per_kind=2)
    again = make_corruptions(layouts, seed=5, per_kind=2)
    assert 0 < len(batch) <= 6
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
        out = augment_semantic(
            [layout], fan_out=2, where=where, what=what, scorer=scorer, seeds=[i], threshold=0.0
        )
        assert len(out) == 2


def test_augment_threshold_one_rejects_everything(layouts, predictors, scorer):
    where, what = predictors
    stats = AugmentStats()
    out = augment_semantic(
        [layouts[0]],
        fan_out=3,
        where=where,
        what=what,
        scorer=scorer,
        seeds=[9],
        threshold=1.0,
        stats_out=stats,
    )
    assert out == []
    assert stats.accepted == 0
    assert stats.attempts == 16 * 3  # full budget spent
    assert stats.acceptance_rate() == 0.0


def test_augment_accepts_only_above_threshold(layouts, predictors, scorer, small_dataset):
    where, what = predictors
    sources = [small_dataset[4], small_dataset[0]]
    out = augment_semantic(
        sources, fan_out=4, where=where, what=what, scorer=scorer, seeds=[20, 21]
    )
    assert out
    for candidate in out:
        assert candidate.score is not None and candidate.score >= scorer.threshold
        assert candidate.score <= SCORE_CAP
        assert len(candidate.inserted) == 1
        source = sources[candidate.source_sample_id]
        assert len(candidate.instances.records) == len(source.instances.records) + 1


def test_augment_sample_and_layout_agree(layouts, predictors, scorer, small_dataset):
    where, what = predictors
    sample = small_dataset[3]
    via_sample = augment_semantic(
        [sample], fan_out=2, where=where, what=what, scorer=scorer, seeds=[4], threshold=0.0
    )
    via_layout = augment_semantic(
        [(sample.semantic, sample.instances)],
        fan_out=2,
        where=where,
        what=what,
        scorer=scorer,
        seeds=[4],
        threshold=0.0,
    )
    assert len(via_sample) == len(via_layout)
    for a, b in zip(via_sample, via_layout):
        assert np.array_equal(a.semantic.classes, b.semantic.classes)
        assert a.score == b.score


def test_augment_stats_accounting(layouts, predictors, scorer):
    where, what = predictors
    stats = AugmentStats()
    out = augment_semantic(
        [layouts[5]], fan_out=3, where=where, what=what, scorer=scorer, seeds=[2], stats_out=stats
    )
    assert stats.accepted == len(out)
    assert stats.attempts == stats.accepted + stats.rejected_low_score + stats.insertion_failures
    assert stats.attempts <= 16 * 3
    assert 0.0 <= stats.acceptance_rate() <= 1.0


def test_augment_rejects_bad_fan_out(layouts, predictors, scorer):
    where, what = predictors
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            [layouts[0]], fan_out=0, where=where, what=what, scorer=scorer, seeds=[0]
        )
    with pytest.raises(DegenerateInputError):
        augment_semantic(
            layouts[:2], fan_out=1, where=where, what=what, scorer=scorer, seeds=[0]
        )


def test_augment_deterministic(layouts, predictors, scorer):
    where, what = predictors
    runs = [
        augment_semantic(
            [layouts[7]], fan_out=2, where=where, what=what, scorer=scorer, seeds=[6]
        )
        for _ in range(2)
    ]
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(*runs):
        assert np.array_equal(a.semantic.classes, b.semantic.classes)
        assert a.score == b.score
        assert a.inserted == b.inserted


def _sequential_augment(sources, fan_out, where, what, scorer, seeds, threshold, budget_factor):
    """One source at a time, one score per candidate: the loop the waves replace."""
    tau = scorer.threshold if threshold is None else threshold
    classes = [
        int(c)
        for c in THING_CLASSES
        if where.fitted[int(c)] and any(cls == int(c) for cls, _, _ in what.templates)
    ]
    counts = where.class_counts()[classes]
    class_probs = counts / counts.sum()
    stats = AugmentStats()
    out = []
    for i, (source, seed) in enumerate(zip(sources, seeds)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 0xA76]))
        accepted = 0
        for _ in range(budget_factor * fan_out):
            if accepted >= fan_out:
                break
            stats.attempts += 1
            pick = int(np.searchsorted(np.cumsum(class_probs), rng.random(), side="right"))
            class_id = ClassId(classes[min(pick, len(classes) - 1)])
            candidate = sample_insertion(where, what, source, class_id, int(rng.integers(0, 2**63)))
            if candidate is None:
                stats.insertion_failures += 1
                continue
            value = float(scorer.score_layout([(candidate.semantic, candidate.instances)])[0])
            if value >= tau:
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
    record = InstanceRecord(0, ClassId.CAR, (0, 0, w, h), (0.0, 0.0, 1.0, 1.0))
    return semantic, InstanceMap(instance_grid=np.zeros((h, w), dtype=np.int32), records=(record,))


def _candidate_bytes(candidate):
    return (
        candidate.semantic.classes.tobytes(),
        candidate.instances.instance_grid.tobytes(),
        candidate.instances.records,
        candidate.inserted,
        candidate.source_sample_id,
        candidate.score.hex(),
    )


@pytest.mark.parametrize(
    "fan_out,threshold,budget_factor",
    [
        (3, None, 16),  # the scorer's own threshold
        (2, 0.0, 16),  # every candidate accepted
        (3, 1.0, 2),  # every candidate rejected: each budget is spent
        (6, 0.6, 1),  # some accepted, but the budget cannot reach fan_out
        (4, 0.6, 2),  # sources finish in different waves, some on budget
    ],
)
def test_multi_source_augment_matches_sequential_reference(
    layouts, predictors, scorer, fan_out, threshold, budget_factor
):
    where, what = predictors
    # The fully occupied source fails every insertion.
    sources = [layouts[0], layouts[3], _fully_occupied(layouts[5]), layouts[8], layouts[11]]
    seeds = [5, 17, 3, 2**40 + 9, 88]
    stats = AugmentStats()
    got = augment_semantic(
        sources, fan_out=fan_out, where=where, what=what, scorer=scorer, seeds=seeds,
        threshold=threshold, budget_factor=budget_factor, stats_out=stats,
    )
    want, want_stats = _sequential_augment(
        sources, fan_out, where, what, scorer, seeds, threshold, budget_factor
    )
    assert [_candidate_bytes(c) for c in got] == [_candidate_bytes(c) for c in want]
    assert stats == want_stats
    assert stats.insertion_failures >= budget_factor * fan_out  # the occupied source
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
