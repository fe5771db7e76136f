"""Tests for the comparison arms: the qualitative table's scoring and remap check, and the crop."""

import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from parl import baselines
from parl.baselines import (
    AugmenterAxes,
    _is_coordinate_remap,
    _pixel_index,
    baseline_color_jitter,
    baseline_random_resized_crop,
    qualitative_table,
)
from parl.errors import FittingError
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    ClassId,
    InstanceMap,
    RECORD_DTYPE,
    Provenance,
    Scenario,
    SemanticMap,
)


class CountingScorer:
    """Delegates to a real scorer and records each batch of layouts it scores."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.batches = []

    def score_layout(self, layouts):
        self.batches.append(list(layouts))
        return self.scorer.score_layout(layouts)


def _tally(sources, outputs):
    """The axes of (source, output) pairs, each pair added on its own."""
    axes = AugmenterAxes()
    for source, output in zip(sources, outputs):
        axes.add(source, [output])
    return axes


def test_outputs_sharing_maps_are_scored_once(small_dataset, scorer):
    # Two jitters per source; a jitter keeps its source's map objects.
    sources = [s for s in small_dataset[:4] for _ in range(2)]
    outputs = [baseline_color_jitter(s, seed=k) for k, s in enumerate(sources)]
    counting = CountingScorer(scorer)
    row = qualitative_table({"color-jitter": _tally(sources, outputs)}, counting, {})["color-jitter"]
    [batch] = counting.batches
    assert len(batch) == 4
    assert len({(id(semantic), id(instances)) for semantic, instances in batch}) == 4
    expected = np.mean(scorer.score_layout([(o.semantic, o.instances) for o in outputs]))
    assert row["mean_score"] == round(float(expected), 6)


def test_all_arms_are_scored_in_one_batch(small_dataset, scorer):
    # Arms that share a layout score it once, in one batch for the table.
    sources = small_dataset[:3]
    jitters = [baseline_color_jitter(s, seed=k) for k, s in enumerate(sources)]
    crops = [baseline_random_resized_crop(s, seed=k) for k, s in enumerate(sources)]
    counting = CountingScorer(scorer)
    table = qualitative_table(
        {
            "jitter": _tally(sources, jitters),
            "crop": _tally(sources, crops),
            "same": _tally(sources, sources),
        },
        counting,
        {},
    )
    [batch] = counting.batches
    assert len(batch) == 6  # a jitter keeps its source's maps
    for name, outputs in (("jitter", jitters), ("crop", crops)):
        alone = scorer.score_layout([(o.semantic, o.instances) for o in outputs])
        assert table[name]["mean_score"] == round(float(np.mean(alone)), 6)


def test_known_scores_are_not_recomputed(small_dataset, scorer):
    samples = small_dataset[:3]
    known = list(scorer.score_layout([(s.semantic, s.instances) for s in samples]))
    counting = CountingScorer(scorer)
    table = qualitative_table(
        {"given": _tally(samples, samples)}, counting, known_scores={"given": known}
    )
    assert counting.batches == []
    assert table["given"]["mean_score"] == round(float(np.mean(known)), 6)


def test_known_scores_must_align_with_outputs(small_dataset, scorer):
    samples = small_dataset[:3]
    with pytest.raises(FittingError):
        qualitative_table(
            {"given": _tally(samples, samples)}, scorer, known_scores={"given": [0.5]}
        )


def test_axes_keep_no_output_pixels(small_dataset):
    source = small_dataset[0]
    outputs = [baseline_random_resized_crop(source, seed=k) for k in range(3)]
    assert all(o.scenario is not source.scenario for o in outputs)
    scenarios = [weakref.ref(o.scenario) for o in outputs]
    axes = AugmenterAxes()
    axes.add(source, outputs)
    layouts = [(o.semantic, o.instances) for o in outputs]
    del outputs
    assert [ref() for ref in scenarios] == [None] * 3
    assert axes.layouts == layouts
    assert axes.number == 3.0


def test_axes_check_pairs_until_one_adds_semantic_content(small_dataset, monkeypatch):
    checks, indexes = [], []

    def counted_check(source, output, index):
        checks.append(output)
        return _is_coordinate_remap(source, output, index)

    def counted_index(scenario):
        indexes.append(scenario)
        return _pixel_index(scenario)

    monkeypatch.setattr(baselines, "_is_coordinate_remap", counted_check)
    monkeypatch.setattr(baselines, "_pixel_index", counted_index)
    axes = AugmenterAxes()
    for k, source in enumerate(small_dataset[:3]):
        crop = baseline_random_resized_crop(source, seed=10 + k)
        relabeled = replace(source, semantic=small_dataset[5].semantic)
        axes.add(source, [crop, relabeled, baseline_color_jitter(source, seed=k)])
    assert axes.semantic is True and axes.instance is False
    assert axes.number == 3.0
    # The first source's crop is a remap and its relabeled copy is not; no
    # pair after that is checked, and the source's pixels are indexed once.
    assert len(checks) == 2 and checks[1].semantic is small_dataset[5].semantic
    assert indexes == [small_dataset[0].scenario]


def _remap_by_dict(source, output):
    """The per-pixel dict definition of _is_coordinate_remap, kept as its reference."""
    src_px = np.asarray(source.scenario.pixels)
    out_px = np.asarray(output.scenario.pixels)
    lookup = {}
    for r in range(src_px.shape[0]):
        for c in range(src_px.shape[1]):
            lookup.setdefault(src_px[r, c].tobytes(), (r, c))
    h, w = out_px.shape[:2]
    rows = np.empty((h, w), dtype=np.int64)
    cols = np.empty((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            hit = lookup.get(out_px[r, c].tobytes())
            if hit is None:
                return False
            rows[r, c], cols[r, c] = hit
    if not ((rows == rows[:, :1]).all() and (cols == cols[:1, :]).all()):
        return False
    row_idx, col_idx = rows[:, 0], cols[0, :]
    if (np.diff(row_idx) < 0).any() or (np.diff(col_idx) < 0).any():
        return False
    src_grid = np.asarray(source.semantic.classes)
    out_grid = np.asarray(output.semantic.classes)
    return bool(np.array_equal(src_grid[np.ix_(row_idx, col_idx)], out_grid))


def _with_pixels(sample, pixels, classes=None):
    semantic = sample.semantic if classes is None else SemanticMap(classes=classes)
    return replace(
        sample, scenario=Scenario(pixels=pixels, style=sample.scenario.style), semantic=semantic
    )


def test_remap_check_matches_dict_reference(small_dataset):
    pairs = []
    for k, source in enumerate(small_dataset[:6]):
        for seed in range(3):
            pairs.append((source, baseline_random_resized_crop(source, seed=100 * k + seed)))
            pairs.append((source, baseline_color_jitter(source, seed=100 * k + seed)))
        pairs.append((source, small_dataset[(k + 7) % len(small_dataset)]))
    verdicts = [_is_coordinate_remap(s, o, _pixel_index(s.scenario)) for s, o in pairs]
    assert verdicts == [_remap_by_dict(s, o) for s, o in pairs]
    assert any(verdicts) and not all(verdicts)


def test_remap_check_takes_first_occurrence_of_duplicate_pixels(small_dataset):
    # Columns 0 and 1 of the source hold the same pixels but other classes.
    source = small_dataset[0]
    pixels = source.scenario.pixels.copy()
    pixels[:, 1] = pixels[:, 0]
    classes = source.semantic.classes.copy()
    classes[:, 1] = (classes[:, 0] + 1) % N_CLASSES
    source = _with_pixels(source, pixels, classes)
    # Every output pixel of column 1 resolves to its first occurrence, in
    # column 0, so the output is a remap only if it carries column 0's
    # classes there; under the last occurrence it would be the reverse.
    first = classes.copy()
    first[:, 1] = classes[:, 0]
    assert _remap_by_dict(source, _with_pixels(source, pixels, first)) is True
    index = _pixel_index(source.scenario)
    assert _is_coordinate_remap(source, _with_pixels(source, pixels, first), index) is True
    assert _remap_by_dict(source, source) is False
    assert _is_coordinate_remap(source, source, index) is False


def test_remap_check_rejects_a_row_flip(small_dataset):
    source = small_dataset[1]
    flipped = _with_pixels(
        source, source.scenario.pixels[::-1].copy(), source.semantic.classes[::-1].copy()
    )
    assert _remap_by_dict(source, flipped) is False
    assert _is_coordinate_remap(source, flipped, _pixel_index(source.scenario)) is False


def _stand_in(pixels, classes):
    """What the remap check reads of a sample: its pixels and its class grid."""
    return SimpleNamespace(
        scenario=Scenario(pixels=pixels, style=0), semantic=SimpleNamespace(classes=classes)
    )


@st.composite
def remap_pairs(draw):
    """A small source and an output that is often a window resample of it.

    Channels take 0, -0.0, 0.5 and 1 only, so pixels repeat within a source
    (the first occurrence decides), clipped 0/1 values are common, and -0.0
    differs from 0 by its bytes alone. The output's row and column indices
    may be unsorted, its classes may be pulled through them or not, and one
    output pixel may have a zero's sign flipped.
    """
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    channel = st.sampled_from([0.0, -0.0, 0.5, 1.0])
    src_px = draw(arrays(np.float32, (h, w, 3), elements=channel))
    src_classes = draw(arrays(np.uint8, (h, w), elements=st.integers(0, 2)))
    oh, ow = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, h - 1), min_size=oh, max_size=oh))
        cols = draw(st.lists(st.integers(0, w - 1), min_size=ow, max_size=ow))
        if draw(st.booleans()):
            rows, cols = sorted(rows), sorted(cols)
        out_px = src_px[np.ix_(rows, cols)].copy()
        out_classes = src_classes[np.ix_(rows, cols)].copy()
        if draw(st.booleans()):
            out_classes = draw(arrays(np.uint8, (oh, ow), elements=st.integers(0, 2)))
    else:
        out_px = draw(arrays(np.float32, (oh, ow, 3), elements=channel))
        out_classes = draw(arrays(np.uint8, (oh, ow), elements=st.integers(0, 2)))
    if draw(st.booleans()):
        zeros = np.flatnonzero(out_px == 0.0)
        if zeros.size:
            flat = out_px.reshape(-1)
            at = zeros[draw(st.integers(0, zeros.size - 1))]
            flat[at] = -flat[at]
    return _stand_in(src_px, src_classes), _stand_in(out_px, out_classes)


@settings(max_examples=400, deadline=None)
@given(pair=remap_pairs())
def test_remap_check_matches_dict_reference_on_repeated_pixels(pair):
    source, output = pair
    want = _remap_by_dict(source, output)
    assert _is_coordinate_remap(source, output, _pixel_index(source.scenario)) is want


def _reference_crop(sample, seed):
    """The crop with each record rebuilt by its own full-grid scan, as it was."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), 0xCC]))
    classes = sample.semantic.classes
    h, w = classes.shape
    for _ in range(10):
        ch = max(16, int(round(h * rng.uniform(0.6, 1.0))))
        cw = max(16, int(round(w * rng.uniform(0.6, 1.0))))
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        if (classes[top : top + ch, left : left + cw] == ClassId.ROAD).any():
            break
    else:
        return sample
    if (ch, cw, top, left) == (h, w, 0, 0):
        return sample
    grid_idx = np.ix_(
        top + np.minimum((np.arange(h) * ch) // h, ch - 1),
        left + np.minimum((np.arange(w) * cw) // w, cw - 1),
    )
    new_grid = sample.instances.instance_grid[grid_idx]
    records = []
    source = sample.instances.records
    for inst_id, cls in zip(source["id"].tolist(), source["cls"].tolist()):
        ys, xs = np.nonzero(new_grid == inst_id)
        if ys.size == 0:
            continue
        bbox = (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))
        records.append((inst_id, cls, bbox, (float(bbox[0]), float(bbox[1]), w / cw, h / ch)))
    kept = {r[0] for r in records}
    new_grid = np.where(np.isin(new_grid, list(kept)) if kept else False, new_grid, -1)
    return replace(
        sample,
        scenario=Scenario(pixels=sample.scenario.pixels[grid_idx], style=sample.scenario.style),
        semantic=SemanticMap(classes=classes[grid_idx]),
        instances=InstanceMap(
            instance_grid=new_grid.astype(np.int32), records=np.array(records, dtype=RECORD_DTYPE)
        ),
        provenance=Provenance.AUGMENTED,
    )


def _jitter_out_of_place(sample, seed):
    """The jitter's pixels as they were made: one new array per step."""
    m = baselines._JITTER_MAGNITUDE
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & (2**63 - 1), baselines._JITTER_TAG])
    )
    scale = rng.uniform(1.0 - m, 1.0 + m, size=3)
    shift = rng.uniform(-m / 2.0, m / 2.0, size=3)
    pixels = np.clip(sample.scenario.pixels.astype(np.float64) * scale + shift, 0.0, 1.0)
    return pixels.astype(np.float32)


@given(
    index=st.integers(0, 17),
    seed=st.integers(0, 2**63 - 1),
    saturated=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=60)
def test_jitter_in_place_matches_the_out_of_place_expression(
    small_dataset, index, seed, saturated
):
    sample = small_dataset[index]
    if saturated:
        # Pixels at 0 and 1 put the clamp's edges on both sides.
        rng = np.random.default_rng(seed)
        pixels = sample.scenario.pixels.copy()
        pixels[rng.random(pixels.shape) < saturated] = 0.0
        pixels[rng.random(pixels.shape) < saturated] = 1.0
        sample = _with_pixels(sample, pixels)
    got = baseline_color_jitter(sample, seed).scenario.pixels
    want = _jitter_out_of_place(sample, seed)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _without_records(sample):
    grid = np.full(sample.instances.instance_grid.shape, BACKGROUND_ID, dtype=np.int32)
    return replace(sample, instances=InstanceMap(instance_grid=grid, records=[]))


def test_crop_matches_per_record_reference(small_dataset):
    samples = list(small_dataset) + [_without_records(small_dataset[0])]
    dropped = 0
    for k, sample in enumerate(samples):
        for seed in range(k, k + 4):
            got = baseline_random_resized_crop(sample, seed)
            want = _reference_crop(sample, seed)
            assert got.instances.records.tobytes() == want.instances.records.tobytes()
            for a, b in (
                (got.instances.instance_grid, want.instances.instance_grid),
                (got.semantic.classes, want.semantic.classes),
                (got.scenario.pixels, want.scenario.pixels),
            ):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert (got.label, got.task, got.provenance, got.scenario.style) == (
                want.label, want.task, want.provenance, want.scenario.style
            )
            dropped += len(sample.instances.records) - len(got.instances.records)
    assert dropped > 0  # some crops cut records out


@given(index=st.integers(0, 17), seed=st.integers(0, 2**63 - 1))
@settings(max_examples=60)
def test_crop_take_gathers_match_the_ix_reference(small_dataset, index, seed):
    got = baseline_random_resized_crop(small_dataset[index], seed)
    want = _reference_crop(small_dataset[index], seed)
    for a, b in (
        (got.instances.instance_grid, want.instances.instance_grid),
        (got.semantic.classes, want.semantic.classes),
        (got.scenario.pixels, want.scenario.pixels),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
