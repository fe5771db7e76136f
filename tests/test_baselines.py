"""Tests for the qualitative table: its plausibility scoring and its remap check."""

from dataclasses import replace

import numpy as np
import pytest

from parl.baselines import (
    _is_coordinate_remap,
    baseline_color_jitter,
    baseline_random_resized_crop,
    qualitative_table,
)
from parl.errors import FittingError
from parl.styles import N_CLASSES
from parl.world import Scenario, SemanticMap


class CountingScorer:
    """Delegates to a real scorer and counts the layouts it scores."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.calls = 0

    def score_layout(self, layout):
        self.calls += 1
        return self.scorer.score_layout(layout)


def test_outputs_sharing_maps_are_scored_once(small_dataset, scorer):
    # Two jitters per source; a jitter keeps its source's map objects.
    sources = [s for s in small_dataset[:4] for _ in range(2)]
    outputs = [baseline_color_jitter(s, seed=k) for k, s in enumerate(sources)]
    counting = CountingScorer(scorer)
    row = qualitative_table({"color-jitter": (sources, outputs)}, counting)["color-jitter"]
    assert counting.calls == 4
    expected = np.mean([scorer.score_layout((o.semantic, o.instances)) for o in outputs])
    assert row["mean_score"] == round(float(expected), 6)


def test_known_scores_are_not_recomputed(small_dataset, scorer):
    samples = small_dataset[:3]
    known = [scorer.score_layout((s.semantic, s.instances)) for s in samples]
    counting = CountingScorer(scorer)
    table = qualitative_table(
        {"given": (samples, samples)}, counting, known_scores={"given": known}
    )
    assert counting.calls == 0
    assert table["given"]["mean_score"] == round(float(np.mean(known)), 6)


def test_known_scores_must_align_with_outputs(small_dataset, scorer):
    samples = small_dataset[:3]
    with pytest.raises(FittingError):
        qualitative_table({"given": (samples, samples)}, scorer, known_scores={"given": [0.5]})


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
    verdicts = [_is_coordinate_remap(s, o) for s, o in pairs]
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
    assert _is_coordinate_remap(source, _with_pixels(source, pixels, first)) is True
    assert _remap_by_dict(source, source) is False
    assert _is_coordinate_remap(source, source) is False


def test_remap_check_rejects_a_row_flip(small_dataset):
    source = small_dataset[1]
    flipped = _with_pixels(
        source, source.scenario.pixels[::-1].copy(), source.semantic.classes[::-1].copy()
    )
    assert _remap_by_dict(source, flipped) is False
    assert _is_coordinate_remap(source, flipped) is False
