"""Tests for the qualitative table's plausibility scoring."""

import numpy as np
import pytest

from parl.baselines import baseline_color_jitter, qualitative_table
from parl.errors import FittingError


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
