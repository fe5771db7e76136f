"""The local arms' featurization: shared splits and the augmented extras."""

import pytest

from parl import harness
from parl.baselines import baseline_color_jitter
from parl.config import ExperimentConfig
from parl.errors import ParlError
from parl.policy import featurize

CONFIG = ExperimentConfig()


def _fails(sample, style):
    try:
        featurize([sample], style)
    except ParlError:
        return True
    return False


@pytest.fixture(scope="module")
def splits(small_dataset):
    return harness._featurize_splits(small_dataset[:12], small_dataset[12:])


@pytest.fixture(scope="module")
def roadless_jitters(splits, small_dataset):
    """Strong jitters of training samples that leave no road to segment."""
    found = []
    for seed in range(400):
        out = baseline_color_jitter(small_dataset[seed % 12], seed, magnitude=0.9)
        if _fails(out, splits.style):
            found.append(out)
            if len(found) == 2:
                return found
    pytest.fail("no jitter erased the road")


def _train_calls(monkeypatch):
    """Records the rows and provenances each harness.train call receives."""
    calls = []
    real = harness.train

    def recording(rows, **kwargs):
        calls.append((list(rows), list(kwargs["provenances"])))
        return real(rows, **kwargs)

    monkeypatch.setattr(harness, "train", recording)
    return calls


def _one_at_a_time(splits, extra):
    rows, provenances = list(splits.train_rows), list(splits.provenances)
    for sample in extra:
        try:
            (feats,) = featurize([sample], splits.style)
        except ParlError:
            continue
        rows.append((feats, sample.label))
        provenances.append(sample.provenance)
    return rows, provenances


def _row_bytes(rows):
    return [(feats.values.tobytes(), label) for feats, label in rows]


@pytest.mark.parametrize("bad_at", [(), (0,), (4, 9)])
def test_train_local_arm_drops_exactly_the_extras_that_fail(
    splits, small_dataset, roadless_jitters, monkeypatch, bad_at
):
    extra = [baseline_color_jitter(s, seed=k) for k, s in enumerate(small_dataset[:8])]
    for at, bad in zip(bad_at, roadless_jitters):
        extra.insert(at, bad)
    calls = _train_calls(monkeypatch)
    model, _ = harness._train_local_arm(splits, CONFIG, extra)
    [(rows, provenances)] = calls
    want_rows, want_provenances = _one_at_a_time(splits, extra)
    assert len(rows) == len(splits.train_rows) + 8
    assert _row_bytes(rows) == _row_bytes(want_rows)
    assert provenances == want_provenances
    assert model.n_train == len(rows)


def test_featurize_splits_matches_one_sample_at_a_time(splits, small_dataset):
    train, holdout = small_dataset[:12], small_dataset[12:]
    one_by_one = [featurize([s], splits.style)[0] for s in train]
    assert _row_bytes(splits.train_rows) == _row_bytes(
        [(f, s.label) for f, s in zip(one_by_one, train)]
    )
    assert splits.provenances == [s.provenance for s in train]
    assert splits.holdout_features == [featurize([s], splits.style)[0] for s in holdout]
