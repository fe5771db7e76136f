"""The local arms: a robot's own perception, read from its RobotNode."""

import sys
from dataclasses import replace

import pytest

from parl import harness, styles
from parl.baselines import baseline_color_jitter
from parl.codec import encode_models
from parl.config import ExperimentConfig
from parl.errors import FittingError, ParlError
from parl.policy import featurize
from parl.protocol import NodeId, RobotNode, decode_message

CONFIG = ExperimentConfig()
RUN_CONFIG = ExperimentConfig(robots=2, samples_per_task=3)


def _fails(sample, style):
    try:
        featurize([sample], style)
    except ParlError:
        return True
    return False


@pytest.fixture(scope="module")
def robot(small_dataset):
    node = RobotNode(
        NodeId.robot(0), NodeId.cloud(), small_dataset[:12], small_dataset[12:], CONFIG
    )
    assert node.local_compute() is not None
    return node


@pytest.fixture(scope="module")
def roadless_jitters(robot, small_dataset):
    """Strong jitters of training samples that leave no road to segment."""
    found = []
    for seed in range(400):
        out = baseline_color_jitter(small_dataset[seed % 12], seed, magnitude=0.9)
        if _fails(out, robot.style):
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


def _one_at_a_time(robot, extra):
    rows = list(robot.local_rows)
    provenances = [s.provenance for s in robot.train_samples]
    for sample in extra:
        try:
            (feats,) = featurize([sample], robot.style)
        except ParlError:
            continue
        rows.append((feats, sample.label))
        provenances.append(sample.provenance)
    return rows, provenances


def _row_bytes(rows):
    return [(feats.values.tobytes(), label) for feats, label in rows]


@pytest.mark.parametrize("bad_at", [(), (0,), (4, 9)])
def test_train_local_arm_drops_exactly_the_extras_that_fail(
    robot, small_dataset, roadless_jitters, monkeypatch, bad_at
):
    extra = [baseline_color_jitter(s, seed=k) for k, s in enumerate(small_dataset[:8])]
    for at, bad in zip(bad_at, roadless_jitters):
        extra.insert(at, bad)
    calls = _train_calls(monkeypatch)
    model, _ = harness._train_local_arm(robot, CONFIG, extra)
    [(rows, provenances)] = calls
    want_rows, want_provenances = _one_at_a_time(robot, extra)
    assert len(rows) == len(robot.local_rows) + 8
    assert _row_bytes(rows) == _row_bytes(want_rows)
    assert provenances == want_provenances
    assert model.n_train == len(rows)


def test_local_compute_features_match_one_sample_at_a_time(robot, small_dataset):
    train, holdout = small_dataset[:12], small_dataset[12:]
    one_by_one = [featurize([s], robot.style)[0] for s in train]
    assert _row_bytes(robot.local_rows) == _row_bytes(
        [(f, s.label) for f, s in zip(one_by_one, train)]
    )
    assert robot.holdout_features == [featurize([s], robot.style)[0] for s in holdout]


def _patch_fit_style(monkeypatch, fail_style=None):
    """Counts fit_style calls in every parl module that binds it.

    Returns the style id of each call's samples, in call order; a call on
    samples of fail_style raises FittingError.
    """
    calls = []
    real = styles.fit_style

    def counting(samples, *args, **kwargs):
        style = samples[0].scenario.style
        calls.append(style)
        if style == fail_style:
            raise FittingError("injected fit failure")
        return real(samples, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "parl" and getattr(module, "fit_style", None) is real:
            monkeypatch.setattr(module, "fit_style", counting)
    return calls


@pytest.fixture(scope="module")
def counted_run(tmp_path_factory):
    """One run at RUN_CONFIG, with the fit_style calls it made."""
    out = tmp_path_factory.mktemp("run")
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _patch_fit_style(monkeypatch)
        harness.run_experiment(replace(RUN_CONFIG, output_dir=str(out)))
    return out, calls


def test_a_run_fits_each_robots_style_once(counted_run):
    _, calls = counted_run
    assert sorted(calls) == list(range(RUN_CONFIG.robots))


def test_local_models_are_the_uploaded_policies(counted_run):
    out, _ = counted_run
    for index in range(RUN_CONFIG.robots):
        key = harness.robot_key(index)
        upload = decode_message((out / "uploads" / f"{key}.bin").read_bytes()).body
        local = out / harness.ARM_MODEL_FILES[harness.ARM_LOCAL].format(key=key)
        assert local.read_bytes() == encode_models([upload.policy])


@pytest.mark.parametrize("robots,failing", [(2, 1), (1, 0)])
def test_failed_local_perception_is_a_local_train_failure(
    tmp_path, monkeypatch, robots, failing
):
    # With one robot the round itself fails too, for want of any upload.
    _patch_fit_style(monkeypatch, fail_style=failing)
    config = replace(RUN_CONFIG, robots=robots, output_dir=str(tmp_path))
    with pytest.raises(harness.StageFailure) as info:
        harness.run_experiment(config)
    assert (info.value.stage, info.value.node) == ("local-train", f"robot-{failing}")
    assert "injected fit failure" in str(info.value.cause)
