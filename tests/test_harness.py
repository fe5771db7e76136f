"""The local arms, a robot's own perception read from its RobotNode, and the holdout scoring."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from parl import harness, styles
from parl.baselines import POOLED_STYLE_ID, baseline_color_jitter, pooled_style
from parl.augment import diagnostics_json
from parl.codec import encode_models, read_models
from parl.config import ExperimentConfig
from parl.errors import DegenerateInputError, FittingError, ParlError
from parl.policy import N_FEATURES, featurize
from parl.protocol import NodeId, RobotNode, decode_message
from parl.world import ClassId, Scenario

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
    node = RobotNode(NodeId.robot(0), NodeId.cloud(), small_dataset[:12], CONFIG)
    assert node.local_compute() is not None
    return node


@pytest.fixture(scope="module")
def roadless_jitters(robot, small_dataset):
    """Jitters of two training samples repainted as sky: no road to segment."""
    found = []
    for seed, sample in enumerate(small_dataset[:2]):
        out = baseline_color_jitter(sample, seed)
        sky = np.broadcast_to(robot.style.class_means[ClassId.SKY], out.scenario.pixels.shape)
        scenario = Scenario(pixels=sky.astype(np.float32), style=out.scenario.style)
        found.append(replace(out, scenario=scenario))
    assert all(_fails(out, robot.style) for out in found)
    return found


def _train_calls(monkeypatch):
    """Records the features, labels and provenances each harness.train call receives."""
    calls = []
    real = harness.train

    def recording(features, labels, **kwargs):
        calls.append((features, list(labels), list(kwargs["provenances"])))
        return real(features, labels, **kwargs)

    monkeypatch.setattr(harness, "train", recording)
    return calls


def _one_at_a_time(robot, extra):
    """The robot's training rows, then every extra that featurizes alone."""
    rows = list(robot.train_features)
    labels = [s.label for s in robot.train_samples]
    provenances = [s.provenance for s in robot.train_samples]
    for sample in extra:
        try:
            (feats,) = featurize([sample], robot.style)
        except ParlError:
            continue
        rows.append(feats)
        labels.append(sample.label)
        provenances.append(sample.provenance)
    return rows, labels, provenances


def _row_bytes(features):
    return [row.tobytes() for row in features]


@pytest.mark.parametrize("bad_at", [(), (0,), (4, 9)])
def test_train_local_arm_drops_exactly_the_extras_that_fail(
    robot, small_dataset, roadless_jitters, monkeypatch, bad_at
):
    extra = [baseline_color_jitter(s, seed=k) for k, s in enumerate(small_dataset[:8])]
    for at, bad in zip(bad_at, roadless_jitters):
        extra.insert(at, bad)
    calls = _train_calls(monkeypatch)
    model = harness._train_local_arm(robot, CONFIG, extra)
    [(features, labels, provenances)] = calls
    want_rows, want_labels, want_provenances = _one_at_a_time(robot, extra)
    assert features.shape == (len(robot.train_samples) + 8, N_FEATURES)
    assert _row_bytes(features) == _row_bytes(want_rows)
    assert labels == want_labels
    assert provenances == want_provenances
    assert model.n_train == len(labels)


def test_local_compute_features_match_one_sample_at_a_time(robot, small_dataset):
    train = small_dataset[:12]
    assert robot.train_samples == train
    assert robot.train_features.shape == (len(train), N_FEATURES)
    assert not robot.train_features.flags.writeable
    assert _row_bytes(robot.train_features) == [
        featurize([s], robot.style)[0].tobytes() for s in train
    ]


def _featurize_calls(monkeypatch, fail_on=None):
    """Records the (samples, style) of each harness.featurize call.

    A call on the samples and style of fail_on raises DegenerateInputError.
    """
    calls = []
    real = harness.featurize

    def recording(samples, style):
        calls.append((samples, style))
        if fail_on is not None and samples is fail_on[0] and style is fail_on[1]:
            raise DegenerateInputError("injected holdout failure")
        return real(samples, style)

    monkeypatch.setattr(harness, "featurize", recording)
    return calls


@pytest.fixture(scope="module")
def scoring_inputs(robot, small_dataset):
    """Two robots' holdouts, styles and models in every arm, and the pooled style."""
    holdout = {"robot-0": small_dataset[12:], "robot-1": small_dataset[6:12]}
    styles = {key: robot.style for key in holdout}
    central_style = pooled_style(small_dataset[:12])
    models = {
        arm: dict.fromkeys(holdout, robot.policy)
        for arm in (harness.ARM_LOCAL, harness.ARM_JITTER, harness.ARM_CENTRALIZED)
    }
    return models, holdout, styles, central_style


def test_score_arms_featurizes_each_robot_and_style_once(scoring_inputs, monkeypatch):
    models, holdout, styles, central_style = scoring_inputs
    calls = _featurize_calls(monkeypatch)
    arms = harness.score_arms(models, holdout, styles, central_style, CONFIG.fail_threshold)
    assert sorted(arms) == sorted(models)
    want = [(holdout[key], styles[key]) for key in holdout]
    want += [(holdout[key], central_style) for key in holdout]
    assert len(calls) == len(want)
    assert all(s is ws and st is wst for (s, st), (ws, wst) in zip(calls, want))


def test_score_arms_scores_each_holdout_sample_as_featurized_alone(
    scoring_inputs, monkeypatch
):
    models, holdout, styles, central_style = scoring_inputs
    scored = []
    real = harness.evaluate

    def recording(model, samples, features, fail_threshold):
        scored.append((samples, features))
        return real(model, samples, features, fail_threshold)

    monkeypatch.setattr(harness, "evaluate", recording)
    harness.score_arms(models, holdout, styles, central_style, CONFIG.fail_threshold)
    per_arm = iter(scored)
    for arm, robots in models.items():
        style_of = (lambda key: central_style) if arm == harness.ARM_CENTRALIZED else styles.get
        for key in robots:
            samples, features = next(per_arm)
            assert samples is holdout[key]
            assert features.shape == (len(samples), N_FEATURES)
            assert _row_bytes(features) == [
                featurize([s], style_of(key))[0].tobytes() for s in samples
            ]


@pytest.mark.parametrize(
    "central,key,stage",
    [
        (False, "robot-1", "local-eval"),
        (True, "robot-0", "centralized-eval"),
    ],
)
def test_failed_holdout_perception_names_the_eval_stage_and_robot(
    scoring_inputs, monkeypatch, central, key, stage
):
    models, holdout, styles, central_style = scoring_inputs
    _featurize_calls(monkeypatch, fail_on=(holdout[key], central_style if central else styles[key]))
    with pytest.raises(harness.StageFailure) as info:
        harness.score_arms(models, holdout, styles, central_style, CONFIG.fail_threshold)
    assert (info.value.stage, info.value.node) == (stage, key)
    assert "injected holdout failure" in str(info.value.cause)


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


def test_scorer_diagnostics_describe_the_uploaded_layouts(counted_run):
    """scorer_diagnostics.json scores the layouts the scorer was fitted on: the uploads."""
    out, _ = counted_run
    scorer = read_models(out / "models" / "predictors.dm1")[2]
    uploads = [
        decode_message((out / "uploads" / f"{harness.robot_key(i)}.bin").read_bytes()).body
        for i in range(RUN_CONFIG.robots)
    ]
    layouts = [layout for upload in uploads for layout in upload.layouts]
    text = (out / "scorer_diagnostics.json").read_text(encoding="utf-8")
    assert text == diagnostics_json(scorer, layouts) + "\n"


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


@pytest.mark.parametrize(
    "failing_call,stage,node",
    [(1, "centralized-train", "harness"), (3, "centralized-eval", "robot-1")],
)
def test_failed_pooled_perception_names_the_centralized_stage(
    tmp_path, monkeypatch, failing_call, stage, node
):
    # Under the pooled style, the run featurizes the pooled training samples
    # first, then each robot's holdout in robot order.
    real = harness.featurize
    pooled_calls = []

    def failing(samples, style):
        if style.style == POOLED_STYLE_ID:
            pooled_calls.append(samples)
            if len(pooled_calls) == failing_call:
                raise DegenerateInputError("injected featurize failure")
        return real(samples, style)

    monkeypatch.setattr(harness, "featurize", failing)
    with pytest.raises(harness.StageFailure) as info:
        harness.run_experiment(replace(RUN_CONFIG, output_dir=str(tmp_path)))
    assert (info.value.stage, info.value.node) == (stage, node)
    assert "injected featurize failure" in str(info.value.cause)


def _entry(error, rate, count=4):
    """A report.json entry of one task, as `policy.evaluate` gives it."""
    return {
        "per_task_error": {"turn": error},
        "per_task_failure_rate": {"turn": rate},
        "per_task_count": {"turn": count},
        "overall_error": error,
        "overall_failure_rate": rate,
        "fail_threshold": 0.05,
    }


@pytest.mark.parametrize(
    "arm,field,problem",
    [
        (harness.ARM_PARL, "overall_failure_rate", "robot-0: PARL failure rate nan not below"),
        (harness.ARM_LOCAL, "overall_failure_rate", "robot-0: PARL failure rate 0.0000 not below"),
        (harness.ARM_PARL, "overall_error", "PARL overall error nan above centralized"),
    ],
    ids=["nan-parl-rate", "nan-local-rate", "nan-parl-error"],
)
def test_check_acceptance_counts_nan_as_a_problem(arm, field, problem):
    report = {
        "arms": {
            harness.ARM_LOCAL: {"robot-0": _entry(0.2, 0.5)},
            harness.ARM_PARL: {"robot-0": _entry(0.05, 0.0)},
            harness.ARM_CENTRALIZED: {"robot-0": _entry(0.1, 0.25)},
        }
    }
    assert harness.check_acceptance(report) == []
    # A NaN, as a report.json written by hand may hold.
    report["arms"][arm]["robot-0"][field] = float("nan")
    [got] = harness.check_acceptance(report)
    assert got.startswith(problem)


def test_overall_pools_robots_in_robot_order_whatever_the_key_order():
    """report.json sorts keys as text (robot-10 before robot-2); the pooled bits must not move."""
    rng = np.random.default_rng(14)
    entries = {
        f"robot-{i}": _entry(*rng.random(2), count=int(rng.integers(1, 9))) for i in range(12)
    }
    rows = list(entries.values())
    counts = [row["per_task_count"]["turn"] for row in rows]

    def pooled(field, order):
        return sum(rows[i][field] * counts[i] for i in order) / sum(counts)

    text_order = sorted(range(12), key=str)
    # The summation order changes these sums, so the test can tell the orders apart.
    for field in ("overall_error", "overall_failure_rate"):
        assert pooled(field, text_order) != pooled(field, range(12))
    want = (pooled("overall_error", range(12)), pooled("overall_failure_rate", range(12)))
    assert harness.overall(entries) == want
    assert harness.overall(dict(sorted(entries.items()))) == want
