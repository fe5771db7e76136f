"""End-to-end experiment runner: five arms on shared splits.

One run generates style-disjoint worlds for every robot, splits them per
task into train/holdout, and always trains all five arms on identical
splits:

- local: each robot alone on its own training split
- local+jitter / local+crop: local training data plus appearance-level
  augmentation (the comparison baselines)
- centralized: one model over all robots' raw data with pooled,
  non-adapted perception
- parl: the full round (upload, augment, crowdsource, train, fine-tune)

Every arm is scored on the same per-robot holdout sets, by one function,
`score_arms`: `run_experiment` calls it after the round with the models it
holds, and `rescore`, for `parl eval`, with the models it reads back. The
report stores split hashes so that can be audited. All artifacts
(datasets, models, predictors, candidates, reports) are persisted in
deterministic byte-exact formats, so identical configs reproduce identical
files.

A run's results are one plain JSON document, the one report.json holds:
`run_experiment` builds, writes and returns it; `overall` pools an arm's
entries in it, `check_acceptance` judges it and `render_markdown` renders
it, and each gives the same answer on the document read back from the file.

This module owns a run directory's files: `write_inputs` writes its inputs,
`models/styles.dm1` and each robot's `robot-N_{train,holdout}.ds1`, and
`rescore` reads them back with the models `run_experiment` wrote.

Perception runs once per (sample, style). Each robot's RobotNode fits its
style and featurizes its training split once, in the PARL round's local
compute; the policy it uploads is the local arm. The jitter and crop arms
train on the node's training features plus their own featurized extras.
The centralized arm trains under the pooled style. The holdout is the
experimenter's: `score_arms` alone featurizes it, once under each robot's
fitted style and once under the pooled style, as it scores the arms.

An appearance arm's augmented copies live only while the arm trains: each
(source, copy) pair is tallied into the qualitative table's axes as it is
made, and the tally keeps the copies' maps, not their pixels.

`run_round` returns only the uploads' wire bytes. The harness reads every
other result of the round from the nodes and the `SimNetwork` it creates:
the cloud's participants, candidates, fitted models, stats, pool, shared
models and acks, each robot's tuned policy and shared-model count, every
node's stage and violations, and the network's log.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import codec
from .augment import AugmentStats, diagnostics_json
from .baselines import (
    AugmenterAxes,
    baseline_color_jitter,
    baseline_random_resized_crop,
    pooled_style,
    qualitative_table,
)
from .config import OUTPUT_ROOT_ENV, ExperimentConfig, read_config, render_config
from .errors import ConfigurationError, DecodeError, ParlError
from .policy import PolicyModel, evaluate, featurize, train
from .protocol import CloudNode, NodeId, RobotNode, SimNetwork, run_round
from .styles import StyleModel, fit_style, styles_for_agents
from .world import AgentProfile, DrivingSample, Provenance, ScenarioGenerator, TaskType

ARM_LOCAL = "local"
ARM_JITTER = "local+jitter"
ARM_CROP = "local+crop"
ARM_CENTRALIZED = "centralized"
ARM_PARL = "parl"

# Per-robot samples of one split, keyed by robot index.
Splits = dict[int, list[DrivingSample]]

# Each per-robot arm's model file, relative to the run directory; {key} is
# the robot key.
ARM_MODEL_FILES = {
    ARM_LOCAL: "models/local_{key}.dm1",
    ARM_JITTER: "models/jitter_{key}.dm1",
    ARM_CROP: "models/crop_{key}.dm1",
    ARM_PARL: "models/parl_tuned_{key}.dm1",
}
# The centralized arm's one model file, relative to the run directory.
CENTRALIZED_MODEL_FILE = "models/centralized.dm1"


class StageFailure(ParlError):
    """A module error wrapped with the stage and node where it happened."""

    def __init__(self, stage: str, node: str, cause: Exception) -> None:
        super().__init__(f"stage {stage} failed at {node}: {cause}")
        self.stage = stage
        self.node = node
        self.cause = cause


def _stage(stage: str, node: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a module error wrapped as a StageFailure at node."""
    try:
        return fn(*args, **kwargs)
    except ParlError as exc:
        raise StageFailure(stage, node, exc) from exc


def agent_profiles(config: ExperimentConfig) -> dict[int, AgentProfile]:
    """Deterministic per-robot regimes; deliberately heterogeneous.

    Each robot gets its own avoidance margin and a strong turn-side prior
    that alternates across robots, so the robots are genuine data islands
    with complementary coverage: each sees mostly one turn direction
    locally, while the fleet as a whole covers both.
    """
    profiles = {}
    for i in range(config.robots):
        t = i / max(config.robots - 1, 1)
        profiles[i] = AgentProfile(
            curvature_range=(0.08, 0.18),
            avoid_gap=0.16 + 0.02 * t,
            turn_right_bias=0.1 if i % 2 == 0 else 0.9,
        )
    return profiles


def generate_worlds(config: ExperimentConfig) -> tuple[dict[int, StyleModel], Splits, Splits]:
    """Per-robot built-in styles and train/holdout splits, stratified per task."""
    styles = styles_for_agents(range(config.robots), seed=config.world_seed)
    generator = ScenarioGenerator(styles, agent_profiles(config))
    n = config.samples_per_task
    n_holdout = max(1, int(round(n * config.holdout_fraction)))
    if n_holdout >= n:
        n_holdout = n - 1
    train: Splits = {}
    holdout: Splits = {}
    for robot in range(config.robots):
        train[robot], holdout[robot] = [], []
        for t_idx, task in enumerate(TaskType):
            seeds = [
                config.world_seed * 1_000_003 + (robot * 3 + t_idx) * n + k
                for k in range(n)
            ]
            samples = generator.generate_dataset(robot, [task] * n, seeds)
            train[robot].extend(samples[: n - n_holdout])
            holdout[robot].extend(samples[n - n_holdout :])
    return styles, train, holdout


SPLITS = ("train", "holdout")


def robot_key(index: int) -> str:
    return f"robot-{index}"


def _split_path(run_dir: Path, robot: int, split: str) -> Path:
    return run_dir / f"{robot_key(robot)}_{split}.ds1"


def _make_dirs(out: Path, *names: str) -> None:
    """Create the named subdirectories of the output directory out, and out itself.

    A directory that cannot be created, as under an out that is a regular
    file, is a configuration error naming it.
    """
    for name in names:
        try:
            (out / name).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"output directory {out} is unusable: cannot create {exc.filename}: {exc.strerror}"
            ) from exc


def _read_run_file(path: Path, kind: str, read):
    """read(path); a file that cannot be read or decoded is a configuration error naming it."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {kind} file {path}: {exc.strerror}") from exc
    except DecodeError as exc:
        raise ConfigurationError(f"cannot decode {kind} file {path}: {exc}") from exc


def _read_policy(path: Path) -> PolicyModel:
    """The one policy a model file holds; any other content is a configuration error naming it."""
    items = _read_run_file(path, "model", codec.read_models)
    if len(items) != 1 or not isinstance(items[0], PolicyModel):
        kinds = ", ".join(type(item).__name__ for item in items) or "no record"
        raise ConfigurationError(f"model file {path} holds {kinds}, not one PolicyModel")
    return items[0]


def write_inputs(
    config: ExperimentConfig, out: Path
) -> tuple[Splits, Splits, dict[str, dict[str, str]]]:
    """Generate and write the styles and splits; return (train, holdout, split_hashes).

    Each split is encoded once. The returned split is decoded from those
    bytes (the dataset encoding quantizes floats to f32), so every number a
    run derives is recomputable from the files, and its hash is theirs.
    """
    # Imported here, not at module top: `parl eval` and `parl report` load
    # this module but hash nothing, and hashlib maps OpenSSL (about 3.5 MB).
    import hashlib

    _make_dirs(out, "models")
    styles, train, holdout = generate_worlds(config)
    codec.write_models(out / "models" / "styles.dm1", list(styles.values()))
    split_hashes: dict[str, dict[str, str]] = {}
    for robot in range(config.robots):
        hashes = split_hashes[robot_key(robot)] = {}
        for split, samples in zip(SPLITS, (train, holdout)):
            data = codec.write_dataset(_split_path(out, robot, split), samples[robot])
            samples[robot] = codec.decode_samples(data)
            hashes[split] = hashlib.sha256(data).hexdigest()
    return train, holdout, split_hashes


def read_inputs(run_dir: Path) -> tuple[ExperimentConfig, Splits, Splits]:
    """The config and per-robot train/holdout splits a run directory holds.

    A split file that cannot be read or decoded is a configuration error
    naming it.
    """
    config = read_config(run_dir / "config.txt")
    train, holdout = (
        {
            r: _read_run_file(_split_path(run_dir, r, split), "split", codec.read_dataset)
            for r in range(config.robots)
        }
        for split in SPLITS
    )
    return config, train, holdout


def overall(entries: dict[str, dict]) -> tuple[float, float]:
    """An arm's (error, failure rate) over every robot's holdout samples.

    entries is the arm's table of report.json entries by robot key. Each
    entry's overall numbers are weighted by its sample count and summed in
    robot order (robot-2 before robot-10), the order the run scored them,
    so a document read back from report.json, whose keys JSON sorts as
    text, gives the same bits as the one the run built.
    """
    rows = [entries[key] for key in sorted(entries, key=lambda key: (len(key), key))]
    counts = [sum(row["per_task_count"].values()) for row in rows]
    err = sum(row["overall_error"] * n for row, n in zip(rows, counts))
    fail = sum(row["overall_failure_rate"] * n for row, n in zip(rows, counts))
    return err / sum(counts), fail / sum(counts)


def render_markdown(doc: dict) -> str:
    """Markdown tables of a run's report document, as `run_experiment` returns it."""
    arms = doc["arms"]
    robots = sorted({r for robot_map in arms.values() for r in robot_map})
    lines = ["# Comparison report"]
    for title, field in (
        ("Mean absolute torque error", "overall_error"),
        ("Failure rate (error > threshold)", "overall_failure_rate"),
    ):
        lines += ["", f"## {title}", ""]
        lines.append("| arm | " + " | ".join(robots) + " | overall |")
        lines.append("|---" * (len(robots) + 2) + "|")
        for arm in sorted(arms):
            cells = [f"{arms[arm][r][field]:.4f}" if r in arms[arm] else "-" for r in robots]
            overall = doc["overall"][arm][field.removeprefix("overall_")]
            lines.append(f"| {arm} | " + " | ".join(cells) + f" | {overall:.4f} |")
    lines += ["", "## Augmenter axes", ""]
    lines.append("| augmenter | number | semantic | instance | reality |")
    lines.append("|---|---|---|---|---|")
    for name in sorted(doc["qualitative"]):
        row = doc["qualitative"][name]
        lines.append(
            f"| {name} | {row['number']} | {row['semantic']} | "
            f"{row['instance']} | {row['reality']} |"
        )
    return "\n".join(lines) + "\n"


def resolve_output_dir(config: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV) or "."
    path = Path(config.output_dir)
    return path if path.is_absolute() else Path(root) / path


def score_arms(
    models: dict[str, dict[str, PolicyModel]],
    holdout: dict[str, Sequence[DrivingSample]],
    styles: dict[str, StyleModel],
    central_style: Optional[StyleModel],
    fail_threshold: float,
) -> dict[str, dict[str, dict]]:
    """The arms table: each arm's report.json entry (`evaluate`) for each robot key.

    The only code that featurizes a holdout. holdout[key] is featurized
    under styles[key], the robot's fitted style, for every per-robot arm,
    and under central_style, the pooled style, for the centralized arm,
    which holds its one model under every key. Each (robot, style) pair is
    featurized once, on first use; a perception failure is a StageFailure
    at the robot, of stage local-eval or centralized-eval.
    """
    features: dict[tuple[str, bool], np.ndarray] = {}
    arms: dict[str, dict[str, dict]] = {}
    for arm, robots in models.items():
        central = arm == ARM_CENTRALIZED
        stage = "centralized-eval" if central else "local-eval"
        arms[arm] = {}
        for key, model in robots.items():
            if (key, central) not in features:
                style = central_style if central else styles[key]
                features[key, central] = _stage(stage, key, featurize, holdout[key], style)
            arms[arm][key] = evaluate(model, holdout[key], features[key, central], fail_threshold)
    return arms


def rescore(run_dir: Path) -> dict[str, dict[str, dict]]:
    """Score the models a run directory holds with `score_arms`, as `parl run` scored them.

    A robot with a model file is scored under `fit_style` of its training
    split, and the centralized model under `pooled_style` of every training
    split. An arm and robot without a model file is left out; a model file
    that cannot be decoded, or holds anything but one policy, is a
    configuration error naming it.
    """
    config, train, holdout = read_inputs(run_dir)
    keys = {robot_key(robot): robot for robot in range(config.robots)}
    models: dict[str, dict[str, PolicyModel]] = {}
    for key in keys:
        for arm, pattern in ARM_MODEL_FILES.items():
            path = run_dir / pattern.format(key=key)
            if path.exists():
                models.setdefault(arm, {})[key] = _read_policy(path)
    styles = {
        key: fit_style(train[robot])
        for key, robot in keys.items()
        if any(key in robots for robots in models.values())
    }
    central_style = None
    central_path = run_dir / CENTRALIZED_MODEL_FILE
    if central_path.exists():
        models[ARM_CENTRALIZED] = dict.fromkeys(keys, _read_policy(central_path))
        central_style = pooled_style([s for robot in keys.values() for s in train[robot]])
    holdouts = {key: holdout[robot] for key, robot in keys.items()}
    return score_arms(models, holdouts, styles, central_style, config.fail_threshold)


def _train_local_arm(
    robot: RobotNode, config: ExperimentConfig, extra: Sequence[DrivingSample]
) -> PolicyModel:
    """Train on the robot's own training features plus the featurized extras."""
    # Appearance augmentation can corrupt a sample beyond recognition (e.g.
    # jitter erasing the road); such samples are dropped rather than failing
    # the arm. If the batch raised, the extras that featurize alone are
    # featurized again as one batch: a row depends only on its own sample.
    try:
        extra_features = featurize(extra, robot.style)
    except ParlError:
        extra = [s for s in extra if _featurizes(s, robot.style)]
        extra_features = featurize(extra, robot.style)
    features = np.concatenate((robot.train_features, extra_features))
    samples = [*robot.train_samples, *extra]
    labels, provs = [s.label for s in samples], [s.provenance for s in samples]
    return train(features, labels, ridge_lambda=config.ridge_lambda, provenances=provs)


def _featurizes(sample: DrivingSample, style: StyleModel) -> bool:
    try:
        featurize([sample], style)
    except ParlError:
        return False
    return True


def _train_appearance_arm(
    robot: RobotNode,
    config: ExperimentConfig,
    augmenter: Callable[[DrivingSample, int], DrivingSample],
    seed_base: int,
    axes: AugmenterAxes,
) -> PolicyModel:
    """Augment the robot's training split, tally the copies, train on them.

    Each training sample gets fan_out copies. The copies live only in this
    call: once the arm has trained, none of their pixels stay alive.
    """
    index = robot.node_id.index
    extra = []
    for i, sample in enumerate(robot.train_samples):
        outputs = [
            augmenter(sample, config.augment_seed * seed_base + index * 10_007 + i * 31 + k)
            for k in range(config.fan_out)
        ]
        axes.add(sample, outputs)
        extra.extend(outputs)
    return _train_local_arm(robot, config, extra)


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all arms, persist every artifact under the output dir, return the report.

    The report is the document report.json holds: the config, the arms
    table, each arm's `overall` numbers rounded to 9 decimals, the split
    hashes and the augmentation, qualitative and protocol sections.
    """
    out = resolve_output_dir(config)
    # Outside the generate stage, which would wrap the configuration error.
    _make_dirs(out, "models", "uploads")
    train_sets, holdout_sets, split_hashes = _stage(
        "generate", "harness", write_inputs, config, out
    )

    # Each arm's models by robot key, scored once after the round.
    models = {arm: {} for arm in (ARM_LOCAL, ARM_JITTER, ARM_CROP, ARM_CENTRALIZED, ARM_PARL)}
    # The appearance-augmentation arms: (arm, name in the qualitative table,
    # augmenter, seed base, stage). Each trains on the local split plus
    # fan_out augmented copies of every training sample. The table is built
    # per run, not at import, so it holds the augmenters the module binds
    # when the run starts (a tracer that rebinds them then sees every call).
    appearance_arms = (
        (ARM_JITTER, "color-jitter", baseline_color_jitter, 1_000_003, "jitter-train"),
        (ARM_CROP, "random-resized-crop", baseline_random_resized_crop, 9_176, "crop-train"),
    )
    # Per appearance augmenter, its axes for qualitative_table, tallied as
    # each robot's copies are made.
    appearance_axes = {name: AugmenterAxes() for _, name, *_ in appearance_arms}

    # Centralized arm: pooled data, pooled (non-adapted) perception.
    pooled_samples = [s for robot in range(config.robots) for s in train_sets[robot]]
    central_style = _stage("centralized-style", "harness", pooled_style, pooled_samples)

    def train_centralized() -> PolicyModel:
        features = featurize(pooled_samples, central_style)
        labels, provs = [s.label for s in pooled_samples], [s.provenance for s in pooled_samples]
        return train(features, labels, ridge_lambda=config.ridge_lambda, provenances=provs)

    central_model = _stage("centralized-train", "harness", train_centralized)
    codec.write_models(out / CENTRALIZED_MODEL_FILE, [central_model])

    holdouts = {robot_key(robot): holdout_sets[robot] for robot in range(config.robots)}
    models[ARM_CENTRALIZED] = dict.fromkeys(holdouts, central_model)

    # The PARL round itself. Each robot's local compute in it fits the
    # robot's style, featurizes its training split and trains the local
    # arm's policy.
    cloud_id = NodeId.cloud()
    robots = [
        RobotNode(NodeId.robot(i), cloud_id, train_sets[i], config)
        for i in range(config.robots)
    ]
    cloud = CloudNode(cloud_id, config)
    network = SimNetwork()
    round_failure = None
    try:
        upload_bytes = run_round(robots, cloud, network)
    except ParlError as exc:
        round_failure = exc
    # A robot without a local policy is reported before the round's own
    # failure, which may only be the want of that robot's upload.
    for robot in robots:
        if robot.policy is None:
            raise StageFailure("local-train", str(robot.node_id), ParlError(robot.diagnostic))
    if round_failure is not None:
        raise StageFailure("parl-round", "cloud-0", round_failure) from round_failure
    for node, payload in sorted(upload_bytes.items()):
        (out / "uploads" / f"{node}.bin").write_bytes(payload)
    for node in cloud.participants:
        key = str(node)
        tuned = robots[node.index].tuned
        if node in cloud.acks:
            models[ARM_PARL][key] = tuned
        if node in cloud.shared:
            codec.write_models(out / "models" / f"parl_shared_{key}.dm1", [cloud.shared[node]])
        if tuned is not None:
            codec.write_models(out / ARM_MODEL_FILES[ARM_PARL].format(key=key), [tuned])

    # Local arm, the policy each robot uploaded, plus the appearance baselines.
    for index, robot in enumerate(robots):
        key = robot_key(index)
        models[ARM_LOCAL][key] = robot.policy
        codec.write_models(out / ARM_MODEL_FILES[ARM_LOCAL].format(key=key), [robot.policy])
        for arm, name, augmenter, seed_base, stage in appearance_arms:
            model = models[arm][key] = _stage(
                stage, key, _train_appearance_arm,
                robot, config, augmenter, seed_base, appearance_axes[name],
            )
            codec.write_models(out / ARM_MODEL_FILES[arm].format(key=key), [model])
    styles = {str(robot.node_id): robot.style for robot in robots}
    arms = score_arms(models, holdouts, styles, central_style, config.fail_threshold)

    codec.write_models(
        out / "models" / "predictors.dm1", [cloud.where, cloud.what, cloud.scorer]
    )
    candidates = [c for _, c in cloud.candidates]
    codec.write_models(out / "candidates.dm1", candidates)

    # Qualitative axes for the three augmenters, scored by the round's judge.
    dat_axes = AugmenterAxes()
    for node, candidate in cloud.candidates:
        source = train_sets[node.index][candidate.source_sample_id]
        output = replace(
            source,
            semantic=candidate.semantic,
            instances=candidate.instances,
            provenance=Provenance.AUGMENTED,
        )
        dat_axes.add(source, [output])
    qual_arms = {"semantic-insertion": dat_axes, **appearance_axes}
    # Each candidate already carries its score under cloud.scorer.
    qualitative = qualitative_table(
        qual_arms,
        cloud.scorer,
        known_scores={"semantic-insertion": [c.score for _, c in cloud.candidates]},
    )
    # The layouts the scorer was fitted on: the uploads, in participant order.
    pooled_layouts = [
        layout for node in cloud.participants for layout in cloud.uploads[node].layouts
    ]
    (out / "scorer_diagnostics.json").write_text(
        diagnostics_json(cloud.scorer, pooled_layouts) + "\n", encoding="utf-8"
    )

    n_inputs = sum(len(train_sets[r]) for r in range(config.robots))
    total = sum(cloud.stats.values(), AugmentStats())
    augmentation = {
        "acceptance_rate": round(total.acceptance_rate(), 6),
        "attempts": total.attempts,
        "accepted": total.accepted,
        "insertion_failures": total.insertion_failures,
        "fan_out_requested": config.fan_out,
        "fan_out_achieved": round(len(candidates) / max(n_inputs, 1), 6),
        "pool_size": len(cloud.pool[1]),
        "per_robot": {
            str(node): {
                "attempts": stats.attempts,
                "accepted": stats.accepted,
                "rejected_low_score": stats.rejected_low_score,
                "insertion_failures": stats.insertion_failures,
            }
            for node, stats in sorted(cloud.stats.items())
        },
    }
    stages = {r.node_id: r.stage for r in robots} | {cloud.node_id: cloud.stage}
    protocol_info = {
        "participants": [str(p) for p in cloud.participants],
        "stages": {str(k): v.name for k, v in sorted(stages.items())},
        "shared_received": {str(r.node_id): r.shared_received for r in robots},
        "violations": cloud.violations + [v for r in robots for v in r.violations],
        "network_log": list(network.log),
    }

    config_text = render_config(config)
    pooled = {}
    for arm in sorted(arms):
        err, fail = overall(arms[arm])
        pooled[arm] = {"error": round(err, 9), "failure_rate": round(fail, 9)}
    report = {
        "config": {
            line.split(" = ")[0]: line.split(" = ", 1)[1]
            for line in config_text.splitlines()
            if " = " in line
        },
        "arms": arms,
        "overall": pooled,
        "split_hashes": split_hashes,
        "augmentation": augmentation,
        "qualitative": qualitative,
        "protocol": protocol_info,
    }
    (out / "config.txt").write_text(config_text, encoding="utf-8")
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out / "report.md").write_text(render_markdown(report), encoding="utf-8")
    return report


def check_acceptance(report: dict) -> list[str]:
    """Directional checks of a report document, as `parl run --check` applies them.

    report is the document `run_experiment` returns or report.json holds;
    either gives the same problems. Empty means pass.
    """
    # Every comparison is written so that a NaN rate or error is a problem.
    arms = report["arms"]
    problems = []
    for key in sorted(arms[ARM_LOCAL]):
        if key not in arms[ARM_PARL]:
            problems.append(f"{key}: no PARL evaluation")
            continue
        local_rate = arms[ARM_LOCAL][key]["overall_failure_rate"]
        parl_rate = arms[ARM_PARL][key]["overall_failure_rate"]
        if not parl_rate < local_rate:
            problems.append(
                f"{key}: PARL failure rate {parl_rate:.4f} not below local {local_rate:.4f}"
            )
        elif not (local_rate - parl_rate) / local_rate >= 0.30:
            problems.append(
                f"{key}: failure-rate reduction "
                f"{(local_rate - parl_rate) / local_rate:.2%} below 30%"
            )
    parl_err, _ = overall(arms[ARM_PARL])
    central_err, _ = overall(arms[ARM_CENTRALIZED])
    if not parl_err <= central_err:
        problems.append(
            f"PARL overall error {parl_err:.4f} above centralized {central_err:.4f}"
        )
    return problems
