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

Every arm is evaluated on the same per-robot holdout sets; the report
stores split hashes so that can be audited. All artifacts (datasets,
models, predictors, candidates, reports) are persisted in deterministic
byte-exact formats, so identical configs reproduce identical files.

This module owns a run directory's inputs, `models/styles.dm1` and each
robot's `robot-N_{train,holdout}.ds1`: `write_inputs` writes them for
`parl run` and `parl gen`, and `read_inputs` reads them for `parl eval`.

Perception runs once per (sample, style). Each robot's RobotNode fits its
style and featurizes its train and holdout splits once, in the PARL round's
local compute; the policy it uploads is the local arm. The jitter and crop
arms train on the node's training features plus their own featurized
extras, and every per-robot arm is evaluated on the node's holdout features.
The centralized arm featurizes under the pooled style.

`run_round` returns only the uploads' wire bytes. The harness reads every
other result of the round from the nodes and the `SimNetwork` it creates:
the cloud's participants, candidates, fitted models, stats, pool, shared
models and acks, each robot's tuned policy and shared-model count, every
node's stage and violations, and the network's log.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from . import codec
from .augment import AugmentStats, diagnostics_json
from .baselines import (
    baseline_color_jitter,
    baseline_random_resized_crop,
    pooled_style,
    qualitative_table,
)
from .config import OUTPUT_ROOT_ENV, ExperimentConfig, read_config, render_config
from .errors import ParlError
from .policy import EvaluationReport, PolicyModel, evaluate, featurize, train
from .protocol import CloudNode, NodeId, RobotNode, SimNetwork, run_round
from .styles import StyleModel, styles_for_agents
from .world import AgentProfile, DrivingSample, Provenance, ScenarioGenerator, TaskType, WorldConfig

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


class StageFailure(ParlError):
    """A module error wrapped with the stage and node where it happened."""

    def __init__(self, stage: str, node: str, cause: Exception) -> None:
        super().__init__(f"stage {stage} failed at {node}: {cause}")
        self.stage = stage
        self.node = node
        self.cause = cause


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
            style_id=i,
            curvature_range=(0.08, 0.18),
            avoid_gap=0.16 + 0.02 * t,
            turn_right_bias=0.1 if i % 2 == 0 else 0.9,
        )
    return profiles


def generate_worlds(config: ExperimentConfig) -> tuple[dict[int, StyleModel], Splits, Splits]:
    """Per-robot built-in styles and train/holdout splits, stratified per task."""
    styles = styles_for_agents(range(config.robots), seed=config.world_seed)
    generator = ScenarioGenerator(WorldConfig(), styles, agent_profiles(config))
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


def write_inputs(
    config: ExperimentConfig, out: Path
) -> tuple[Splits, Splits, dict[str, dict[str, str]]]:
    """Generate and write the styles and splits; return (train, holdout, split_hashes).

    Each split is encoded once. The returned split is decoded from those
    bytes (the dataset encoding quantizes floats to f32), so every number a
    run derives is recomputable from the files, and its hash is theirs.
    """
    (out / "models").mkdir(parents=True, exist_ok=True)
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
    """The config and per-robot train/holdout splits a run directory holds."""
    config = read_config(run_dir / "config.txt")
    train, holdout = (
        {r: codec.read_dataset(_split_path(run_dir, r, split)) for r in range(config.robots)}
        for split in SPLITS
    )
    return config, train, holdout


@dataclass(frozen=True)
class ComparisonReport:
    """All arms' per-robot evaluations plus augmentation diagnostics."""

    config: ExperimentConfig
    arms: dict[str, dict[str, EvaluationReport]]
    split_hashes: dict[str, dict[str, str]]
    augmentation: dict
    qualitative: dict
    protocol: dict

    def overall(self, arm: str) -> tuple[float, float]:
        """Aggregate (error, failure rate) over all robots' holdout samples."""
        reports = self.arms[arm].values()
        n = sum(sum(r.per_task_count.values()) for r in reports)
        err = sum(r.overall_error * sum(r.per_task_count.values()) for r in reports)
        fail = sum(r.overall_failure_rate * sum(r.per_task_count.values()) for r in reports)
        return err / n, fail / n

    def to_json_dict(self) -> dict:
        arms = {
            arm: {robot: rep.to_json_dict() for robot, rep in sorted(robots.items())}
            for arm, robots in sorted(self.arms.items())
        }
        overall = {}
        for arm in sorted(self.arms):
            err, fail = self.overall(arm)
            overall[arm] = {"error": round(err, 9), "failure_rate": round(fail, 9)}
        return {
            "config": {
                line.split(" = ")[0]: line.split(" = ", 1)[1]
                for line in render_config(self.config).splitlines()
                if " = " in line
            },
            "arms": arms,
            "overall": overall,
            "split_hashes": dict(sorted(self.split_hashes.items())),
            "augmentation": self.augmentation,
            "qualitative": self.qualitative,
            "protocol": self.protocol,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["arm,robot,overall_error,overall_failure_rate"]
        for arm in sorted(self.arms):
            for robot in sorted(self.arms[arm]):
                rep = self.arms[arm][robot]
                lines.append(
                    f"{arm},{robot},{rep.overall_error:.6f},{rep.overall_failure_rate:.6f}"
                )
        return "\n".join(lines) + "\n"


def render_markdown(doc: dict) -> str:
    """Markdown tables of a report's JSON document (`ComparisonReport.to_json_dict`)."""
    arms = doc["arms"]
    robots = sorted({r for robot_map in arms.values() for r in robot_map})
    lines = ["# Comparison report", "", "## Mean absolute torque error", ""]
    lines.append("| arm | " + " | ".join(robots) + " | overall |")
    lines.append("|---" * (len(robots) + 2) + "|")
    for arm in sorted(arms):
        cells = [
            f"{arms[arm][r]['overall_error']:.4f}" if r in arms[arm] else "-"
            for r in robots
        ]
        overall = doc["overall"][arm]["error"]
        lines.append(f"| {arm} | " + " | ".join(cells) + f" | {overall:.4f} |")
    lines += ["", "## Failure rate (error > threshold)", ""]
    lines.append("| arm | " + " | ".join(robots) + " | overall |")
    lines.append("|---" * (len(robots) + 2) + "|")
    for arm in sorted(arms):
        cells = [
            f"{arms[arm][r]['overall_failure_rate']:.4f}" if r in arms[arm] else "-"
            for r in robots
        ]
        overall = doc["overall"][arm]["failure_rate"]
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


def resolve_output_dir(config: ExperimentConfig, output_root: Optional[str] = None) -> Path:
    root = output_root or os.environ.get(OUTPUT_ROOT_ENV) or "."
    path = Path(config.output_dir)
    return path if path.is_absolute() else Path(root) / path


def _train_local_arm(
    robot: RobotNode, config: ExperimentConfig, extra: Sequence[DrivingSample]
) -> tuple[PolicyModel, EvaluationReport]:
    """Train on the robot's own training features plus the featurized extras."""
    # Appearance augmentation can corrupt a sample beyond recognition (e.g.
    # jitter erasing the road); such rows are dropped, mirroring a
    # data-cleaning pass, rather than failing the arm. The extras are
    # featurized as one batch, and one at a time only if the batch raised.
    try:
        kept = list(zip(featurize(extra, robot.style), extra))
    except ParlError:
        kept = []
        for sample in extra:
            try:
                (feats,) = featurize([sample], robot.style)
            except ParlError:
                continue
            kept.append((feats, sample))
    rows = robot.local_rows + [(f, s.label) for f, s in kept]
    provs = [s.provenance for s in robot.train_samples] + [s.provenance for _, s in kept]
    model = train(rows, ridge_lambda=config.ridge_lambda, provenances=provs)
    report = evaluate(
        model, robot.holdout_samples, robot.style, config.fail_threshold,
        features=robot.holdout_features,
    )
    return model, report


def run_experiment(
    config: ExperimentConfig, output_root: Optional[str] = None
) -> ComparisonReport:
    """Execute all arms and persist every artifact under the output dir."""
    out = resolve_output_dir(config, output_root)
    (out / "uploads").mkdir(parents=True, exist_ok=True)

    def _stage(stage: str, node: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParlError as exc:
            raise StageFailure(stage, node, exc) from exc

    train_sets, holdout_sets, split_hashes = _stage(
        "generate", "harness", write_inputs, config, out
    )

    arms: dict[str, dict[str, EvaluationReport]] = {
        arm: {} for arm in (ARM_LOCAL, ARM_JITTER, ARM_CROP, ARM_CENTRALIZED, ARM_PARL)
    }
    # The appearance-augmentation arms: (arm, name in the qualitative table,
    # augmenter, seed base, stage). Each trains on the local split plus
    # fan_out augmented copies of every training sample. The table is built
    # per run, not at import, so it holds the augmenters the module binds
    # when the run starts (a tracer that rebinds them then sees every call).
    appearance_arms = (
        (ARM_JITTER, "color-jitter", baseline_color_jitter, 1_000_003, "jitter-train"),
        (ARM_CROP, "random-resized-crop", baseline_random_resized_crop, 9_176, "crop-train"),
    )
    # Per appearance augmenter, every (source, augmented) pair for qualitative_table.
    appearance_pairs: dict[str, tuple[list[DrivingSample], list[DrivingSample]]] = {
        name: ([], []) for _, name, *_ in appearance_arms
    }

    # Centralized arm: pooled data, pooled (non-adapted) perception.
    pooled_samples = [s for robot in range(config.robots) for s in train_sets[robot]]
    central_style = _stage("centralized-style", "harness", pooled_style, pooled_samples)
    rows = [
        (f, s.label) for f, s in zip(featurize(pooled_samples, central_style), pooled_samples)
    ]
    central_model = _stage(
        "centralized-train", "harness", train, rows,
        ridge_lambda=config.ridge_lambda,
        provenances=[s.provenance for s in pooled_samples],
    )
    codec.write_models(out / "models" / "centralized.dm1", [central_model])
    for robot in range(config.robots):
        key = robot_key(robot)
        arms[ARM_CENTRALIZED][key] = _stage(
            "centralized-eval", key, evaluate,
            central_model, holdout_sets[robot], central_style, config.fail_threshold,
        )

    # The PARL round itself. Each robot's local compute in it fits the
    # robot's style, featurizes its splits and trains the local arm's policy.
    cloud_id = NodeId.cloud()
    robots = [
        RobotNode(NodeId.robot(i), cloud_id, train_sets[i], holdout_sets[i], config)
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
        if node in cloud.acks:
            arms[ARM_PARL][key] = cloud.acks[node]
        if node in cloud.shared:
            codec.write_models(out / "models" / f"parl_shared_{key}.dm1", [cloud.shared[node]])
        tuned = robots[node.index].tuned
        if tuned is not None:
            codec.write_models(out / ARM_MODEL_FILES[ARM_PARL].format(key=key), [tuned])

    # Local arm, the policy each robot uploaded, plus the appearance baselines.
    for index, robot in enumerate(robots):
        key = robot_key(index)
        arms[ARM_LOCAL][key] = _stage(
            "local-train", key, evaluate,
            robot.policy, robot.holdout_samples, robot.style, config.fail_threshold,
            features=robot.holdout_features,
        )
        codec.write_models(out / ARM_MODEL_FILES[ARM_LOCAL].format(key=key), [robot.policy])
        for arm, name, augmenter, seed_base, stage in appearance_arms:
            sources, outputs = appearance_pairs[name]
            extra = []
            for i, sample in enumerate(train_sets[index]):
                for k in range(config.fan_out):
                    seed = config.augment_seed * seed_base + index * 10_007 + i * 31 + k
                    sources.append(sample)
                    extra.append(augmenter(sample, seed))
            outputs.extend(extra)
            model, report = _stage(stage, key, _train_local_arm, robot, config, extra)
            arms[arm][key] = report
            codec.write_models(out / ARM_MODEL_FILES[arm].format(key=key), [model])

    codec.write_models(
        out / "models" / "predictors.dm1", [cloud.where, cloud.what, cloud.scorer]
    )
    candidates = [c for _, c in cloud.candidates]
    codec.write_models(out / "candidates.dm1", candidates)

    # Qualitative axes for the three augmenters, scored by the round's judge.
    dat_sources, dat_outputs = [], []
    for node, candidate in cloud.candidates:
        source = train_sets[node.index][candidate.source_sample_id]
        dat_sources.append(source)
        dat_outputs.append(
            replace(
                source,
                semantic=candidate.semantic,
                instances=candidate.instances,
                provenance=Provenance.AUGMENTED,
            )
        )
    qual_arms = {"semantic-insertion": (dat_sources, dat_outputs), **appearance_pairs}
    # Each candidate already carries its score under cloud.scorer.
    qualitative = qualitative_table(
        qual_arms,
        cloud.scorer,
        known_scores={"semantic-insertion": [c.score for _, c in cloud.candidates]},
    )
    pooled_layouts = [(s.semantic, s.instances) for s in pooled_samples]
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
        "pool_size": len(cloud.pool),
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

    report = ComparisonReport(
        config=config,
        arms=arms,
        split_hashes=split_hashes,
        augmentation=augmentation,
        qualitative=qualitative,
        protocol=protocol_info,
    )
    (out / "config.txt").write_text(render_config(config), encoding="utf-8")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "report.md").write_text(render_markdown(report.to_json_dict()), encoding="utf-8")
    return report


def check_acceptance(report: ComparisonReport) -> list[str]:
    """Directional checks the CLI enforces under --check; empty means pass."""
    problems = []
    for key in sorted(report.arms[ARM_LOCAL]):
        if key not in report.arms[ARM_PARL]:
            problems.append(f"{key}: no PARL evaluation")
            continue
        local_rate = report.arms[ARM_LOCAL][key].overall_failure_rate
        parl_rate = report.arms[ARM_PARL][key].overall_failure_rate
        if parl_rate >= local_rate:
            problems.append(
                f"{key}: PARL failure rate {parl_rate:.4f} not below local {local_rate:.4f}"
            )
        elif local_rate > 0 and (local_rate - parl_rate) / local_rate < 0.30:
            problems.append(
                f"{key}: failure-rate reduction "
                f"{(local_rate - parl_rate) / local_rate:.2%} below 30%"
            )
    parl_err, _ = report.overall(ARM_PARL)
    central_err, _ = report.overall(ARM_CENTRALIZED)
    if parl_err > central_err:
        problems.append(
            f"PARL overall error {parl_err:.4f} above centralized {central_err:.4f}"
        )
    return problems
