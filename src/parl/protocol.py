"""Robot/cloud orchestration over a simulated in-process network.

One round of the peer-assisted pipeline:

1. Every robot segments its own samples, fits its style, trains its local
   policy, and uploads maps + style + policy to the cloud.
2. The cloud fits the augmentation models on the pooled uploaded layouts
   and augments each robot's maps into scored candidates.
3. The cloud renders the full candidate batch in each participant's own
   style and sends it as a LabelRequest; the robot segments every scenario
   and answers with its local policy's predictions (LabelResponse).
4. The answers are the labels: each candidate is labeled once per
   participant style with the affinity-weighted mean of the answering
   robots' predictions, so a silent robot simply does not vote. The cloud
   trains the shared policy on the labeled pool and dispatches it exactly
   once per participant.
5. Each robot fine-tunes toward the shared model on its own training split
   and acks with an evaluation report from its held-out split.

Messages travel as bytes through SimNetwork, so every hop exercises the
wire format. Determinism comes from a fixed scheduling order (node id),
not from timing; dropout is injected by marking nodes down, never by
exceptions. Node failures transition the node to DROPPED_OUT with a
diagnostic instead of crashing the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Sequence, Union

import numpy as np

from .augment import (
    AugmentStats,
    AugmentationCandidate,
    PlausibilityScorer,
    WhatPredictor,
    WherePredictor,
    augment_semantic,
    fit_scorer,
    fit_what,
    fit_where,
)
from .codec import (
    _Reader,
    _Writer,
    decode_models,
    decode_samples,
    encode_models,
    encode_samples,
)
from .errors import ConfigurationError, DecodeError, ParlError, ProtocolError
from .policy import (
    EvaluationReport,
    FeatureVector,
    PolicyModel,
    batch_features_from_maps,
    crowdsource_labels,
    evaluate,
    featurize,
    fine_tune,
    train,
)
from .styles import StyleModel, cross_render, fit_style
from .world import DrivingSample, InstanceMap, Provenance, SemanticMap, TaskType, segment

MESSAGE_MAGIC = b"PARLMSG"
PROTOCOL_VERSION = 1

Layout = tuple[SemanticMap, InstanceMap]

_CLOUD_BIT = 0x8000


@dataclass(frozen=True, order=True)
class NodeId:
    """u16 node address; the high bit marks the cloud side."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 2**16:
            raise ConfigurationError(f"node id {self.value} does not fit in u16")

    @classmethod
    def robot(cls, index: int) -> "NodeId":
        if not 0 <= index < _CLOUD_BIT:
            raise ConfigurationError(f"robot index {index} out of range")
        return cls(index)

    @classmethod
    def cloud(cls, index: int = 0) -> "NodeId":
        if not 0 <= index < _CLOUD_BIT:
            raise ConfigurationError(f"cloud index {index} out of range")
        return cls(_CLOUD_BIT | index)

    @property
    def is_cloud(self) -> bool:
        return bool(self.value & _CLOUD_BIT)

    @property
    def index(self) -> int:
        return self.value & (_CLOUD_BIT - 1)

    def __str__(self) -> str:
        return f"{'cloud' if self.is_cloud else 'robot'}-{self.index}"


class Stage(IntEnum):
    """Round progress per node; transitions only move forward."""

    LOCAL_COMPUTE = 0
    UPLOADED = 1
    CLOUD_AUGMENT = 2
    LABELING = 3
    CLOUD_TRAIN = 4
    DISPATCHED = 5
    FINE_TUNED = 6
    DONE = 7
    DROPPED_OUT = 8


def advance_stage(current: Stage, target: Stage) -> Stage:
    """Validate a monotone stage transition; DROPPED_OUT is a sink."""
    if current == Stage.DROPPED_OUT:
        raise ProtocolError("node already dropped out")
    if target == Stage.DROPPED_OUT:
        if current == Stage.DONE:
            raise ProtocolError("cannot drop out of a finished round")
        return target
    if target <= current:
        raise ProtocolError(f"stage cannot move from {current.name} to {target.name}")
    return target


# ---------------------------------------------------------------------------
# Message variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UploadLocal:
    """A robot's round contribution: its segmented maps, style, and policy."""

    style: StyleModel
    policy: PolicyModel
    layouts: tuple[Layout, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layouts", tuple(self.layouts))
        if not self.layouts:
            raise ProtocolError("upload must carry at least one layout")


@dataclass(frozen=True)
class LabelRequest:
    """Unlabeled scenarios a robot should label with its local policy."""

    scenarios: tuple[DrivingSample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ProtocolError("label request must carry at least one scenario")


@dataclass(frozen=True)
class LabelResponse:
    """Torque labels, aligned with the request's scenario order."""

    torques: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(t) for t in self.torques)
        if any(not 0.0 <= t <= 1.0 for t in vals):
            raise ProtocolError("torque labels must lie in [0, 1]")
        object.__setattr__(self, "torques", vals)


@dataclass(frozen=True)
class SharedModel:
    """The cloud's trained policy, dispatched for local fine-tuning."""

    policy: PolicyModel


@dataclass(frozen=True)
class FineTuneAck:
    """A robot's held-out evaluation of its fine-tuned policy."""

    report: EvaluationReport


Body = Union[UploadLocal, LabelRequest, LabelResponse, SharedModel, FineTuneAck]

# Variant tags; every pair differs in at least two bits, so a single bit
# flip can never turn one valid tag into another.
_TAG_OF = {
    UploadLocal: 0xA1,
    LabelRequest: 0xC3,
    LabelResponse: 0xD4,
    SharedModel: 0xE5,
    FineTuneAck: 0xF6,
}
_BODY_OF = {tag: body for body, tag in _TAG_OF.items()}


@dataclass(frozen=True)
class Message:
    sender: NodeId
    recipient: NodeId
    seq: int
    body: Body

    def __post_init__(self) -> None:
        if not 0 <= self.seq < 2**64:
            raise ProtocolError(f"seq {self.seq} does not fit in u64")
        if type(self.body) not in _TAG_OF:
            raise ProtocolError(f"unknown message body {type(self.body).__name__}")


def _encode_body(body: Body) -> bytes:
    if isinstance(body, UploadLocal):
        return encode_models([body.style, body.policy, *body.layouts])
    if isinstance(body, LabelRequest):
        return encode_samples(list(body.scenarios))
    if isinstance(body, LabelResponse):
        return encode_models([np.asarray(body.torques, dtype=np.float64)])
    if isinstance(body, SharedModel):
        return encode_models([body.policy])
    if isinstance(body, FineTuneAck):
        return encode_models([body.report])
    raise ProtocolError(f"cannot encode body {type(body).__name__}")


def _expect(items: list, types: tuple, what: str) -> None:
    if len(items) != len(types) or any(
        not isinstance(item, t) for item, t in zip(items, types)
    ):
        raise DecodeError(f"{what}: payload items do not match the variant schema")


def _decode_body(tag: int, payload: bytes) -> Body:
    try:
        if tag == _TAG_OF[UploadLocal]:
            items = decode_models(payload)
            if len(items) < 3:
                raise DecodeError("upload payload needs style, policy, and layouts")
            _expect(items[:2], (StyleModel, PolicyModel), "upload")
            layouts = []
            for item in items[2:]:
                if not (isinstance(item, tuple) and len(item) == 2):
                    raise DecodeError("upload: trailing items must be layouts")
                layouts.append(item)
            return UploadLocal(style=items[0], policy=items[1], layouts=tuple(layouts))
        if tag == _TAG_OF[LabelRequest]:
            return LabelRequest(scenarios=tuple(decode_samples(payload)))
        if tag == _TAG_OF[LabelResponse]:
            items = decode_models(payload)
            _expect(items, (np.ndarray,), "label response")
            return LabelResponse(torques=tuple(float(t) for t in items[0]))
        if tag == _TAG_OF[SharedModel]:
            items = decode_models(payload)
            _expect(items, (PolicyModel,), "shared model")
            return SharedModel(policy=items[0])
        if tag == _TAG_OF[FineTuneAck]:
            items = decode_models(payload)
            _expect(items, (EvaluationReport,), "fine-tune ack")
            return FineTuneAck(report=items[0])
    except ParlError as exc:
        if isinstance(exc, DecodeError):
            raise
        raise DecodeError(f"payload violates variant invariants: {exc}") from exc
    raise DecodeError(f"unknown variant tag 0x{tag:02X}")


def encode_message(message: Message) -> bytes:
    payload = _encode_body(message.body)
    w = _Writer()
    w.raw(MESSAGE_MAGIC)
    w.u16(PROTOCOL_VERSION)
    w.u16(message.sender.value)
    w.u16(message.recipient.value)
    w.u64(message.seq)
    w.u8(_TAG_OF[type(message.body)])
    w.u32(len(payload))
    w.raw(payload)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    r = _Reader(data, "message")
    r.expect_magic(MESSAGE_MAGIC)
    version = r.u16()
    if version != PROTOCOL_VERSION:
        raise DecodeError(f"unsupported protocol version {version}")
    sender = NodeId(r.u16())
    recipient = NodeId(r.u16())
    seq = r.u64()
    tag = r.u8()
    if tag not in _BODY_OF:
        raise DecodeError(f"unknown variant tag 0x{tag:02X}")
    payload = r.take(r.u32())
    r.done()
    return Message(sender=sender, recipient=recipient, seq=seq, body=_decode_body(tag, payload))


# ---------------------------------------------------------------------------
# Simulated network
# ---------------------------------------------------------------------------


class SimNetwork:
    """Ordered per-channel byte transport with dropout injection.

    Messages are encoded on send and decoded on delivery, so every hop is a
    real wire round-trip. Per (sender, recipient) channel, sequence numbers
    must strictly increase; stale or duplicate sequence numbers are
    discarded and logged. Nodes marked down neither send nor receive.
    """

    def __init__(self) -> None:
        self._inboxes: dict[NodeId, list[tuple[NodeId, bytes]]] = {}
        self._last_seq: dict[tuple[NodeId, NodeId], int] = {}
        self._down: set[NodeId] = set()
        self.log: list[str] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def mark_down(self, node: NodeId) -> None:
        self._down.add(node)

    def send(self, message: Message) -> None:
        data = encode_message(message)
        self.sent += 1
        if message.sender in self._down or message.recipient in self._down:
            self.dropped += 1
            self.log.append(
                f"drop {type(message.body).__name__} {message.sender}->{message.recipient} (node down)"
            )
            return
        self._inboxes.setdefault(message.recipient, []).append((message.sender, data))

    def deliver(self, recipient: NodeId) -> list[Message]:
        """Drain the recipient's inbox in deterministic sender order."""
        entries = self._inboxes.pop(recipient, [])
        entries.sort(key=lambda e: e[0].value)  # stable: per-sender order kept
        out = []
        for sender, data in entries:
            message = decode_message(data)
            key = (message.sender, message.recipient)
            last = self._last_seq.get(key, -1)
            if message.seq <= last:
                self.dropped += 1
                self.log.append(
                    f"discard {type(message.body).__name__} {message.sender}->{message.recipient}: "
                    f"seq {message.seq} not above {last}"
                )
                continue
            self._last_seq[key] = message.seq
            self.delivered += 1
            out.append(message)
        return out


class _SeqCounter:
    """Per-recipient strictly increasing sequence numbers."""

    def __init__(self) -> None:
        self._next: dict[NodeId, int] = {}

    def take(self, recipient: NodeId) -> int:
        seq = self._next.get(recipient, 0)
        self._next[recipient] = seq + 1
        return seq


# ---------------------------------------------------------------------------
# Round configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundConfig:
    """Cloud-side knobs for one round."""

    fan_out: int = 2
    tau: float = 0.5
    ridge_lambda: float = 3e-3
    augment_seed: int = 0
    budget_factor: int = 16
    include_self_labels: bool = True
    per_robot_shared: bool = False
    min_uploads: int = 1

    def __post_init__(self) -> None:
        if self.fan_out < 1:
            raise ConfigurationError("fan_out must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigurationError("tau must lie in [0, 1]")
        if self.ridge_lambda < 0.0:
            raise ConfigurationError("ridge_lambda must be nonnegative")
        if self.min_uploads < 1:
            raise ConfigurationError("min_uploads must be >= 1")


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class RobotNode:
    """One robot: local compute, labeling service, and fine-tuning."""

    def __init__(
        self,
        node_id: NodeId,
        cloud_id: NodeId,
        train_samples: Sequence[DrivingSample],
        holdout_samples: Sequence[DrivingSample],
        beta: float,
        ridge_lambda: float = 3e-3,
        fail_threshold: float = 0.05,
    ) -> None:
        if node_id.is_cloud:
            raise ConfigurationError("robot node ids must not set the cloud bit")
        self.node_id = node_id
        self.cloud_id = cloud_id
        self.train_samples = list(train_samples)
        self.holdout_samples = list(holdout_samples)
        self.beta = beta
        self.ridge_lambda = ridge_lambda
        self.fail_threshold = fail_threshold
        self.stage = Stage.LOCAL_COMPUTE
        self.style: Optional[StyleModel] = None
        self.policy: Optional[PolicyModel] = None
        # (features, label) per training sample from local_compute, reused
        # when fine-tuning: the robot featurizes its own data once.
        self.local_rows: list[tuple[FeatureVector, float]] = []
        self.tuned: Optional[PolicyModel] = None
        self.ack_report: Optional[EvaluationReport] = None
        self.shared_received = 0
        self.diagnostic: Optional[str] = None
        self.violations: list[str] = []
        self._seq = _SeqCounter()

    def _msg(self, body: Body) -> Message:
        return Message(
            sender=self.node_id,
            recipient=self.cloud_id,
            seq=self._seq.take(self.cloud_id),
            body=body,
        )

    def drop_out(self, diagnostic: str) -> None:
        self.stage = advance_stage(self.stage, Stage.DROPPED_OUT)
        self.diagnostic = diagnostic

    def local_compute(self) -> Optional[Message]:
        """Fit style, segment everything, train the local policy, upload.

        Any failure (missing palette class, degenerate training data)
        transitions this robot to DROPPED_OUT with a diagnostic; it never
        raises out of the round.
        """
        try:
            if not self.train_samples:
                raise ProtocolError("robot has no local samples")
            style = fit_style(self.train_samples)
            layouts = [segment(s.scenario, style) for s in self.train_samples]
            if any(s.label is None for s in self.train_samples):
                raise ProtocolError("local sample is unlabeled")
            features = batch_features_from_maps([semantic for semantic, _ in layouts])
            dataset = [(f, s.label) for f, s in zip(features, self.train_samples)]
            policy = train(
                dataset,
                ridge_lambda=self.ridge_lambda,
                provenances=[s.provenance for s in self.train_samples],
            )
        except ParlError as exc:
            self.drop_out(f"local compute failed: {exc}")
            return None
        self.style = style
        self.policy = policy
        self.local_rows = dataset
        self.stage = advance_stage(self.stage, Stage.UPLOADED)
        return self._msg(UploadLocal(style=style, policy=policy, layouts=tuple(layouts)))

    def handle(self, message: Message) -> list[Message]:
        """Process one inbound message; illegal variants are logged, not fatal."""
        if self.stage == Stage.DROPPED_OUT:
            self.violations.append(f"{self.node_id}: message after dropout discarded")
            return []
        body = message.body
        try:
            if isinstance(body, LabelRequest):
                if self.stage not in (Stage.UPLOADED, Stage.LABELING):
                    self._violation(body)
                    return []
                if self.stage == Stage.UPLOADED:
                    self.stage = advance_stage(self.stage, Stage.LABELING)
                assert self.policy is not None and self.style is not None
                torques = tuple(
                    self.policy.predict(featurize(sample, self.style))
                    for sample in body.scenarios
                )
                return [self._msg(LabelResponse(torques=torques))]
            if isinstance(body, SharedModel):
                if self.stage not in (Stage.UPLOADED, Stage.LABELING) or self.tuned is not None:
                    self._violation(body)
                    return []
                self.tuned = fine_tune(
                    body.policy,
                    self.local_rows,
                    mix=self.beta,
                    provenances=[s.provenance for s in self.train_samples],
                )
                self.shared_received += 1
                self.ack_report = evaluate(
                    self.tuned, self.holdout_samples, self.style, self.fail_threshold
                )
                self.stage = advance_stage(self.stage, Stage.FINE_TUNED)
                return [self._msg(FineTuneAck(report=self.ack_report))]
            self._violation(body)
            return []
        except ParlError as exc:
            self.drop_out(f"failed handling {type(body).__name__}: {exc}")
            return []

    def _violation(self, body: Body) -> None:
        self.violations.append(
            f"{self.node_id}: {type(body).__name__} illegal in stage {self.stage.name}"
        )

    def finish(self) -> None:
        if self.stage == Stage.FINE_TUNED:
            self.stage = advance_stage(self.stage, Stage.DONE)


class CloudNode:
    """The cloud: collects uploads, augments, labels, trains, dispatches."""

    def __init__(self, node_id: NodeId, config: RoundConfig) -> None:
        if not node_id.is_cloud:
            raise ConfigurationError("cloud node id must set the cloud bit")
        self.node_id = node_id
        self.config = config
        self.stage = Stage.LOCAL_COMPUTE
        self.uploads: dict[NodeId, UploadLocal] = {}
        self.responses: dict[NodeId, LabelResponse] = {}
        self.acks: dict[NodeId, EvaluationReport] = {}
        self.candidates: list[tuple[NodeId, AugmentationCandidate]] = []
        self.stats: dict[NodeId, AugmentStats] = {}
        self.shared: dict[NodeId, PolicyModel] = {}
        # Labeled (features, torque) rows per source robot of the candidates.
        self.pool: dict[NodeId, list[tuple[FeatureVector, float]]] = {}
        self.where: Optional[WherePredictor] = None
        self.what: Optional[WhatPredictor] = None
        self.scorer: Optional[PlausibilityScorer] = None
        self.violations: list[str] = []
        self._seq = _SeqCounter()
        self._dispatched: set[NodeId] = set()

    def _msg(self, recipient: NodeId, body: Body) -> Message:
        return Message(
            sender=self.node_id,
            recipient=recipient,
            seq=self._seq.take(recipient),
            body=body,
        )

    def handle(self, message: Message) -> list[Message]:
        body = message.body
        if isinstance(body, UploadLocal):
            if self.stage != Stage.LOCAL_COMPUTE:
                self._violation(message)
                return []
            self.uploads[message.sender] = body
            return []
        if isinstance(body, LabelResponse):
            if self.stage != Stage.LABELING:
                self._violation(message)
            elif message.sender not in self.uploads:
                self.violations.append(
                    f"{self.node_id}: LabelResponse from non-participant {message.sender}"
                )
            elif len(body.torques) != len(self.candidates):
                self.violations.append(
                    f"{self.node_id}: LabelResponse from {message.sender} has "
                    f"{len(body.torques)} labels for {len(self.candidates)} candidates"
                )
            else:
                self.responses[message.sender] = body
            return []
        if isinstance(body, FineTuneAck):
            if self.stage != Stage.DISPATCHED:
                self._violation(message)
                return []
            self.acks[message.sender] = body.report
            return []
        self._violation(message)
        return []

    def _violation(self, message: Message) -> None:
        self.violations.append(
            f"{self.node_id}: {type(message.body).__name__} from {message.sender} "
            f"illegal in stage {self.stage.name}"
        )

    @property
    def participants(self) -> list[NodeId]:
        return sorted(self.uploads)

    def begin_round(self) -> list[Message]:
        """Fit the augmentation models, augment per robot, request labels."""
        if len(self.uploads) < self.config.min_uploads:
            raise ProtocolError(
                f"round needs {self.config.min_uploads} uploads, got {len(self.uploads)}"
            )
        self.stage = advance_stage(self.stage, Stage.CLOUD_AUGMENT)
        cfg = self.config
        pooled_layouts = [
            layout for node in self.participants for layout in self.uploads[node].layouts
        ]
        self.where = fit_where(pooled_layouts)
        self.what = fit_what(pooled_layouts)
        # The scorer's own threshold must sit strictly inside (0, 1); the
        # configured tau still decides acceptance, including at 0 and 1.
        fit_tau = cfg.tau if 0.0 < cfg.tau < 1.0 else 0.5
        self.scorer = fit_scorer(
            pooled_layouts, threshold=fit_tau, seed=cfg.augment_seed ^ 0xD15C
        )
        for node in self.participants:
            stats = AugmentStats()
            per_robot: list[AugmentationCandidate] = []
            for i, layout in enumerate(self.uploads[node].layouts):
                per_robot.extend(
                    augment_semantic(
                        layout,
                        fan_out=cfg.fan_out,
                        where=self.where,
                        what=self.what,
                        scorer=self.scorer,
                        seed=(cfg.augment_seed << 20) ^ (node.value << 10) ^ i,
                        threshold=cfg.tau,
                        budget_factor=cfg.budget_factor,
                        source_sample_id=i,
                        stats_out=stats,
                    )
                )
            self.stats[node] = stats
            self.candidates.extend((node, c) for c in per_robot)
        self.stage = advance_stage(self.stage, Stage.LABELING)
        if not self.candidates:
            return []
        return [
            self._msg(node, LabelRequest(scenarios=self._render_candidates(node)))
            for node in self.participants
        ]

    def _render_candidates(self, node: NodeId) -> tuple[DrivingSample, ...]:
        """Every candidate rendered in the node's uploaded style, unlabeled."""
        style = self.uploads[node].style
        rendered = []
        for idx, (_, candidate) in enumerate(self.candidates):
            seed = (self.config.augment_seed << 16) ^ (style.style << 8) ^ idx ^ 0x7E
            rendered.append(
                DrivingSample(
                    scenario=cross_render(candidate, style, seed),
                    semantic=candidate.semantic,
                    instances=candidate.instances,
                    label=None,
                    task=TaskType.STRAIGHT,
                    provenance=Provenance.AUGMENTED,
                )
            )
        return tuple(rendered)

    def finish_round(self) -> list[Message]:
        """Pool the robots' answers into labels, train, dispatch exactly once.

        Only robots that answered their LabelRequest receive a SharedModel.
        """
        cfg = self.config
        self.stage = advance_stage(self.stage, Stage.CLOUD_TRAIN)
        voters = [node for node in self.participants if node in self.responses]
        # voters x candidates: each answering robot's prediction per candidate.
        predictions = np.array(
            [self.responses[node].torques for node in voters], dtype=np.float64
        ).reshape(len(voters), len(self.candidates))
        pool = self.pool = {node: [] for node in self.participants}
        for source in self.participants:
            members = [
                k for k, node in enumerate(voters) if cfg.include_self_labels or node != source
            ]
            columns = [i for i, (node, _) in enumerate(self.candidates) if node == source]
            if not members or not columns:
                continue
            member_styles = [self.uploads[voters[k]].style for k in members]
            block = predictions[np.ix_(members, columns)]
            labels = [
                crowdsource_labels(block, member_styles, self.uploads[target].style)
                for target in self.participants
            ]
            features = batch_features_from_maps(
                [self.candidates[i][1].semantic for i in columns]
            )
            for j, feats in enumerate(features):
                pool[source].extend((feats, per_target[j]) for per_target in labels)
        all_rows = [row for rows in pool.values() for row in rows]
        if not all_rows:
            raise ProtocolError("no labeled augmented data to train on")
        prov = Provenance.CROWDSOURCED
        out: list[Message] = []
        # A robot that never answered its LabelRequest has gone silent: it
        # gets no shared model, so none is trained or encoded for it.
        if cfg.per_robot_shared:
            for node in voters:
                rows = pool[node] or all_rows
                self.shared[node] = train(
                    rows, ridge_lambda=cfg.ridge_lambda, provenances=[prov] * len(rows)
                )
        else:
            model = train(
                all_rows, ridge_lambda=cfg.ridge_lambda, provenances=[prov] * len(all_rows)
            )
            for node in voters:
                self.shared[node] = model
        self.stage = advance_stage(self.stage, Stage.DISPATCHED)
        for node in voters:
            if node in self._dispatched:
                raise ProtocolError(f"shared model already dispatched to {node}")
            self._dispatched.add(node)
            out.append(self._msg(node, SharedModel(policy=self.shared[node])))
        return out

    def finish(self) -> None:
        if self.stage == Stage.DISPATCHED:
            self.stage = advance_stage(self.stage, Stage.DONE)


# ---------------------------------------------------------------------------
# Round driver
# ---------------------------------------------------------------------------


@dataclass
class RoundResult:
    """Everything a round produced, keyed by robot node id."""

    participants: tuple[NodeId, ...]
    upload_bytes: dict[NodeId, bytes]
    shared: dict[NodeId, PolicyModel]
    tuned: dict[NodeId, PolicyModel]
    acks: dict[NodeId, EvaluationReport]
    stats: dict[NodeId, AugmentStats]
    stages: dict[NodeId, Stage]
    shared_received: dict[NodeId, int]
    pool_size: int
    violations: list[str] = field(default_factory=list)
    network_log: list[str] = field(default_factory=list)
    diagnostics: dict[NodeId, str] = field(default_factory=dict)


def run_round(
    robots: Sequence[RobotNode],
    cloud: CloudNode,
    network: Optional[SimNetwork] = None,
    drop_before_upload: Sequence[NodeId] = (),
    drop_after_upload: Sequence[NodeId] = (),
) -> RoundResult:
    """Execute one full round with deterministic node-order scheduling.

    Dropout injection: nodes in drop_before_upload never upload; nodes in
    drop_after_upload upload and then go silent. The logical deadline for
    each phase is one delivery pass over all nodes, so a silent robot delays
    nothing.
    """
    network = network if network is not None else SimNetwork()
    ordered = sorted(robots, key=lambda r: r.node_id.value)
    ids = [r.node_id for r in ordered]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("robot node ids must be unique")
    before = set(drop_before_upload)
    after = set(drop_after_upload)

    upload_bytes: dict[NodeId, bytes] = {}
    for robot in ordered:
        if robot.node_id in before:
            network.mark_down(robot.node_id)
            robot.drop_out("injected dropout before upload")
            continue
        message = robot.local_compute()
        if message is not None:
            upload_bytes[robot.node_id] = encode_message(message)
            network.send(message)
        if robot.node_id in after:
            network.mark_down(robot.node_id)
            robot.drop_out("injected dropout after upload")

    for message in network.deliver(cloud.node_id):
        cloud.handle(message)

    for message in cloud.begin_round():
        network.send(message)

    by_id = {r.node_id: r for r in ordered}
    for robot in ordered:
        for message in network.deliver(robot.node_id):
            for reply in robot.handle(message):
                network.send(reply)
    for message in network.deliver(cloud.node_id):
        cloud.handle(message)

    for message in cloud.finish_round():
        network.send(message)

    for robot in ordered:
        for message in network.deliver(robot.node_id):
            for reply in robot.handle(message):
                network.send(reply)
    for message in network.deliver(cloud.node_id):
        cloud.handle(message)

    cloud.finish()
    for robot in ordered:
        robot.finish()

    violations = list(cloud.violations)
    for robot in ordered:
        violations.extend(robot.violations)
    return RoundResult(
        participants=tuple(cloud.participants),
        upload_bytes=upload_bytes,
        shared=dict(cloud.shared),
        tuned={r.node_id: r.tuned for r in ordered if r.tuned is not None},
        acks=dict(cloud.acks),
        stats=dict(cloud.stats),
        stages={r.node_id: r.stage for r in ordered} | {cloud.node_id: cloud.stage},
        shared_received={r.node_id: r.shared_received for r in ordered},
        pool_size=sum(len(rows) for rows in cloud.pool.values()),
        violations=violations,
        network_log=list(network.log),
        diagnostics={
            r.node_id: r.diagnostic for r in ordered if r.diagnostic is not None
        },
    )
