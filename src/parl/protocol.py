"""Robot/cloud orchestration over a simulated in-process network.

One round of the peer-assisted pipeline:

1. Every robot fits its style to its own samples, segments and featurizes
   them, trains its local policy, featurizes its held-out split once, and
   uploads maps + style + policy to the cloud. A run perceives a robot's
   own samples only here: the experiment's local arm is the policy the
   robot uploads, evaluated on these held-out features.
2. The cloud fits the augmentation models on the pooled uploaded layouts
   and augments each robot's maps into scored candidates.
3. The cloud renders the full candidate batch in each participant's own
   style and sends it as a LabelRequest. Only the rendered pixels and the
   style id cross the wire: the candidate layouts stay on the cloud, as the
   robot must recover each map from what it sees. The robot segments every
   scenario and answers with its local policy's predictions
   (LabelResponse).
4. The answers are the labels: every answering robot, the candidate's
   source included, votes on every candidate, and each candidate is
   labeled once per participant style with the affinity-weighted mean of
   those votes, so a silent robot simply does not vote. The cloud
   featurizes the candidate maps once, pools one (features, label) row per
   participant style and candidate, trains one shared policy on the pool
   and dispatches it exactly once to each robot that answered.
5. Each robot fine-tunes toward the shared model on its training features
   from step 1 and acks with an evaluation report on its held-out features
   from step 1.

run_round drives the round and returns only the uploads' wire bytes. Every
other result is read from where the round left it: the cloud's
participants, candidates, pool, stats, shared models and acks, each
robot's tuned policy and shared-model count, every node's stage and
violations, and the network's log.

Messages travel as bytes through SimNetwork, so every hop exercises the
wire format. Determinism comes from a fixed scheduling order (node id),
not from timing; dropout is injected by marking nodes down, never by
exceptions. Node failures transition the node to DROPPED_OUT with a
diagnostic instead of crashing the round.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional, Sequence, Union

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
    decode_scenarios,
    encode_models,
    encode_scenarios,
)
from .config import ExperimentConfig
from .errors import ConfigurationError, DecodeError, ParlError, ProtocolError
from .policy import (
    EvaluationReport,
    FeatureVector,
    PolicyModel,
    crowdsource_labels,
    evaluate,
    features_from_maps,
    featurize,
    fine_tune,
    train,
)
from .styles import StyleModel, cross_render, fit_style
from .world import (
    DrivingSample,
    InstanceMap,
    Provenance,
    Scenario,
    SemanticMap,
    extract_instances,
    segment,
)

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
    """Rendered candidates a robot should label with its local policy.

    Each scenario is pixels plus the style id it was rendered in, in the
    cloud's candidate order. The candidates' semantic and instance maps stay
    on the cloud: the robot segments the pixels itself.
    """

    scenarios: tuple[Scenario, ...]

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
        return encode_scenarios(body.scenarios)
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
            return LabelRequest(scenarios=tuple(decode_scenarios(payload)))
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

    def send(self, message: Message) -> bytes:
        """Encode and enqueue the message; returns its wire bytes."""
        data = encode_message(message)
        self.sent += 1
        if message.sender in self._down or message.recipient in self._down:
            self.dropped += 1
            self.log.append(
                f"drop {type(message.body).__name__} {message.sender}->{message.recipient} (node down)"
            )
            return data
        self._inboxes.setdefault(message.recipient, []).append((message.sender, data))
        return data

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
        config: ExperimentConfig,
    ) -> None:
        if node_id.is_cloud:
            raise ConfigurationError("robot node ids must not set the cloud bit")
        self.node_id = node_id
        self.cloud_id = cloud_id
        self.train_samples = list(train_samples)
        self.holdout_samples = list(holdout_samples)
        self.config = config
        self.stage = Stage.LOCAL_COMPUTE
        self.style: Optional[StyleModel] = None
        self.policy: Optional[PolicyModel] = None
        # (features, label) per training sample from local_compute, reused
        # when fine-tuning: the robot featurizes its own data once.
        self.local_rows: list[tuple[FeatureVector, float]] = []
        # featurize(holdout_samples, style) from local_compute: every
        # evaluation on the held-out split reads these.
        self.holdout_features: list[FeatureVector] = []
        self.tuned: Optional[PolicyModel] = None
        self.ack_report: Optional[EvaluationReport] = None
        self.shared_received = 0
        self.diagnostic: Optional[str] = None
        self.violations: list[str] = []
        # Per-recipient strictly increasing sequence numbers.
        self._seq: defaultdict[NodeId, Iterator[int]] = defaultdict(itertools.count)

    def _msg(self, body: Body) -> Message:
        return Message(
            sender=self.node_id,
            recipient=self.cloud_id,
            seq=next(self._seq[self.cloud_id]),
            body=body,
        )

    def drop_out(self, diagnostic: str) -> None:
        self.stage = advance_stage(self.stage, Stage.DROPPED_OUT)
        self.diagnostic = diagnostic

    def local_compute(self) -> Optional[Message]:
        """Fit style, featurize both splits, train the local policy, upload.

        Any failure (missing palette class, degenerate training data)
        transitions this robot to DROPPED_OUT with a diagnostic; it never
        raises out of the round.
        """
        try:
            if not self.train_samples:
                raise ProtocolError("robot has no local samples")
            style = fit_style(self.train_samples)
            semantics = segment([s.scenario for s in self.train_samples], style)
            layouts = tuple((m, extract_instances(m.classes)) for m in semantics)
            if any(s.label is None for s in self.train_samples):
                raise ProtocolError("local sample is unlabeled")
            features = features_from_maps(semantics)
            dataset = [(f, s.label) for f, s in zip(features, self.train_samples)]
            policy = train(
                dataset,
                ridge_lambda=self.config.ridge_lambda,
                provenances=[s.provenance for s in self.train_samples],
            )
            holdout_features = featurize(self.holdout_samples, style)
        except ParlError as exc:
            self.drop_out(f"local compute failed: {exc}")
            return None
        self.style = style
        self.policy = policy
        self.local_rows = dataset
        self.holdout_features = holdout_features
        self.stage = advance_stage(self.stage, Stage.UPLOADED)
        return self._msg(UploadLocal(style=style, policy=policy, layouts=layouts))

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
                features = features_from_maps(segment(body.scenarios, self.style))
                torques = tuple(self.policy.predict(f) for f in features)
                return [self._msg(LabelResponse(torques=torques))]
            if isinstance(body, SharedModel):
                if self.stage not in (Stage.UPLOADED, Stage.LABELING) or self.tuned is not None:
                    self._violation(body)
                    return []
                self.tuned = fine_tune(
                    body.policy,
                    self.local_rows,
                    mix=self.config.beta,
                    provenances=[s.provenance for s in self.train_samples],
                )
                self.shared_received += 1
                self.ack_report = evaluate(
                    self.tuned, self.holdout_samples, self.style, self.config.fail_threshold,
                    features=self.holdout_features,
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

    def __init__(self, node_id: NodeId, config: ExperimentConfig) -> None:
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
        # Labeled (features, torque) rows: per participant style, then per
        # candidate.
        self.pool: list[tuple[FeatureVector, float]] = []
        self.where: Optional[WherePredictor] = None
        self.what: Optional[WhatPredictor] = None
        self.scorer: Optional[PlausibilityScorer] = None
        self.violations: list[str] = []
        self._seq: defaultdict[NodeId, Iterator[int]] = defaultdict(itertools.count)

    def _msg(self, recipient: NodeId, body: Body) -> Message:
        return Message(
            sender=self.node_id,
            recipient=recipient,
            seq=next(self._seq[recipient]),
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
        if not self.uploads:
            raise ProtocolError("round needs at least one upload")
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
            layouts = self.uploads[node].layouts
            seed_base = (cfg.augment_seed << 20) ^ (node.value << 10)
            per_robot = augment_semantic(
                layouts,
                fan_out=cfg.fan_out,
                where=self.where,
                what=self.what,
                scorer=self.scorer,
                seeds=[seed_base ^ i for i in range(len(layouts))],
                threshold=cfg.tau,
                stats_out=stats,
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

    def _render_candidates(self, node: NodeId) -> tuple[Scenario, ...]:
        """Every candidate rendered in the node's uploaded style."""
        style = self.uploads[node].style
        seed_base = (self.config.augment_seed << 16) ^ (style.style << 8) ^ 0x7E
        return tuple(
            cross_render(candidate, style, seed_base ^ idx)
            for idx, (_, candidate) in enumerate(self.candidates)
        )

    def finish_round(self) -> list[Message]:
        """Pool the robots' answers into labels, train, dispatch exactly once.

        Every answering robot votes on every candidate, and only robots that
        answered their LabelRequest receive a SharedModel.
        """
        self.stage = advance_stage(self.stage, Stage.CLOUD_TRAIN)
        voters = [node for node in self.participants if node in self.responses]
        voter_styles = [self.uploads[node].style for node in voters]
        # voters x candidates: each answering robot's prediction per candidate.
        predictions = np.array(
            [self.responses[node].torques for node in voters], dtype=np.float64
        ).reshape(len(voters), len(self.candidates))
        if voters:
            features = features_from_maps([c.semantic for _, c in self.candidates])
            for target in self.participants:
                labels = crowdsource_labels(predictions, voter_styles, self.uploads[target].style)
                self.pool.extend(zip(features, labels))
        if not self.pool:
            raise ProtocolError("no labeled augmented data to train on")
        model = train(
            self.pool,
            ridge_lambda=self.config.ridge_lambda,
            provenances=[Provenance.CROWDSOURCED] * len(self.pool),
        )
        self.stage = advance_stage(self.stage, Stage.DISPATCHED)
        # A robot that never answered its LabelRequest has gone silent: it
        # gets no shared model, so none is encoded for it.
        out: list[Message] = []
        for node in voters:
            self.shared[node] = model
            out.append(self._msg(node, SharedModel(policy=model)))
        return out

    def finish(self) -> None:
        if self.stage == Stage.DISPATCHED:
            self.stage = advance_stage(self.stage, Stage.DONE)


# ---------------------------------------------------------------------------
# Round driver
# ---------------------------------------------------------------------------


def run_round(
    robots: Sequence[RobotNode],
    cloud: CloudNode,
    network: Optional[SimNetwork] = None,
    drop_before_upload: Sequence[NodeId] = (),
    drop_after_upload: Sequence[NodeId] = (),
) -> dict[NodeId, bytes]:
    """Execute one full round with deterministic node-order scheduling.

    Returns each uploading robot's UploadLocal wire bytes; everything else
    the round produced stays on the nodes and the network.

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
            upload_bytes[robot.node_id] = network.send(message)
        if robot.node_id in after:
            network.mark_down(robot.node_id)
            robot.drop_out("injected dropout after upload")

    for message in network.deliver(cloud.node_id):
        cloud.handle(message)

    for message in cloud.begin_round():
        network.send(message)

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
    return upload_bytes
