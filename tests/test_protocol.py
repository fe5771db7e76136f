"""One protocol round on a small two-robot world: labels, dropout, violations,
sequencing and the wire format of every message variant."""

import functools
import hashlib
import json
import struct
import weakref
from dataclasses import replace

import numpy as np
import pytest

from parl import cli, harness
from parl.config import ExperimentConfig
from parl.errors import DecodeError, ProtocolError
from parl.harness import generate_worlds
from parl.codec import FORMAT_VERSION, MODEL_MAGIC, decode_models, encode_models, encode_scenarios
from parl.policy import N_FEATURES, crowdsource_labels, features_from_maps, train
from parl.protocol import (
    MESSAGE_MAGIC,
    CloudNode,
    FineTuneAck,
    LabelRequest,
    LabelResponse,
    Message,
    NodeId,
    RobotNode,
    SharedModel,
    SimNetwork,
    Stage,
    decode_message,
    encode_message,
    run_round,
)
from parl.styles import style_affinity
from parl.world import ClassId, Provenance, Scenario, segment

CONFIG = ExperimentConfig(robots=2, samples_per_task=3)


@pytest.fixture(scope="session")
def worlds():
    """Each robot's training split; a round holds no other data."""
    return generate_worlds(CONFIG)[1]


def _nodes(worlds, config=CONFIG):
    cloud_id = NodeId.cloud()
    robots = [RobotNode(NodeId.robot(i), cloud_id, worlds[i], config) for i in range(config.robots)]
    cloud = CloudNode(cloud_id, config)
    return robots, cloud


def _labeling(worlds):
    """Fresh nodes with every upload in and the cloud waiting for labels."""
    robots, cloud = _nodes(worlds)
    for robot in robots:
        cloud.handle(robot.local_compute())
    # begin_round renders the requests lazily; one full iteration takes them all.
    requests = list(cloud.begin_round())
    assert cloud.stage == Stage.LABELING
    return robots, cloud, requests


def _expected_labels(cloud, voters):
    """(features, label) per candidate, in the cloud's candidate order.

    The label is the mean, over the participant styles, of the voters'
    policies on the candidate map weighted by their affinity to that style.
    """
    expected = []
    for _, candidate in cloud.candidates:
        feats = features_from_maps([candidate.semantic])
        preds = np.array([cloud.uploads[v].policy.predict(feats)[0] for v in voters])
        per_target = []
        for target in cloud.participants:
            target_style = cloud.uploads[target].style
            w = np.array([style_affinity(target_style, cloud.uploads[v].style) for v in voters])
            per_target.append(float(np.dot(w / w.sum(), preds)))
        expected.append((feats[0], float(np.mean(per_target))))
    return expected


def _assert_pool(cloud, expected):
    """The pool holds each candidate's features and its expected label."""
    features, labels = cloud.pool
    assert features.shape == (len(cloud.candidates), N_FEATURES)
    assert len(labels) == len(expected)
    for row, label, (want_feats, want_label) in zip(features, labels, expected):
        assert row.tobytes() == want_feats.tobytes()
        assert label == pytest.approx(want_label, rel=0.0, abs=1e-12)


def _tiled_shared_model(cloud):
    """The shared model as the round fitted it before labels were pooled.

    Each candidate is labeled once per participant style, with that style
    as the only target; the label vectors are stacked and the candidates'
    features tiled to match, one copy per participant.
    """
    voters = [node for node in cloud.participants if node in cloud.responses]
    predictions = np.array([cloud.responses[node].torques for node in voters])
    voter_styles = [cloud.uploads[node].style for node in voters]
    labels = []
    for target in cloud.participants:
        labels += crowdsource_labels(predictions, voter_styles, [cloud.uploads[target].style])
    features = features_from_maps([c.semantic for _, c in cloud.candidates])
    return train(
        np.tile(features, (len(cloud.participants), 1)),
        labels,
        ridge_lambda=cloud.config.ridge_lambda,
        provenances=[Provenance.CROWDSOURCED] * len(labels),
    )


def _assert_tiled_fit(cloud):
    """The shared model's weights are the tiled fit's to within 1e-9 of their largest."""
    reference = _tiled_shared_model(cloud)
    scale = np.abs(reference.weights).max()
    assert np.abs(cloud.shared.weights - reference.weights).max() <= 1e-9 * scale
    assert cloud.shared.n_train == len(cloud.candidates)
    assert reference.n_train == len(cloud.candidates) * len(cloud.participants)


@pytest.fixture(scope="session")
def full_round(worlds):
    robots, cloud = _nodes(worlds)
    upload_bytes = run_round(robots, cloud, SimNetwork())
    return robots, cloud, upload_bytes


def test_labels_are_affinity_weighted_policy_predictions(full_round):
    robots, cloud, upload_bytes = full_round
    assert cloud.candidates, "the round must produce candidates to label"
    assert cloud.violations == [] and all(robot.violations == [] for robot in robots)
    assert set(cloud.responses) == {r.node_id for r in robots}
    assert cloud.acks == {r.node_id for r in robots}
    _assert_pool(cloud, _expected_labels(cloud, cloud.participants))
    assert cloud.stage == Stage.DONE
    assert all(robot.stage == Stage.DONE for robot in robots)
    assert sorted(upload_bytes) == [r.node_id for r in robots]
    assert all(decode_message(data).sender == node for node, data in upload_bytes.items())


def test_shared_model_does_not_depend_on_pool_order(full_round):
    robots, cloud, _ = full_round
    features, labels = cloud.pool
    reference = train(
        features[::-1],
        labels[::-1],
        ridge_lambda=CONFIG.ridge_lambda,
        provenances=[Provenance.CROWDSOURCED] * len(labels),
    )
    assert [r.shared_received for r in robots] == [1, 1]
    assert cloud.shared == reference
    _assert_tiled_fit(cloud)


# perfbench's bench size: three robots, three samples per task.
BENCH_CONFIG = ExperimentConfig(samples_per_task=3)


@pytest.fixture(scope="session")
def bench_round():
    robots, cloud = _nodes(generate_worlds(BENCH_CONFIG)[1], BENCH_CONFIG)
    run_round(robots, cloud, SimNetwork())
    assert set(cloud.responses) == set(cloud.participants) and len(cloud.participants) == 3
    return cloud


def test_bench_round_shared_model_is_the_tiled_fit(bench_round):
    _assert_tiled_fit(bench_round)


def test_bench_round_candidates_segment_back_to_their_maps(bench_round):
    """Cross-rendering then segmenting under the same style is the identity.

    Every candidate, rendered in every participant's uploaded style as its
    LabelRequest carries it, segments back to the candidate's class grid.
    """
    cloud = bench_round
    want = np.stack([c.semantic.classes for _, c in cloud.candidates])
    for node in cloud.participants:
        style = cloud.uploads[node].style
        seen = segment(cloud._render_candidates(node), style)
        assert np.array_equal(np.stack([m.classes for m in seen]), want), node


def test_dropped_robot_does_not_vote(worlds):
    robots, cloud = _nodes(worlds)
    dropped = robots[1].node_id
    network = SimNetwork()
    upload_bytes = run_round(robots, cloud, network, drop_after_upload=[dropped])
    assert robots[1].stage == Stage.DROPPED_OUT
    assert robots[0].stage == Stage.DONE
    assert cloud.stage == Stage.DONE
    assert cloud.participants == [robots[0].node_id, dropped]
    assert sorted(upload_bytes) == cloud.participants
    assert set(cloud.responses) == {robots[0].node_id}
    assert robots[1].shared_received == 0 and robots[1].tuned is None
    # The silent robot is sent no shared model: none is encoded or dropped.
    assert network.log == [f"drop LabelRequest {cloud.node_id}->{dropped} (node down)"]
    _assert_pool(cloud, _expected_labels(cloud, [robots[0].node_id]))
    _assert_tiled_fit(cloud)


def test_round_holds_one_label_request_at_a_time(worlds, monkeypatch):
    """Each request is sent and answered before the next is rendered.

    Every LabelRequest made, rendered by the cloud or decoded by a robot,
    counts the requests alive once it exists.
    """
    alive = []
    alive_at_creation = []
    post_init = LabelRequest.__post_init__

    def counted(self):
        post_init(self)
        token = object()
        alive.append(token)
        weakref.finalize(self, alive.remove, token)
        alive_at_creation.append(len(alive))

    monkeypatch.setattr(LabelRequest, "__post_init__", counted)
    robots, cloud = _nodes(worlds)
    network = SimNetwork()
    run_round(robots, cloud, network, drop_after_upload=[robots[0].node_id])
    # Both participants' requests are rendered; only robot-1 decodes its own.
    assert alive_at_creation == [1, 1, 1]
    assert robots[0].stage == Stage.DROPPED_OUT and robots[1].stage == Stage.DONE
    # Pinned from the round that rendered every request before sending one.
    assert network.log == [f"drop LabelRequest {cloud.node_id}->{robots[0].node_id} (node down)"]
    assert (network.sent, network.delivered, network.dropped) == (7, 6, 1)


def test_label_request_wire_bytes_are_pinned(small_dataset):
    """The framing joins a message once; its bytes are those it had when joined per layer."""
    request = LabelRequest(scenarios=tuple(s.scenario for s in small_dataset[:3]))
    data = encode_message(Message(NodeId.cloud(), NodeId.robot(1), 3, request))
    assert len(data) == 73776
    assert hashlib.sha256(data).hexdigest() == (
        "6a26fdc85d2d2c0aef01b936ff4e65c04830678f82556225847d8f842a06c61d"
    )


def test_six_robot_round_is_pinned(tmp_path, capsys):
    """Six robots at the benchmark's size: report.md and the protocol section.

    Neither depends on the host's BLAS, unlike the model bytes.
    """
    run_dir = tmp_path / "six"
    argv = ["--robots", "6", "--samples-per-task", "3", "--output-dir", str(run_dir)]
    assert cli.main(["run", "--check", *argv]) == 2
    assert cli.main(["eval", str(run_dir), "--verify"]) == 0
    capsys.readouterr()
    report_md = (run_dir / "report.md").read_bytes()
    protocol = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["protocol"]
    protocol_text = json.dumps(protocol, indent=2, sort_keys=True).encode()
    assert hashlib.sha256(report_md).hexdigest() == (
        "e81f418fcf82c4a864e0b68fe69933e3dfb43cf04c75db31a56eddc3025511a0"
    )
    assert hashlib.sha256(protocol_text).hexdigest() == (
        "2bf2993999f824df407f60cb0642a2a889e174af5cbd15e2474d4caecdd3a52d"
    )


def test_harness_writes_one_shared_model_sent_only_to_answering_robots(tmp_path, monkeypatch):
    dropped = NodeId.robot(1)
    monkeypatch.setattr(
        harness, "run_round", functools.partial(run_round, drop_after_upload=[dropped])
    )
    report = harness.run_experiment(replace(CONFIG, output_dir=str(tmp_path)))
    models = tmp_path / "models"
    assert sorted(p.name for p in models.glob("parl_shared*")) == ["parl_shared.dm1"]
    assert not (models / "parl_tuned_robot-1.dm1").exists()
    assert sorted(report["arms"]["parl"]) == ["robot-0"]
    assert report["protocol"] == {
        "participants": ["robot-0", "robot-1"],
        "stages": {"robot-0": "DONE", "robot-1": "DROPPED_OUT", "cloud-0": "DONE"},
        "shared_received": {"robot-0": 1, "robot-1": 0},
        "violations": [],
        "network_log": ["drop LabelRequest cloud-0->robot-1 (node down)"],
    }
    # The shared model trains on one row per accepted candidate.
    assert report["augmentation"]["accepted"] == 24
    [shared] = decode_models((models / "parl_shared.dm1").read_bytes())
    assert shared.n_train == 24


def test_round_without_uploads_raises(worlds):
    robots, cloud = _nodes(worlds)
    with pytest.raises(ProtocolError, match="at least one upload"):
        run_round(robots, cloud, SimNetwork(), drop_before_upload=[r.node_id for r in robots])
    assert all(robot.stage == Stage.DROPPED_OUT for robot in robots)


def test_duplicate_and_stale_seqs_are_discarded():
    network = SimNetwork()
    sender, recipient = NodeId.robot(0), NodeId.cloud()

    def message(seq):
        return Message(sender, recipient, seq, LabelResponse(torques=(0.5,)))

    assert network.send(message(0)) == encode_message(message(0))
    network.send(message(2))
    assert [m.seq for m in network.deliver(recipient)] == [0, 2]
    network.send(message(2))  # duplicate
    network.send(message(1))  # stale
    assert network.deliver(recipient) == []
    assert (network.sent, network.delivered, network.dropped) == (4, 2, 2)
    assert network.log == [
        "discard LabelResponse robot-0->cloud-0: seq 2 not above 2",
        "discard LabelResponse robot-0->cloud-0: seq 1 not above 2",
    ]
    network.send(message(3))
    assert [m.seq for m in network.deliver(recipient)] == [3]


def test_shared_model_before_upload_is_a_violation(worlds, full_round):
    _, done, _ = full_round
    robots, cloud = _nodes(worlds)
    robot = robots[0]
    shared = SharedModel(policy=done.shared)
    assert robot.handle(Message(cloud.node_id, robot.node_id, 0, shared)) == []
    assert robot.stage == Stage.LOCAL_COMPUTE
    assert robot.tuned is None and robot.shared_received == 0
    assert robot.violations == [f"{robot.node_id}: SharedModel illegal in stage LOCAL_COMPUTE"]


def test_fine_tune_ack_while_labeling_is_a_violation(worlds, full_round):
    _, done, _ = full_round
    robots, cloud, _ = _labeling(worlds)
    sender = robots[0].node_id
    assert sender in done.acks
    assert cloud.handle(Message(sender, cloud.node_id, 1, FineTuneAck())) == []
    assert cloud.stage == Stage.LABELING
    assert cloud.acks == set()
    assert cloud.violations == [
        f"{cloud.node_id}: FineTuneAck from {sender} illegal in stage LABELING"
    ]


def test_bad_label_responses_become_violations(worlds):
    robots, cloud, requests = _labeling(worlds)
    n = len(cloud.candidates)
    assert n > 0
    stranger = NodeId.robot(9)
    short = Message(robots[1].node_id, cloud.node_id, 0, LabelResponse(torques=(0.5,) * (n - 1)))
    foreign = Message(stranger, cloud.node_id, 0, LabelResponse(torques=(0.5,) * n))
    assert cloud.handle(short) == []
    assert cloud.handle(foreign) == []
    assert len(cloud.violations) == 2
    assert f"{n - 1} labels for {n} candidates" in cloud.violations[0]
    assert str(stranger) in cloud.violations[1]
    assert cloud.responses == {}
    # Only robot-0 answers for real; the short answer must not vote.
    [request] = [m for m in requests if m.recipient == robots[0].node_id]
    for reply in robots[0].handle(request):
        cloud.handle(reply)
    cloud.finish_round()
    _assert_pool(cloud, _expected_labels(cloud, [robots[0].node_id]))
    _assert_tiled_fit(cloud)


def test_second_finish_round_raises_and_sends_nothing(worlds):
    robots, cloud, requests = _labeling(worlds)
    for request in requests:
        for reply in robots[request.recipient.index].handle(request):
            cloud.handle(reply)
    dispatched = cloud.finish_round()
    assert sorted(m.recipient for m in dispatched) == [r.node_id for r in robots]
    shared = cloud.shared
    with pytest.raises(ProtocolError, match="from DISPATCHED to CLOUD_TRAIN"):
        cloud.finish_round()
    assert cloud.stage == Stage.DISPATCHED
    assert cloud.shared is shared


def test_retired_augmented_set_tag_is_rejected():
    message = Message(NodeId.cloud(), NodeId.robot(0), 0, LabelResponse(torques=(0.5,)))
    data = bytearray(encode_message(message))
    tag_at = len(MESSAGE_MAGIC) + 2 + 2 + 2 + 8  # version, sender, recipient, seq
    assert data[tag_at] == 0xD4
    data[tag_at] = 0xB2
    with pytest.raises(DecodeError):
        decode_message(bytes(data))


def test_report_command_prints_report_md(tmp_path, capsys):
    run_dir = tmp_path / "run"
    argv = ["--robots", "2", "--samples-per-task", "3", "--output-dir", str(run_dir)]
    assert cli.main(["run", *argv]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(run_dir)]) == 0
    assert capsys.readouterr().out == (run_dir / "report.md").read_text(encoding="utf-8")


# magic, version, sender, recipient, seq, tag; the u32 payload length follows.
_BEFORE_LENGTH = len(MESSAGE_MAGIC) + 2 + 2 + 2 + 8 + 1
_HEADER = _BEFORE_LENGTH + 4


@pytest.fixture(scope="session")
def round_messages(worlds):
    """One message of every variant, from a round driven by hand."""
    robots, cloud = _nodes(worlds)
    uploads = [robot.local_compute() for robot in robots]
    for upload in uploads:
        cloud.handle(upload)
    requests = list(cloud.begin_round())
    responses = [m for r in requests for m in robots[r.recipient.index].handle(r)]
    for response in responses:
        cloud.handle(response)
    shared = cloud.finish_round()
    acks = [m for s in shared for m in robots[s.recipient.index].handle(s)]
    return {
        "upload": uploads[0],
        "request": requests[0],
        "response": responses[0],
        "shared": shared[0],
        "ack": acks[0],
    }


def _with_payload(message, payload: bytes) -> bytes:
    """The message's wire bytes with its payload replaced."""
    head = encode_message(message)[:_BEFORE_LENGTH]
    return head + len(payload).to_bytes(4, "little") + payload


def test_fine_tune_ack_carries_an_empty_container_and_nothing_else(round_messages):
    """The ack is a stage transition: its payload is a model container with no items.

    It once carried the robot's evaluation report as a kind-7 record; that
    payload, or any other item, is now a DecodeError.
    """
    ack = round_messages["ack"]
    data = encode_message(ack)
    assert data[_HEADER:] == encode_models([])
    assert decode_message(data) == ack
    entry = bytes([8]) + b"straight" + struct.pack("<ddI", 0.1, 0.5, 2)
    report = bytes([7]) + struct.pack("<H", 1) + entry + struct.pack("<ddd", 0.1, 0.5, 0.05)
    retired = MODEL_MAGIC + struct.pack("<HII", FORMAT_VERSION, 1, len(report)) + report
    others = [
        b"",
        retired,
        encode_models([np.zeros(3)]),
        encode_models([round_messages["shared"].body.policy]),
    ]
    for payload in others:
        with pytest.raises(DecodeError):
            decode_message(_with_payload(ack, payload))
    with pytest.raises(DecodeError, match="unknown model record kind 7"):
        decode_message(_with_payload(ack, retired))


def test_label_request_carries_only_scenarios(round_messages):
    request = round_messages["request"]
    scenarios = request.body.scenarios
    assert scenarios and all(type(s) is Scenario for s in scenarios)
    data = encode_message(request)
    pixels = sum(s.pixels.size for s in scenarios)
    # count, then per scenario height, width and style id, then f32 pixels.
    assert len(data) == _HEADER + 4 + 6 * len(scenarios) + 4 * pixels
    decoded = decode_message(data).body
    assert decoded == request.body


def test_robot_labels_each_scenario_as_its_own_segmentation_reads(worlds):
    robots, cloud, requests = _labeling(worlds)
    for request in requests:
        robot = robots[request.recipient.index]
        [reply] = robot.handle(request)
        expected = tuple(
            robot.policy.predict(features_from_maps(segment([scenario], robot.style)))[0]
            for scenario in request.body.scenarios
        )
        assert reply.body.torques == expected


@pytest.mark.parametrize("variant", ["upload", "request", "response", "shared", "ack"])
def test_bit_flips_decode_or_raise_decode_error(round_messages, variant):
    """1-3 flipped bits past the message header, 500 seeded trials per variant."""
    blob = encode_message(round_messages[variant])
    rng = np.random.default_rng(2026)
    for _ in range(500):
        data = bytearray(blob)
        n_flips = int(rng.integers(1, 4))
        for bit in rng.choice((len(blob) - _HEADER) * 8, size=n_flips, replace=False):
            data[_HEADER + bit // 8] ^= 1 << (bit % 8)
        try:
            assert isinstance(decode_message(bytes(data)), Message)
        except DecodeError:
            pass


def test_truncated_label_request_is_a_decode_error(round_messages):
    data = encode_message(round_messages["request"])
    for cut in (_HEADER - 1, _HEADER + 3, _HEADER + 9, len(data) // 2, len(data) - 1):
        with pytest.raises(DecodeError):
            decode_message(data[:cut])
    # A payload cut short inside a correctly framed message.
    payload = data[_HEADER:]
    with pytest.raises(DecodeError, match="truncated scenario list"):
        decode_message(_with_payload(round_messages["request"], payload[:-1]))


def test_label_request_with_trailing_bytes_is_a_decode_error(round_messages):
    request = round_messages["request"]
    with pytest.raises(DecodeError):
        decode_message(encode_message(request) + b"\x00")
    payload = encode_message(request)[_HEADER:]
    with pytest.raises(DecodeError, match="trailing bytes in scenario list"):
        decode_message(_with_payload(request, payload + b"\x00"))


def test_label_request_with_nan_pixel_is_a_decode_error(round_messages):
    data = bytearray(encode_message(round_messages["request"]))
    data[-4:] = np.float32(np.nan).astype("<f4").tobytes()
    with pytest.raises(DecodeError, match="lie in \\[0, 1\\]"):
        decode_message(bytes(data))


def test_label_request_without_scenarios_is_a_decode_error(round_messages):
    data = _with_payload(round_messages["request"], encode_scenarios([]))
    with pytest.raises(DecodeError, match="at least one scenario"):
        decode_message(data)


def test_label_request_with_scenario_below_16x16_is_a_decode_error(round_messages):
    small = Scenario(pixels=np.full((15, 32, 3), 0.5, dtype=np.float32), style=0)
    data = _with_payload(round_messages["request"], encode_scenarios([small]))
    with pytest.raises(DecodeError, match="15x32"):
        decode_message(data)


def _painted(style, classes):
    """A scenario whose every cell is its class's mean under style."""
    return Scenario(pixels=style.class_means[classes].astype(np.float32), style=style.style)


def test_label_request_with_a_roadless_scenario_drops_the_robot(worlds):
    robots, _, requests = _labeling(worlds)
    request = requests[0]
    robot = robots[request.recipient.index]
    good = list(request.body.scenarios)
    # Road in the top rows only: segments, but has no road in the near band.
    far_road = np.full((32, 64), ClassId.VEGETATION, dtype=np.uint8)
    far_road[:4] = ClassId.ROAD
    roadless = np.full((32, 64), ClassId.VEGETATION, dtype=np.uint8)
    scenarios = (
        good[:3]
        + [_painted(robot.style, far_road)]
        + good[3:9]
        + [_painted(robot.style, roadless)]
        + good[9:]
    )
    bad = replace(request, body=replace(request.body, scenarios=tuple(scenarios)))
    assert robot.handle(bad) == []
    assert robot.stage == Stage.DROPPED_OUT
    # Every scenario is segmented before any is featurized, so the roadless
    # scenario's error wins over the earlier near-band one.
    assert robot.diagnostic == (
        "failed handling LabelRequest: segmented scenario contains no road cells"
    )


def test_label_request_failing_only_featurization_names_the_near_band(worlds):
    robots, _, requests = _labeling(worlds)
    request = requests[0]
    robot = robots[request.recipient.index]
    far_road = np.full((32, 64), ClassId.VEGETATION, dtype=np.uint8)
    far_road[:4] = ClassId.ROAD
    scenarios = request.body.scenarios[:5] + (_painted(robot.style, far_road),)
    bad = replace(request, body=replace(request.body, scenarios=scenarios))
    assert robot.handle(bad) == []
    assert robot.diagnostic == "failed handling LabelRequest: no road cells in the near band"
