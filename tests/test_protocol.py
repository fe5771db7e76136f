"""One protocol round on a small two-robot world: labels, dropout, violations,
sequencing and the wire format of every message variant."""

import functools
from dataclasses import replace

import numpy as np
import pytest

from parl import cli, harness
from parl.config import ExperimentConfig
from parl.errors import DecodeError, ProtocolError
from parl.harness import generate_worlds
from parl.codec import encode_scenarios
from parl.policy import features_from_maps, train
from parl.protocol import (
    MESSAGE_MAGIC,
    CloudNode,
    FineTuneAck,
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
    return generate_worlds(CONFIG)[1:]


def _nodes(worlds):
    train, holdout = worlds
    cloud_id = NodeId.cloud()
    robots = [
        RobotNode(NodeId.robot(i), cloud_id, train[i], holdout[i], CONFIG)
        for i in range(CONFIG.robots)
    ]
    cloud = CloudNode(cloud_id, CONFIG)
    return robots, cloud


def _labeling(worlds):
    """Fresh nodes with every upload in and the cloud waiting for labels."""
    robots, cloud = _nodes(worlds)
    for robot in robots:
        cloud.handle(robot.local_compute())
    requests = cloud.begin_round()
    assert cloud.stage == Stage.LABELING
    return robots, cloud, requests


def _expected_labels(cloud, voters):
    """The affinity-weighted mean of the voters' policies on each candidate map.

    Rows follow the pool's order: per participant style the candidates were
    rendered in, per candidate.
    """
    expected = []
    for target in cloud.participants:
        target_style = cloud.uploads[target].style
        w = np.array([style_affinity(target_style, cloud.uploads[v].style) for v in voters])
        for _, candidate in cloud.candidates:
            (feats,) = features_from_maps([candidate.semantic])
            preds = np.array([cloud.uploads[v].policy.predict(feats) for v in voters])
            expected.append((feats, float(np.dot(w / w.sum(), preds))))
    return expected


def _assert_pool(cloud, expected):
    assert len(cloud.pool) == len(expected)
    for (feats, label), (want_feats, want_label) in zip(cloud.pool, expected):
        assert feats == want_feats
        assert label == pytest.approx(want_label, rel=0.0, abs=1e-12)


@pytest.fixture(scope="session")
def full_round(worlds):
    robots, cloud = _nodes(worlds)
    upload_bytes = run_round(robots, cloud)
    return robots, cloud, upload_bytes


def test_labels_are_affinity_weighted_policy_predictions(full_round):
    robots, cloud, upload_bytes = full_round
    assert cloud.candidates, "the round must produce candidates to label"
    assert cloud.violations == [] and all(robot.violations == [] for robot in robots)
    assert set(cloud.responses) == {r.node_id for r in robots}
    _assert_pool(cloud, _expected_labels(cloud, cloud.participants))
    assert len(cloud.pool) == len(cloud.candidates) * len(cloud.participants)
    assert cloud.stage == Stage.DONE
    assert all(robot.stage == Stage.DONE for robot in robots)
    assert sorted(upload_bytes) == [r.node_id for r in robots]
    assert all(decode_message(data).sender == node for node, data in upload_bytes.items())


def test_shared_model_does_not_depend_on_pool_order(full_round):
    robots, cloud, _ = full_round
    reference = train(
        list(reversed(cloud.pool)),
        ridge_lambda=CONFIG.ridge_lambda,
        provenances=[Provenance.CROWDSOURCED] * len(cloud.pool),
    )
    assert sorted(cloud.shared) == [r.node_id for r in robots]
    assert all(model == reference for model in cloud.shared.values())


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
    assert set(cloud.shared) == {robots[0].node_id}
    assert network.log == [f"drop LabelRequest {cloud.node_id}->{dropped} (node down)"]
    _assert_pool(cloud, _expected_labels(cloud, [robots[0].node_id]))


def test_harness_writes_shared_models_only_for_answering_robots(tmp_path, monkeypatch):
    dropped = NodeId.robot(1)
    monkeypatch.setattr(
        harness, "run_round", functools.partial(run_round, drop_after_upload=[dropped])
    )
    report = harness.run_experiment(replace(CONFIG, output_dir=str(tmp_path)))
    models = tmp_path / "models"
    assert (models / "parl_shared_robot-0.dm1").exists()
    assert not (models / "parl_shared_robot-1.dm1").exists()
    assert not (models / "parl_tuned_robot-1.dm1").exists()
    assert sorted(report.arms["parl"]) == ["robot-0"]
    assert report.protocol == {
        "participants": ["robot-0", "robot-1"],
        "stages": {"robot-0": "DONE", "robot-1": "DROPPED_OUT", "cloud-0": "DONE"},
        "shared_received": {"robot-0": 1, "robot-1": 0},
        "violations": [],
        "network_log": ["drop LabelRequest cloud-0->robot-1 (node down)"],
    }
    # One row per candidate and participant style, the silent robot's included.
    assert report.augmentation["accepted"] == 24
    assert report.augmentation["pool_size"] == 48


def test_round_without_uploads_raises(worlds):
    robots, cloud = _nodes(worlds)
    with pytest.raises(ProtocolError, match="at least one upload"):
        run_round(robots, cloud, drop_before_upload=[r.node_id for r in robots])
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
    shared = SharedModel(policy=done.shared[robot.node_id])
    assert robot.handle(Message(cloud.node_id, robot.node_id, 0, shared)) == []
    assert robot.stage == Stage.LOCAL_COMPUTE
    assert robot.tuned is None and robot.shared_received == 0
    assert robot.violations == [f"{robot.node_id}: SharedModel illegal in stage LOCAL_COMPUTE"]


def test_fine_tune_ack_while_labeling_is_a_violation(worlds, full_round):
    _, done, _ = full_round
    robots, cloud, _ = _labeling(worlds)
    sender = robots[0].node_id
    ack = FineTuneAck(report=done.acks[sender])
    assert cloud.handle(Message(sender, cloud.node_id, 1, ack)) == []
    assert cloud.stage == Stage.LABELING
    assert cloud.acks == {}
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


def test_second_finish_round_raises_and_sends_nothing(worlds):
    robots, cloud, requests = _labeling(worlds)
    for request in requests:
        for reply in robots[request.recipient.index].handle(request):
            cloud.handle(reply)
    dispatched = cloud.finish_round()
    assert sorted(m.recipient for m in dispatched) == [r.node_id for r in robots]
    shared = dict(cloud.shared)
    with pytest.raises(ProtocolError, match="from DISPATCHED to CLOUD_TRAIN"):
        cloud.finish_round()
    assert cloud.stage == Stage.DISPATCHED
    assert cloud.shared == shared


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
    requests = cloud.begin_round()
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
            robot.policy.predict(features_from_maps(segment([scenario], robot.style))[0])
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
