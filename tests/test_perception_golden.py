"""Golden values for perception: `segment` and `featurize`.

Pins, bit for bit, what the perception step returns on the shared test
world's 18 samples and on their colour-jitter and random-crop outputs, each
read under three styles: the samples' own style, the other agent's style and
the pooled style of both agents' data. Per (input set, style) it pins one
sha256 over every sample's segment output and the extract_instances layout
of its classes (class bytes, instance-grid bytes, records), one over every
sample's feature bytes, and the type of the exception for each sample that
raises instead.

The values were recorded from the per-class, per-component perception code
that predates the vectorized kernels. They are the contract every rewrite of
`segment`, `extract_instances`, `InstanceMap` validation or the feature
kernels must meet exactly: never regenerate them to make a change pass.
"""

import hashlib

import pytest

from parl.baselines import baseline_color_jitter, baseline_random_resized_crop, pooled_style
from parl.errors import ParlError
from parl.policy import featurize
from parl.world import TaskType, extract_instances, generate_dataset, segment


def _inputs(small_dataset):
    return {
        "sample": list(small_dataset),
        "jitter": [baseline_color_jitter(s, 7_000 + i) for i, s in enumerate(small_dataset)],
        "crop": [baseline_random_resized_crop(s, 9_000 + i) for i, s in enumerate(small_dataset)],
    }


def _styles(styles, profile, small_dataset):
    tasks = [task for task in TaskType for _ in range(6)]
    other = generate_dataset(styles[1], profile, tasks, list(range(100, 100 + len(tasks))))
    return {
        "own": styles[0],
        "other": styles[1],
        "pooled": pooled_style(list(small_dataset) + other),
    }


def _segment_bytes(sample, style) -> bytes:
    (semantic,) = segment([sample.scenario], style)
    instances = extract_instances(semantic.classes)
    table = instances.records
    records = [
        (i, c, tuple(b), tuple(a))
        for i, c, b, a in zip(
            table["id"].tolist(), table["cls"].tolist(), table["bbox"].tolist(), table["affine"].tolist()
        )
    ]
    return (
        semantic.classes.tobytes()
        + instances.instance_grid.tobytes()
        + repr(records).encode()
    )


def _feature_bytes(sample, style) -> bytes:
    (features,) = featurize([sample], style)
    return features.tobytes()


def _digest(samples, style, fn):
    """sha256 over every sample's bytes, plus the samples that raise.

    Only ParlError subclasses are recorded; any other exception fails the test.
    """
    h = hashlib.sha256()
    raised = []
    for i, sample in enumerate(samples):
        try:
            data = fn(sample, style)
        except ParlError as exc:
            raised.append((i, type(exc).__name__))
            data = b"raise:" + type(exc).__name__.encode()
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), raised


def digests(styles, profile, small_dataset) -> dict:
    named = _styles(styles, profile, small_dataset)
    out = {}
    for set_name, samples in _inputs(small_dataset).items():
        for style_name, style in named.items():
            for kind, fn in (("segment", _segment_bytes), ("featurize", _feature_bytes)):
                out[f"{set_name}/{style_name}/{kind}"] = _digest(samples, style, fn)
    return out


GOLDEN = {
    "crop/other/featurize": (
        "154a3a9138cc6b5da0eb30706d7a19fc0a44dcb43f4173caf9511b948270b7f4",
        [],
    ),
    "crop/other/segment": (
        "20e3573072f507be02869f23292e54d577533fdf9d9c6d05b2f67b81a8250287",
        [],
    ),
    "crop/own/featurize": (
        "1e5c03d52cf3e22f7a82741bf1581ef6ae9a5fa6e4e303676eba19a61d43e48f",
        [],
    ),
    "crop/own/segment": (
        "91b51f8e7e68de70bf5ffa5f56575f5e6abf9fc5bc2761f86bab93d12bbd7ccc",
        [],
    ),
    "crop/pooled/featurize": (
        "efe7932eecb62b5ba336eb4faa87079aa30c0112a0e12c7cfaef312930dd358a",
        [],
    ),
    "crop/pooled/segment": (
        "3c4f3be5940d3ed23a0c14bd987e226b595d955deeb409672354576c9f671284",
        [],
    ),
    "jitter/other/featurize": (
        "1aa91126592df649b4e9c3d8e64c75e764a7326def95448b938be1b48be19e00",
        [],
    ),
    "jitter/other/segment": (
        "b16081c0b7314e60ff3f733d5892e27a5ea75526c624e8935e88a1cc76d2b014",
        [],
    ),
    "jitter/own/featurize": (
        "cf9daf79d1b65d948122994559535cbc6d4b7c4e3e6d3e86e37fe2c696caf559",
        [],
    ),
    "jitter/own/segment": (
        "fcb93f38222c8bd0860ae5c65b13bfbb2a9aab71823615950328311fd117d2de",
        [],
    ),
    "jitter/pooled/featurize": (
        "7c87fc95ace2aa90a6000086648b6cfbd0dc7803b6734d98ce396a997a7e006e",
        [
            (3, "DegenerateInputError"),
            (4, "DegenerateInputError"),
            (6, "DegenerateInputError"),
            (7, "DegenerateInputError"),
        ],
    ),
    "jitter/pooled/segment": (
        "750fe757d29257869ce1ce4a52e3eef41d8f2b0602253edc0f10ce2b186f9578",
        [
            (3, "DegenerateInputError"),
            (4, "DegenerateInputError"),
            (6, "DegenerateInputError"),
            (7, "DegenerateInputError"),
        ],
    ),
    "sample/other/featurize": (
        "ebd45389894a3384cb7f4eae32e66b4d73965f51807fa345b53c7264e1a0edb7",
        [],
    ),
    "sample/other/segment": (
        "e22952d5cc4f50b609ebfb67c4716e20b2af8a18ee4a1ec0e8d0f9300c534c5b",
        [],
    ),
    "sample/own/featurize": (
        "107c13510249f65875c37b401d14489e8ab4730c507359fa88376b0d9b7f36c1",
        [],
    ),
    "sample/own/segment": (
        "8a8fd2d3959b8995767fa2836a74d41bc6c176f74df1cb8d2253fd4475077b94",
        [],
    ),
    "sample/pooled/featurize": (
        "63fd0c87f0cade84821b258f8c4ba3789630055aa17f16ad8481ef1d2693f4d7",
        [],
    ),
    "sample/pooled/segment": (
        "bea57fbfc0de46bf0bb47b775b825334c1a1f564afed44c76e1b8ababf6ed7a2",
        [],
    ),
}


@pytest.fixture(scope="module")
def computed(styles, profile, small_dataset):
    return digests(styles, profile, small_dataset)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_perception_matches_golden(computed, key):
    digest, raised = computed[key]
    want_digest, want_raised = GOLDEN[key]
    assert raised == want_raised
    assert digest == want_digest


def test_golden_covers_every_case(computed):
    assert sorted(computed) == sorted(GOLDEN)


@pytest.mark.parametrize("set_name", ["sample", "jitter", "crop"])
def test_batched_perception_matches_one_sample_at_a_time(
    styles, profile, small_dataset, set_name
):
    """One segment and one featurize call per (input set, style) give the pinned per-sample bytes."""
    samples = _inputs(small_dataset)[set_name]
    for style in _styles(styles, profile, small_dataset).values():
        kept, first_error = [], None
        for sample in samples:
            try:
                kept.append((sample, _feature_bytes(sample, style)))
            except ParlError as exc:
                first_error = first_error or exc
        if first_error is not None:
            with pytest.raises(type(first_error), match=str(first_error)):
                featurize(samples, style)
        ok = [sample for sample, _ in kept]
        maps = segment([s.scenario for s in ok], style)
        assert [m.classes.tobytes() for m in maps] == [
            segment([s.scenario], style)[0].classes.tobytes() for s in ok
        ]
        assert [f.tobytes() for f in featurize(ok, style)] == [f for _, f in kept]
