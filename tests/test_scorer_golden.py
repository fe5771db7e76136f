"""Golden values for the plausibility scorer.

Pins `raw_score` bit for bit on a fixed corpus built from the shared test
world: the 18 real layouts, the corruptions of seed 777, a fixed list of
insertion candidates, and a few edge layouts (no instances, grids whose
sides are not a multiple of the pool factors, and a fragmented instance).
Each group is scored both as one batch and one layout at a time, against
the same pins. It also pins the diagnostics JSON and the calibration of the
scorer fitted on the real layouts.

The values were recorded from the full-grid scorer that predates the
per-instance crop evaluation. They are the contract every rewrite of the
scoring path must meet exactly: never regenerate them to make a change pass.
"""

import hashlib

import numpy as np
import pytest

from parl.augment import _insertion_base, diagnostics_json, make_corruptions, sample_insertion
from parl.world import BACKGROUND_ID, ClassId, InstanceMap, SemanticMap

# (layout index, class, seed); every entry yields a candidate.
INSERTIONS = [
    (i, cls, 1000 * i + extra)
    for i in range(18)
    for cls, extra in (
        (ClassId.CAR, 1 if i in (6, 11, 12, 17) else 0),
        (ClassId.PEDESTRIAN, 0),
    )
]


def _bbox(mask):
    ys, xs = np.nonzero(mask)
    return int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1)


def _window(layout, rows, cols):
    """The layout cut to a window; records keep their ids, bboxes are refit."""
    semantic, instances = layout
    classes = semantic.classes[rows, cols]
    grid = instances.instance_grid[rows, cols]
    records = instances.records.copy()
    for k, inst_id in enumerate(records["id"].tolist()):
        mask = grid == inst_id
        if mask.any():
            records["bbox"][k] = _bbox(mask)
    return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)


def _without_instances(layout):
    semantic, instances = layout
    grid = np.full(instances.instance_grid.shape, BACKGROUND_ID, dtype=np.int32)
    return semantic, InstanceMap(instance_grid=grid, records=[])


def _fragmented(layout):
    """The first record that fits gets a disjoint copy of its cells just below it."""
    semantic, instances = layout
    grid = instances.instance_grid.copy()
    classes = semantic.classes.copy()
    records = instances.records
    for k, (inst_id, cls) in enumerate(zip(records["id"].tolist(), records["cls"].tolist())):
        ys, xs = np.nonzero(grid == inst_id)
        if ys.size == 0:
            continue
        ys = ys + int(ys.max() - ys.min()) + 2
        if ys.max() >= grid.shape[0] or (grid[ys, xs] != BACKGROUND_ID).any():
            continue
        grid[ys, xs] = inst_id
        classes[ys, xs] = cls
        records = records.copy()
        records["bbox"][k] = _bbox(grid == inst_id)
        return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)
    raise AssertionError("no record can be fragmented")


def _edge_layouts(layouts):
    return [
        _without_instances(layouts[0]),
        _without_instances(layouts[13]),
        _window(layouts[1], slice(0, 31), slice(0, 63)),
        _window(layouts[7], slice(1, 32), slice(3, 64)),
        _window(layouts[14], slice(2, 29), slice(5, 63)),
        _fragmented(layouts[3]),
    ]


@pytest.fixture(scope="module")
def corpus(layouts, predictors):
    where, what = predictors
    inserted = []
    for i, cls, seed in INSERTIONS:
        candidate = sample_insertion(where, what, _insertion_base(layouts[i]), cls, seed)
        assert candidate is not None
        inserted.append((candidate.semantic, candidate.instances))
    return {
        "real": list(layouts),
        "corrupt": make_corruptions(layouts, seed=777),
        "inserted": inserted,
        "edge": _edge_layouts(layouts),
    }


RAW_HEX = {
    "corrupt": [
        "0x1.ac7c585e4d9c3p-3",
        "0x1.ae5af460a2e49p-3",
        "0x1.b75a801a5f7e3p-3",
        "0x1.b0d42e7025a15p-3",
        "0x1.687b6c324e058p-4",
        "0x1.5fb366bc2f44dp-4",
        "0x1.114b979d1ed67p-4",
        "0x1.195bae241aa54p-4",
        "0x1.b488889b89b20p-3",
        "0x1.bcdbc42317798p-2",
        "0x1.3d0ab11055114p-1",
        "0x1.407b9f1b47de3p-1",
    ],
    "edge": [
        "0x1.f1cb3675cc7d5p-1",
        "0x1.edc6389b524c4p-1",
        "0x1.aff1a5aaba451p-1",
        "0x1.b3499bb2b97adp-1",
        "0x1.b4a28cca0cb4dp-1",
        "0x1.9b8d2c45dc908p-1",
    ],
    "inserted": [
        "0x1.af26e8f602710p-1",
        "0x1.af26e8f602710p-1",
        "0x1.9a22890194cf8p-1",
        "0x1.aff1a5aaba451p-1",
        "0x1.40979c1ba8f94p-1",
        "0x1.ba7d8084198c3p-1",
        "0x1.88f541a743888p-2",
        "0x1.b9044478245d4p-1",
        "0x1.bb4e27d102f4dp-1",
        "0x1.bb4e27d102f4dp-1",
        "0x1.ad560e0fa7838p-1",
        "0x1.b5d409469a4b5p-1",
        "0x1.98365e5f29431p-1",
        "0x1.b6231802ba1b5p-1",
        "0x1.b61dcd29a57cbp-1",
        "0x1.b774792afc28bp-1",
        "0x1.91e3e283dab2dp-2",
        "0x1.bf15979c1acb9p-1",
        "0x1.b916d0c723d0fp-3",
        "0x1.ad6f0938fe65dp-1",
        "0x1.a6a483c7db2dbp-1",
        "0x1.a6a483c7db2dbp-1",
        "0x1.b168e1c3e319bp-1",
        "0x1.b6dd72261b63cp-1",
        "0x1.917a798d964ebp-2",
        "0x1.b378b2b428483p-1",
        "0x1.b76073d3578d8p-1",
        "0x1.ba9718a7a0af8p-1",
        "0x1.ba5d60b55f8b3p-1",
        "0x1.bce2bf7f20b5cp-1",
        "0x1.b6e66bcb11878p-1",
        "0x1.bfa309a5b1c70p-1",
        "0x1.4130bb35fa51dp-1",
        "0x1.bb1e4a605e871p-1",
        "0x1.ba38293607d9fp-1",
        "0x1.ba38293607d9fp-1",
    ],
    "real": [
        "0x1.af26e8f602710p-1",
        "0x1.aff1a5aaba451p-1",
        "0x1.ba7d8084198c3p-1",
        "0x1.b9044478245d4p-1",
        "0x1.bb4e27d102f4dp-1",
        "0x1.b5d409469a4b5p-1",
        "0x1.b6231802ba1b5p-1",
        "0x1.b774792afc28bp-1",
        "0x1.bf15979c1acb9p-1",
        "0x1.b199e6b14113bp-1",
        "0x1.a6a483c7db2dbp-1",
        "0x1.b6dd72261b63cp-1",
        "0x1.b38adf2a8fb61p-1",
        "0x1.ba9718a7a0af8p-1",
        "0x1.bf79b4df296c0p-1",
        "0x1.bfa309a5b1c70p-1",
        "0x1.bb1e4a605e871p-1",
        "0x1.ba38293607d9fp-1",
    ],
}

DIAGNOSTICS_SHA256 = "63d0a02d5e66666c5fd0e9b66bf8fa3a9c577d6f28a9d4f3d7c11446c6d7920d"

CALIBRATION_HEX = ["0x1.7f22ee4664321p-1", "-0x1.4efab10127800p-5"]


@pytest.mark.parametrize("group", sorted(RAW_HEX))
def test_raw_score_golden(corpus, scorer, group):
    batch = [float(v).hex() for v in scorer.raw_score(corpus[group])]
    alone = [float(scorer.raw_score([layout])[0]).hex() for layout in corpus[group]]
    assert batch == RAW_HEX[group]
    assert alone == RAW_HEX[group]


def test_diagnostics_json_golden(layouts, scorer):
    text = diagnostics_json(scorer, layouts)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIAGNOSTICS_SHA256


def test_calibration_golden(scorer):
    assert [float(v).hex() for v in scorer.calibration] == CALIBRATION_HEX
