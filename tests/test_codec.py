"""Round-trip and rejection tests for the PARLDS1/PARLDM1 containers."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parl import codec
from parl.augment import WhatPredictor, fit_scorer, fit_what, fit_where, augment_semantic
from parl.codec import (
    DATASET_MAGIC,
    FORMAT_VERSION,
    MODEL_MAGIC,
    decode_models,
    decode_samples,
    decode_scenarios,
    encode_models,
    encode_samples,
    encode_scenarios,
    read_dataset,
    read_models,
    write_dataset,
    write_models,
)
from parl.errors import ConfigurationError, DecodeError
from parl.policy import featurize, train
from parl.protocol import (
    LabelRequest,
    Message,
    NodeId,
    UploadLocal,
    decode_message,
    encode_message,
)
from parl.styles import built_in_style, fit_style
from parl.world import (
    RECORD_DTYPE,
    THING_CLASSES,
    ClassId,
    DrivingSample,
    InstanceMap,
    Provenance,
    Scenario,
    SemanticMap,
    TaskType,
)


@pytest.fixture(scope="module")
def artifacts(small_dataset):
    """One instance of every encodable artifact kind."""
    style = fit_style(small_dataset)
    features = featurize(small_dataset, style)
    policy = train(
        features,
        [s.label for s in small_dataset],
        ridge_lambda=1e-3,
        provenances=[s.provenance for s in small_dataset],
    )
    layouts = [(s.semantic, s.instances) for s in small_dataset]
    where = fit_where(layouts)
    what = fit_what(layouts)
    scorer = fit_scorer(layouts, threshold=0.5, seed=0xD15C)
    candidates, _ = augment_semantic(
        layouts[:1], fan_out=2, where=where, what=what, scorer=scorer, seeds=[9], threshold=0.0
    )
    vector = np.linspace(-2.0, 2.0, 17)
    return {
        "style": style,
        "policy": policy,
        "where": where,
        "what": what,
        "scorer": scorer,
        "layout": layouts[0],
        "candidate": candidates[0],
        "vector": vector,
    }


class TestDatasetRoundTrip:
    def test_decode_preserves_sample_content(self, small_dataset):
        out = decode_samples(encode_samples(small_dataset))
        assert len(out) == len(small_dataset)
        for a, b in zip(small_dataset, out):
            assert np.array_equal(a.semantic.classes, b.semantic.classes)
            assert np.array_equal(a.instances.instance_grid, b.instances.instance_grid)
            assert len(a.instances.records) == len(b.instances.records)
            assert a.task == b.task
            assert a.provenance == b.provenance
            assert a.scenario.style == b.scenario.style
            # floats are stored as f32, so equality holds at f32 precision
            assert b.label == pytest.approx(a.label, abs=1e-6)
            assert np.allclose(a.scenario.pixels, b.scenario.pixels, atol=1e-6)

    def test_reencode_is_byte_identical(self, small_dataset):
        once = encode_samples(small_dataset)
        again = encode_samples(decode_samples(once))
        assert once == again

    def test_unlabeled_sample_round_trips(self, small_dataset):
        stripped = [dataclasses.replace(small_dataset[0], label=None)]
        out = decode_samples(encode_samples(stripped))
        assert out[0].label is None

    def test_file_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "data.ds1"
        assert write_dataset(path, small_dataset) == path.read_bytes()
        assert encode_samples(read_dataset(path)) == encode_samples(
            decode_samples(path.read_bytes())
        )

    def test_record_metadata_survives(self, small_dataset):
        src = max(small_dataset, key=lambda s: len(s.instances.records))
        out = decode_samples(encode_samples([src]))[0]
        a, b = src.instances.records, out.instances.records
        assert np.array_equal(a["id"], b["id"])
        assert np.array_equal(a["cls"], b["cls"])
        assert np.array_equal(a["bbox"], b["bbox"])
        assert np.allclose(a["affine"], b["affine"], rtol=0.0, atol=1e-6)

    def test_records_decode_to_the_in_memory_table(self, small_dataset):
        """Records decode to a read-only RECORD_DTYPE table, so their repr is the generator's."""
        src = max(small_dataset, key=lambda s: len(s.instances.records))
        out = decode_samples(encode_samples([src]))[0]
        assert out.instances.records.dtype == RECORD_DTYPE
        assert not out.instances.records.flags.writeable
        assert repr(out.instances.records) == repr(src.instances.records)


def _one_car_layout(bbox):
    classes = np.zeros((16, 16), dtype=np.uint8)
    classes[0, 0] = ClassId.CAR
    grid = np.full((16, 16), -1, dtype=np.int32)
    grid[0, 0] = 0
    records = np.array([(0, ClassId.CAR, bbox, (0.0, 0.0, 1.0, 1.0))], dtype=RECORD_DTYPE)
    return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)


@st.composite
def record_tables(draw):
    """Valid record tables over a 16x16 background grid: every field at its wire range."""
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n, unique=True))
    rows = [
        (
            i,
            draw(st.sampled_from(THING_CLASSES)),
            (
                draw(st.integers(0, 2**16 - 1)),
                draw(st.integers(0, 2**16 - 1)),
                draw(st.integers(1, 2**16 - 1)),
                draw(st.integers(1, 2**16 - 1)),
            ),
            tuple(draw(st.floats(-1e6, 1e6)) for _ in range(4)),
        )
        for i in ids
    ]
    return np.array(rows, dtype=RECORD_DTYPE)


def _background_map(records):
    return InstanceMap(instance_grid=np.full((16, 16), -1, dtype=np.int32), records=records)


class TestRecordTable:
    @settings(max_examples=60, deadline=None)
    @given(records=record_tables())
    def test_tables_round_trip_through_both_wire_layouts(self, records):
        """ids, classes and bbox come back exact; affine exact in models, f32-rounded in datasets."""
        semantic = SemanticMap(classes=np.zeros((16, 16), dtype=np.uint8))
        instances = _background_map(records)
        sample = DrivingSample(
            scenario=Scenario(pixels=np.zeros((16, 16, 3), dtype=np.float32), style=0),
            semantic=semantic,
            instances=instances,
            label=None,
            task=TaskType.STRAIGHT,
            provenance=Provenance.HUMAN,
        )
        blob = encode_samples([sample])
        [decoded] = decode_samples(blob)
        assert encode_samples([decoded]) == blob
        layout_blob = encode_models([(semantic, instances)])
        [(_, exact)] = decode_models(layout_blob)
        assert encode_models([(semantic, exact)]) == layout_blob
        for got, affine in (
            (decoded.instances.records, records["affine"].astype(np.float32).astype(np.float64)),
            (exact.records, records["affine"]),
        ):
            assert got.dtype == RECORD_DTYPE
            for field in ("id", "cls", "bbox"):
                assert np.array_equal(got[field], records[field])
            assert got["affine"].tobytes() == affine.tobytes()

    def test_style_record_bytes(self):
        """A style's means and spreads go out as one block, in the per-scalar order they had."""
        style = built_in_style(3, seed=12)
        body = struct.pack(
            "<BHQd", codec.KIND_STYLE, style.style, style.texture_seed, style.separation_floor
        ) + b"".join(
            struct.pack("<4d", *style.class_means[c], style.class_spreads[c]) for c in range(8)
        )
        assert encode_models([style]).endswith(struct.pack("<I", len(body)) + body)

    @pytest.mark.parametrize("shape, what", [((16, 70_000), "grid width"), ((70_000, 16), "grid height")])
    def test_a_layout_side_past_u16_is_a_configuration_error(self, shape, what):
        """Such a layout once escaped the encoder as a bare struct.error."""
        layout = (
            SemanticMap(classes=np.zeros(shape, dtype=np.uint8)),
            InstanceMap(instance_grid=np.full(shape, -1, dtype=np.int32), records=[]),
        )
        with pytest.raises(ConfigurationError, match=f"{what} 70000 does not fit in u16"):
            encode_models([layout])

    def test_an_instance_id_past_u32_is_a_configuration_error(self):
        records = np.array([(2**32, ClassId.CAR, (0, 0, 1, 1), (0.0, 0.0, 1.0, 1.0))], RECORD_DTYPE)
        layout = (SemanticMap(classes=np.zeros((16, 16), dtype=np.uint8)), _background_map(records))
        with pytest.raises(ConfigurationError, match="instance id 4294967296 does not fit in u32"):
            encode_models([layout])

    def test_layout_record_bytes(self):
        """One packed row: u32 id, u8 class, 4 x u16 bbox, 4 x f64 affine."""
        layout = _one_car_layout((0, 0, 1, 2))
        blob = encode_models([layout])
        row = (
            (0).to_bytes(4, "little")
            + bytes([ClassId.CAR])
            + b"".join(v.to_bytes(2, "little") for v in (0, 0, 1, 2))
            + np.array([0.0, 0.0, 1.0, 1.0], dtype="<f8").tobytes()
        )
        assert blob.endswith((1).to_bytes(2, "little") + row)
        assert decode_models(blob)[0][1] == layout[1]

    def test_bbox_field_over_u16_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="bbox field 70000 does not fit in u16"):
            encode_models([_one_car_layout((0, 0, 70_000, 1))])

    @pytest.mark.parametrize("code", [0, 8, 255], ids=["road", "past-palette", "max"])
    def test_bad_class_code_is_a_decode_error(self, code):
        blob = bytearray(encode_models([_one_car_layout((0, 0, 1, 1))]))
        at = len(blob) - 45 + 4  # the one record's class byte
        assert blob[at] == ClassId.CAR
        blob[at] = code
        match = "not an instance class" if code < 8 else f"unknown class id {code}"
        with pytest.raises(DecodeError, match=match):
            decode_models(bytes(blob))

    def test_non_thing_class_in_a_dataset_is_a_decode_error(self, small_dataset):
        """A record of a stuff class once escaped decode_samples as ConfigurationError."""
        src = next(s for s in small_dataset if s.instances.records.size)
        blob = bytearray(encode_samples([src]))
        h, w = src.semantic.classes.shape
        # container(13) + length(4) + shape/style/task/provenance/flag/label(13) + grids + count(2)
        at = 13 + 4 + 13 + 5 * h * w + 2 + 4
        assert blob[at] == src.instances.records["cls"][0]
        blob[at] = ClassId.ROAD
        with pytest.raises(DecodeError, match="not an instance class"):
            decode_samples(bytes(blob))


class TestScenarioList:
    def test_round_trip_is_bit_exact(self, small_dataset):
        scenarios = [s.scenario for s in small_dataset[:3]]
        blob = encode_scenarios(scenarios)
        assert len(blob) == 4 + sum(6 + 4 * s.pixels.size for s in scenarios)
        out = decode_scenarios(blob)
        assert out == scenarios
        assert all(a.pixels.tobytes() == b.pixels.tobytes() for a, b in zip(scenarios, out))

    def test_empty_list_round_trips(self):
        assert decode_scenarios(encode_scenarios([])) == []

    def test_style_id_over_u16_is_a_configuration_error(self, small_dataset):
        big = Scenario(pixels=small_dataset[0].scenario.pixels, style=70_000)
        with pytest.raises(ConfigurationError, match="style id 70000"):
            encode_scenarios([big])

    @settings(max_examples=40, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_any_truncation_is_a_decode_error(self, small_dataset, frac):
        blob = encode_scenarios([s.scenario for s in small_dataset[:2]])
        with pytest.raises(DecodeError):
            decode_scenarios(blob[: int(len(blob) * frac)])

    def test_rejections(self, small_dataset):
        blob = encode_scenarios([small_dataset[0].scenario])
        with pytest.raises(DecodeError, match="trailing bytes"):
            decode_scenarios(blob + b"\x00")
        nan = bytearray(blob)
        nan[-4:] = np.float32(np.nan).astype("<f4").tobytes()
        with pytest.raises(DecodeError, match="violates invariants"):
            decode_scenarios(bytes(nan))
        tiny = Scenario(pixels=np.zeros((16, 15, 3), dtype=np.float32), style=0)
        with pytest.raises(DecodeError, match="16x15 cells is below 16x16"):
            decode_scenarios(encode_scenarios([tiny]))


class TestModelRoundTrip:
    def test_each_kind_round_trips(self, artifacts):
        items = list(artifacts.values())
        out = decode_models(encode_models(items))
        assert len(out) == len(items)
        assert out[0] == artifacts["style"]
        assert out[1] == artifacts["policy"]
        for key, idx in (("where", 2), ("what", 3), ("scorer", 4)):
            for name, arr in artifacts[key]._state_arrays().items():
                assert np.array_equal(out[idx]._state_arrays()[name], arr), (key, name)
        sem, inst = out[5]
        assert np.array_equal(sem.classes, artifacts["layout"][0].classes)
        assert np.array_equal(inst.instance_grid, artifacts["layout"][1].instance_grid)
        cand = out[6]
        assert cand.score == artifacts["candidate"].score
        assert cand.source_sample_id == artifacts["candidate"].source_sample_id
        assert cand.inserted.tolist() == artifacts["candidate"].inserted.tolist()
        assert np.array_equal(out[7], artifacts["vector"])

    def test_model_floats_are_bit_exact(self, artifacts):
        out = decode_models(encode_models([artifacts["policy"]]))[0]
        assert out.weights.tobytes() == artifacts["policy"].weights.tobytes()
        assert out.ridge_lambda == artifacts["policy"].ridge_lambda

    def test_reencode_is_byte_identical(self, artifacts):
        once = encode_models(list(artifacts.values()))
        assert encode_models(decode_models(once)) == once

    def test_file_round_trip(self, artifacts, tmp_path):
        path = tmp_path / "models.dm1"
        write_models(path, [artifacts["style"], artifacts["policy"]])
        out = read_models(path)
        assert out[0] == artifacts["style"]
        assert out[1] == artifacts["policy"]

    def test_style_round_trip_preserves_nan_rows(self):
        style = built_in_style(3, seed=12)
        masked = dataclasses.replace(
            style, class_means=np.where(np.arange(8)[:, None] == 6, np.nan, style.class_means)
        )
        out = decode_models(encode_models([masked]))[0]
        assert np.isnan(out.class_means[6]).all()
        assert out == masked


class TestRejection:
    def test_bad_dataset_magic(self, small_dataset):
        blob = bytearray(encode_samples(small_dataset))
        blob[0] ^= 0xFF
        with pytest.raises(DecodeError):
            decode_samples(bytes(blob))

    def test_bad_model_magic(self, artifacts):
        blob = bytearray(encode_models([artifacts["policy"]]))
        blob[:7] = b"NOTPARL"
        with pytest.raises(DecodeError):
            decode_models(bytes(blob))

    def test_magic_confusion_between_containers(self, small_dataset, artifacts):
        with pytest.raises(DecodeError):
            decode_models(encode_samples(small_dataset))
        with pytest.raises(DecodeError):
            decode_samples(encode_models([artifacts["policy"]]))

    def test_unsupported_version(self, small_dataset):
        blob = bytearray(encode_samples(small_dataset))
        blob[7:9] = (FORMAT_VERSION + 1).to_bytes(2, "little")
        with pytest.raises(DecodeError):
            decode_samples(bytes(blob))

    def test_unknown_model_kind(self, artifacts):
        blob = bytearray(encode_models([artifacts["vector"]]))
        # first item payload starts after magic(7) + version(2) + count(4) + len(4)
        assert blob[17] == codec.KIND_VECTOR
        blob[17] = 0x7E
        with pytest.raises(DecodeError):
            decode_models(bytes(blob))

    def test_nan_pixel_rejected(self, small_dataset):
        blob = bytearray(encode_samples(small_dataset[:2]))
        # The last sample's pixels end the container; overwrite its last channel.
        blob[-4:] = np.float32(np.nan).astype("<f4").tobytes()
        with pytest.raises(DecodeError):
            decode_samples(bytes(blob))

    @pytest.mark.parametrize(
        "mask",
        [
            np.array([[1, 0, 1]], dtype=bool),  # two pieces
            np.array([[1, 0], [0, 1]], dtype=bool),  # diagonal only: two 4-connected pieces
            np.zeros((2, 2), dtype=bool),
            np.ones(3, dtype=bool),
        ],
        ids=["fragmented", "diagonal", "empty", "one-dimensional"],
    )
    def test_bad_template_mask_rejected(self, artifacts, mask):
        good = artifacts["what"].templates[0]
        bad = WhatPredictor(templates=(good, (good[0], mask)))
        with pytest.raises(DecodeError):
            decode_models(encode_models([bad]))

    def test_trailing_bytes_rejected(self, small_dataset, artifacts):
        with pytest.raises(DecodeError):
            decode_samples(encode_samples(small_dataset) + b"\x00")
        with pytest.raises(DecodeError):
            decode_models(encode_models([artifacts["policy"]]) + b"\x00")

    @pytest.mark.parametrize("kind", ["where", "what", "scorer"])
    def test_bit_flips_decode_or_raise_decode_error(self, artifacts, kind):
        """1-3 flipped bits past the container header, 1,000 seeded trials per record.

        A flipped blob raises DecodeError or decodes to what re-encodes to
        it. Flips in an array shape once made numpy raise ValueError out of
        decode_models: a shape product wrapped in int64, or a shape numpy
        cannot hold. A template mask byte of 2 or more once decoded as set.
        """
        blob = encode_models([artifacts[kind]])
        header = 17  # magic(7) + version(2) + count(4) + item length(4)
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            data = bytearray(blob)
            n_flips = int(rng.integers(1, 4))
            for bit in rng.choice((len(blob) - header) * 8, size=n_flips, replace=False):
                data[header + bit // 8] ^= 1 << (bit % 8)
            try:
                decoded = decode_models(bytes(data))
            except DecodeError:
                continue
            assert encode_models(decoded) == data

    def test_candidate_score_flag_past_one_rejected(self, artifacts):
        blob = bytearray(encode_models([artifacts["candidate"]]))
        # The record ends in the u8 score flag and the f64 score.
        assert blob[-9] == 1
        blob[-9] = 2
        with pytest.raises(DecodeError, match="score flag must be 0 or 1, got 2"):
            decode_models(bytes(blob))

    def test_candidate_score_bits_behind_a_zero_flag_rejected(self, artifacts):
        """Such a record once decoded as unscored and re-encoded to other bytes."""
        unscored = dataclasses.replace(artifacts["candidate"], score=None)
        blob = bytearray(encode_models([unscored]))
        # The record ends in the u8 score flag and the f64 score.
        assert blob[-9:] == bytes(9)
        for value in (0.25, -0.0, float("nan")):
            blob[-8:] = struct.pack("<d", value)
            with pytest.raises(DecodeError, match="score field holds data behind a 0 flag"):
                decode_models(bytes(blob))

    def test_sample_label_bits_behind_a_zero_flag_rejected(self, small_dataset):
        """Such a sample once decoded as unlabeled and re-encoded to other bytes."""
        unlabeled = dataclasses.replace(small_dataset[0], label=None)
        blob = bytearray(encode_samples([unlabeled]))
        # container(13) + length(4) + shape/style/task/provenance(8), then the
        # u8 label flag and the f32 label.
        assert blob[25:30] == bytes(5)
        for value in (0.25, -0.0, float("nan")):
            blob[26:30] = struct.pack("<f", value)
            with pytest.raises(DecodeError, match="label field holds data behind a 0 flag"):
                decode_samples(bytes(blob))

    def test_retired_report_kind_is_unknown(self):
        """Kind 7 held an evaluation report; the record is retired and its kind unread."""
        entry = bytes([8]) + b"straight" + struct.pack("<ddI", 0.1, 0.5, 2)
        record = bytes([7]) + struct.pack("<H", 1) + entry + struct.pack("<ddd", 0.1, 0.5, 0.05)
        with pytest.raises(DecodeError, match="unknown model record kind 7"):
            decode_models(_one_record_container(record))

    @pytest.mark.parametrize(
        "kind, code, extra, match",
        [
            ("where", codec.KIND_WHERE, "counts", "array 'counts' named twice"),
            ("what", codec.KIND_WHAT, "mask{n}", "arrays its kind does not read"),
            ("scorer", codec.KIND_SCORER, "bias", "arrays its kind does not read"),
        ],
        ids=["repeated-name", "unread-template-mask", "unread-name"],
    )
    def test_predictor_array_map_names_only_what_its_kind_reads(
        self, artifacts, kind, code, extra, match
    ):
        model = artifacts[kind]
        arrays = model._state_arrays()
        entries = sorted(arrays.items())
        assert _one_record_container(_array_map_record(code, entries)) == encode_models([model])
        # A WhatPredictor's map holds "classes" and one mask per template, so
        # mask{n} with n = len(arrays) - 1 is the mask past the last template.
        entries.append((extra.format(n=len(arrays) - 1), next(iter(arrays.values()))))
        with pytest.raises(DecodeError, match=match):
            decode_models(_one_record_container(_array_map_record(code, entries)))

    @pytest.mark.parametrize(
        "kind, code",
        [("where", codec.KIND_WHERE), ("what", codec.KIND_WHAT), ("scorer", codec.KIND_SCORER)],
        ids=["where", "what", "scorer"],
    )
    def test_predictor_arrays_decode_only_at_the_dtype_and_shape_their_kind_writes(
        self, artifacts, kind, code
    ):
        """Each array with its dtype code changed, then with one more dimension, is rejected.

        An f8 or i8 array keeps its bytes under the other code, as a flipped
        code byte leaves them; a u1 mask is widened to i8. Such records once
        decoded, and re-encoded to other bytes: _from_state converted them.
        """
        model = artifacts[kind]
        if kind == "what":  # two templates stand for all of them
            model = WhatPredictor(templates=model.templates[:2])
        arrays = model._state_arrays()
        other = {"<f8": "<i8", "<i8": "<f8"}
        for name, arr in arrays.items():
            for changed in (
                arr.view(other[arr.dtype.str]) if arr.dtype.str in other else arr.astype("<i8"),
                arr[None],
            ):
                entries = sorted({**arrays, name: changed}.items())
                with pytest.raises(DecodeError):
                    decode_models(_one_record_container(_array_map_record(code, entries)))

    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_any_truncation_is_a_decode_error(self, small_dataset, frac):
        blob = encode_samples(small_dataset[:2])
        cut = int(len(blob) * frac)
        with pytest.raises(DecodeError):
            decode_samples(blob[:cut])

    @settings(max_examples=60, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_model_truncation_is_a_decode_error(self, artifacts, frac):
        blob = encode_models([artifacts["style"], artifacts["policy"]])
        cut = int(len(blob) * frac)
        with pytest.raises(DecodeError):
            decode_models(blob[:cut])


def _one_record_container(record):
    """A PARLDM1 container holding the one hand-built record."""
    header = MODEL_MAGIC + struct.pack("<HI", FORMAT_VERSION, 1)
    return header + struct.pack("<I", len(record)) + record


def _array_map_record(kind, entries):
    """A predictor record whose array map lists (name, array) entries as given."""
    w = codec._Writer()
    w.u8(kind)
    w.u32(len(entries))
    for name, arr in entries:
        one = codec._Writer()
        codec._encode_array_map({name: arr}, one)
        w.raw(one.getvalue()[4:])  # the entry without its map's count
    return w.getvalue()


def _inside_a_larger_buffer(blob):
    """blob as a memoryview into the middle of a larger buffer."""
    return memoryview(b"\xff" * 5 + blob + b"\xff" * 3)[5:-3]


@pytest.fixture(scope="module")
def encoded(small_dataset, artifacts):
    """Per decoder: (decode, encode, one encoded input); encode(decode(blob)) == blob."""
    upload = UploadLocal(
        style=artifacts["style"], policy=artifacts["policy"], layouts=(artifacts["layout"],)
    )
    request = LabelRequest(scenarios=tuple(s.scenario for s in small_dataset[:2]))
    return {
        "samples": (decode_samples, encode_samples, encode_samples(small_dataset[:3])),
        "models": (decode_models, encode_models, encode_models(list(artifacts.values()))),
        "scenarios": (
            decode_scenarios,
            encode_scenarios,
            encode_scenarios([s.scenario for s in small_dataset[:3]]),
        ),
        "upload message": (
            decode_message,
            encode_message,
            encode_message(Message(NodeId.robot(0), NodeId.cloud(), 0, upload)),
        ),
        "request message": (
            decode_message,
            encode_message,
            encode_message(Message(NodeId.cloud(), NodeId.robot(0), 0, request)),
        ),
    }


DECODERS = ["samples", "models", "scenarios", "upload message", "request message"]


class TestMemoryviewInput:
    """Every decoder reads a memoryview, slices of a larger buffer included, as it reads bytes."""

    @pytest.mark.parametrize("name", DECODERS)
    def test_memoryview_decodes_as_bytes_do(self, encoded, name):
        decode, encode, blob = encoded[name]
        assert encode(decode(blob)) == blob
        assert encode(decode(memoryview(blob))) == blob
        assert encode(decode(_inside_a_larger_buffer(blob))) == blob

    @pytest.mark.parametrize("name", DECODERS)
    def test_truncated_memoryview_is_a_decode_error(self, encoded, name):
        decode, _, blob = encoded[name]
        view = _inside_a_larger_buffer(blob)
        for cut in (0, 1, 7, 12, len(blob) // 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(DecodeError):
                decode(view[:cut])

    @pytest.mark.parametrize("name", DECODERS)
    def test_bit_flipped_memoryview_decodes_or_raises_decode_error(self, encoded, name):
        decode, encode, blob = encoded[name]
        rng = np.random.default_rng(7)
        for _ in range(200):
            data = bytearray(blob)
            for bit in rng.choice(len(blob) * 8, size=int(rng.integers(1, 4)), replace=False):
                data[bit // 8] ^= 1 << (bit % 8)
            try:
                decoded = decode(memoryview(data))
            except DecodeError:
                continue
            assert encode(decoded) == data

    def test_decoded_arrays_do_not_alias_the_input(self, small_dataset):
        scenarios = [s.scenario for s in small_dataset[:2]]
        data = bytearray(encode_scenarios(scenarios))
        out = decode_scenarios(memoryview(data))
        data[:] = bytes(len(data))
        assert out == scenarios
