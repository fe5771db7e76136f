"""Round-trip and rejection tests for the PARLDS1/PARLDM1 containers."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parl import codec
from parl.augment import fit_scorer, fit_what, fit_where, augment_semantic
from parl.codec import (
    DATASET_MAGIC,
    FORMAT_VERSION,
    MODEL_MAGIC,
    decode_models,
    decode_samples,
    encode_models,
    encode_samples,
    read_dataset,
    read_models,
    samples_to_json,
    write_dataset,
    write_models,
)
from parl.errors import DecodeError
from parl.policy import evaluate, featurize, train
from parl.styles import built_in_style, fit_style


def _feature_rows(samples, style):
    return [(featurize(s, style), s.label) for s in samples]


@pytest.fixture(scope="module")
def artifacts(generator, small_dataset):
    """One instance of every encodable artifact kind."""
    style = fit_style(small_dataset)
    rows = _feature_rows(small_dataset, style)
    policy = train(rows, ridge_lambda=1e-3, provenances=[s.provenance for s in small_dataset])
    layouts = [(s.semantic, s.instances) for s in small_dataset]
    where = fit_where(layouts)
    what = fit_what(layouts)
    scorer = fit_scorer(layouts)
    candidates = augment_semantic(
        small_dataset[0], fan_out=2, where=where, what=what, scorer=scorer, seed=9, threshold=0.0
    )
    report = evaluate(policy, small_dataset, style)
    vector = np.linspace(-2.0, 2.0, 17)
    return {
        "style": style,
        "policy": policy,
        "where": where,
        "what": what,
        "scorer": scorer,
        "layout": layouts[0],
        "candidate": candidates[0],
        "report": report,
        "vector": vector,
    }


class TestDatasetRoundTrip:
    def test_decode_preserves_sample_content(self, small_dataset):
        out = decode_samples(encode_samples(small_dataset))
        assert len(out) == len(small_dataset)
        for a, b in zip(small_dataset, out):
            assert np.array_equal(a.semantic.classes, b.semantic.classes)
            assert np.array_equal(a.instances.instance_grid, b.instances.instance_grid)
            assert a.instances.records == b.instances.records or len(a.instances.records) == len(
                b.instances.records
            )
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
        write_dataset(path, small_dataset)
        assert encode_samples(read_dataset(path)) == encode_samples(
            decode_samples(path.read_bytes())
        )

    def test_record_metadata_survives(self, small_dataset):
        src = max(small_dataset, key=lambda s: len(s.instances.records))
        out = decode_samples(encode_samples([src]))[0]
        for a, b in zip(src.instances.records, out.instances.records):
            assert a.instance_id == b.instance_id
            assert a.class_id == b.class_id
            assert a.bbox == b.bbox
            assert b.affine == pytest.approx(a.affine, abs=1e-6)


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
        assert [r.instance_id for r in cand.inserted] == [
            r.instance_id for r in artifacts["candidate"].inserted
        ]
        assert out[7] == artifacts["report"] or out[7].to_json_dict() == artifacts[
            "report"
        ].to_json_dict()
        assert np.array_equal(out[8], artifacts["vector"])

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

    def test_trailing_bytes_rejected(self, small_dataset, artifacts):
        with pytest.raises(DecodeError):
            decode_samples(encode_samples(small_dataset) + b"\x00")
        with pytest.raises(DecodeError):
            decode_models(encode_models([artifacts["policy"]]) + b"\x00")

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


class TestJsonMirror:
    def test_samples_to_json_is_valid_and_complete(self, small_dataset):
        doc = json.loads(samples_to_json(small_dataset[:3]))
        assert doc["version"] == FORMAT_VERSION
        assert len(doc["samples"]) == 3
        entry = doc["samples"][0]
        src = small_dataset[0]
        assert entry["task"] == src.task.value
        assert entry["provenance"] == src.provenance.value
        assert entry["style"] == src.scenario.style
        assert entry["height"] == src.semantic.height
        assert entry["width"] == src.semantic.width
        grid = np.asarray(entry["semantic"], dtype=np.uint8)
        assert np.array_equal(grid, src.semantic.classes)

    def test_samples_to_json_is_deterministic(self, small_dataset):
        assert samples_to_json(small_dataset) == samples_to_json(small_dataset)
