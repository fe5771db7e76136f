"""Byte-exact serialization for datasets, models, and derived artifacts.

Two container formats, both little-endian throughout:

PARLDS1 -- driving samples. Floats are stored as 32-bit, so labels and
placement transforms quantize on the way to disk; everything else round-trips
exactly.

PARLDM1 -- models and structured artifacts (styles, policies, predictors,
scorers, layouts, candidates, float vectors). Floats are stored as 64-bit,
so these round-trip bit for bit.

Both containers share the same envelope: a 7-byte magic, a u16 format
version, a u32 item count, then each item as a u32 byte length followed by
its payload. A sample or layout holds its class grid (u8), its instance grid
(i32) and a u16 count of instance records, then the records as one packed
table: u32 id, u8 class, four u16 bbox fields, and four affine floats (f32
in datasets, f64 in models), 29 or 45 bytes a record. In memory the records
are one world.RECORD_DTYPE table with native-width fields: the encoder checks
that the id and bbox columns fit their wire fields and casts the table into
the packed one, and the decoder casts the packed table back. A candidate's
inserted ids follow its layout as u32s.

Every count, dimension and id the encoders write is range-checked against
its field: one that does not fit is a ConfigurationError that names it.

Scenario lists -- the pixels of rendered scenarios and nothing else, as a
LabelRequest carries them: a u32 count, then per scenario a u16 height, a
u16 width, a u16 style id and height x width x 3 f32 pixels (row-major,
channels last). They have no envelope of their own: the message that
carries one has its magic and version.

Decoders reject with DecodeError bad magic, unknown versions, unknown item
kinds, truncated payloads, trailing bytes, and records no encoder writes: a
flag byte other than 0 or 1, a nonzero field behind a 0 flag, an array
named twice, an array its record kind does not read, or an array of
another dtype or shape than its kind writes. A payload that parses but
violates a model invariant is also a DecodeError, never a half-built
object.

Each payload is copied once on the way out and once on the way in. An
encoder collects its fields and buffers as parts, scenario pixels as the
scenario's own read-only array, and joins them once; a decoder takes bytes
or a memoryview, slices it without copying, and copies each array it reads
into an array of its own.
"""

from __future__ import annotations

import math
import struct
from typing import Optional, Sequence, Union

import numpy as np

from .augment import AugmentationCandidate, PlausibilityScorer, WhatPredictor, WherePredictor
from .errors import ConfigurationError, DecodeError, ParlError
from .policy import PolicyModel
from .styles import StyleModel
from .world import (
    DrivingSample,
    InstanceMap,
    Layout,
    MIN_MAP_SIDE,
    N_CLASSES,
    Provenance,
    RECORD_DTYPE,
    Scenario,
    SemanticMap,
    TaskType,
)

DATASET_MAGIC = b"PARLDS1"
MODEL_MAGIC = b"PARLDM1"
FORMAT_VERSION = 1

_TASK_CODES = {task: i for i, task in enumerate(TaskType)}
_TASK_FROM_CODE = {i: task for task, i in _TASK_CODES.items()}
_PROVENANCE_CODES = {prov: i for i, prov in enumerate(Provenance)}
_PROVENANCE_FROM_CODE = {i: prov for prov, i in _PROVENANCE_CODES.items()}

# Model record kinds.
KIND_STYLE = 0
KIND_POLICY = 1
KIND_WHERE = 2
KIND_WHAT = 3
KIND_SCORER = 4
KIND_LAYOUT = 5
KIND_CANDIDATE = 6
# Kind 7, an evaluation report, is retired: it decodes as an unknown kind.
KIND_VECTOR = 8

# Array dtype codes for the named-array encoding used by predictor records.
_DTYPES = {0: "<f8", 1: "<i8", 2: "u1"}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}

ModelItem = Union[
    StyleModel,
    PolicyModel,
    WherePredictor,
    WhatPredictor,
    PlausibilityScorer,
    tuple,
    AugmentationCandidate,
    np.ndarray,
]


class _Writer:
    """Little-endian fields collected as parts and copied once, by getvalue.

    raw keeps the buffer it is given and does not copy it, so it takes only
    immutable buffers: bytes, or a read-only array's memory. The bytes of a
    writable array go in as arr.tobytes(). framed appends another writer's
    parts behind their u32 byte length, so a nested record is not joined
    before its container is.
    """

    def __init__(self) -> None:
        self._parts: list = []
        self.nbytes = 0

    def raw(self, data) -> None:
        view = memoryview(data)
        if not view.readonly:
            raise TypeError("_Writer.raw takes only immutable buffers")
        self._parts.append(data)
        self.nbytes += view.nbytes

    def _pack(self, fmt: str, value) -> None:
        part = struct.pack(fmt, value)
        self._parts.append(part)
        self.nbytes += len(part)

    def _unsigned(self, fmt: str, bits: int, value: int, what: str) -> None:
        if not 0 <= value < 2**bits:
            raise ConfigurationError(f"{what} {value} does not fit in u{bits}")
        self._pack(fmt, value)

    def u8(self, value: int, what: str = "u8 field") -> None:
        self._unsigned("<B", 8, value, what)

    def u16(self, value: int, what: str = "u16 field") -> None:
        self._unsigned("<H", 16, value, what)

    def u32(self, value: int, what: str = "u32 field") -> None:
        self._unsigned("<I", 32, value, what)

    def u64(self, value: int, what: str = "u64 field") -> None:
        self._unsigned("<Q", 64, value, what)

    def f32(self, value: float) -> None:
        self._pack("<f", value)

    def f64(self, value: float) -> None:
        self._pack("<d", value)

    def short_str(self, text: str) -> None:
        data = text.encode("utf-8")
        if len(data) > 255:
            raise ConfigurationError(f"string too long to encode: {text!r}")
        self.u8(len(data))
        self.raw(data)

    def framed(self, inner: "_Writer") -> None:
        self.u32(inner.nbytes, "record byte length")
        self._parts.extend(inner._parts)
        self.nbytes += inner.nbytes

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Sequential reader that turns every overrun into a DecodeError.

    It reads through a memoryview of any bytes-like input, so take returns
    a view into that input, not a copy; array copies the elements it reads
    once, into an array of their own.
    """

    def __init__(self, data, what: str = "stream") -> None:
        self._data = memoryview(data).cast("B")
        self._pos = 0
        self._what = what

    def take(self, n: int) -> memoryview:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError(
                f"truncated {self._what}: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def _scalar(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def u8(self) -> int:
        return self._scalar("<B")

    def u16(self) -> int:
        return self._scalar("<H")

    def u32(self) -> int:
        return self._scalar("<I")

    def u64(self) -> int:
        return self._scalar("<Q")

    def f32(self) -> float:
        return self._scalar("<f")

    def f64(self) -> float:
        return self._scalar("<d")

    def flagged(self, fmt: str, what: str) -> Optional[float]:
        """A u8 presence flag and the field after it: the field's value, or None.

        Behind a 0 flag the field must be all zero bytes, as the encoders
        write it, so that a blob that decodes re-encodes to itself. The bytes
        are compared, not the float, so -0.0 and NaN patterns fail too.
        """
        flag = self.u8()
        if flag not in (0, 1):
            raise DecodeError(f"{what} flag must be 0 or 1, got {flag}")
        field = self.take(struct.calcsize(fmt))
        if flag:
            return struct.unpack(fmt, field)[0]
        if any(field):
            raise DecodeError(f"{what} field holds data behind a 0 flag")
        return None

    def short_str(self) -> str:
        n = self.u8()
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8 in {self._what}") from exc

    def array(self, dtype: str, count: int) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(itemsize * count), dtype=dtype).copy()

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise DecodeError(f"bad magic {bytes(got)!r}, expected {magic!r}")

    def expect_version(self) -> None:
        version = self.u16()
        if version != FORMAT_VERSION:
            raise DecodeError(f"unsupported format version {version}")

    def done(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError(
                f"trailing bytes in {self._what}: {len(self._data) - self._pos} unread"
            )


def _checked_unsigned(values: np.ndarray, bits: int, what: str) -> np.ndarray:
    """values, if every one fits in a u<bits>; the error names the first that does not."""
    outside = values[(values < 0) | (values >= 2**bits)]
    if outside.size:
        raise ConfigurationError(f"{what} {outside[0]} does not fit in u{bits}")
    return values


def _record_table(affine: str) -> np.dtype:
    """Packed little-endian instance records with the given affine float type."""
    return np.dtype([("id", "<u4"), ("cls", "u1"), ("bbox", "<u2", 4), ("affine", affine, 4)])


_RECORDS_F32 = _record_table("<f4")
_RECORDS_F64 = _record_table("<f8")


def _write_grids(
    w: _Writer, semantic: SemanticMap, instances: InstanceMap, table: np.dtype
) -> None:
    """A sample's or layout's grids and records; table is _RECORDS_F32 or _RECORDS_F64.

    The in-memory record columns are checked against the wire table's
    narrower fields, then copied into it column by column.
    """
    w.raw(semantic.classes.tobytes())
    w.raw(instances.instance_grid.astype("<i4").tobytes())
    records = instances.records
    w.u16(records.size, "instance record count")
    _checked_unsigned(records["id"], 32, "instance id")
    _checked_unsigned(records["bbox"], 16, "bbox field")
    w.raw(records.astype(table).tobytes())


def _read_grids(r: _Reader, h: int, wdt: int, table: np.dtype) -> tuple:
    """(classes, instance grid, records) as `_write_grids` wrote them.

    The wire table is cast to RECORD_DTYPE as read; InstanceMap checks the
    rows, and a class code past the palette is rejected here.
    """
    classes = r.array("u1", h * wdt).reshape(h, wdt)
    grid = r.array("<i4", h * wdt).reshape(h, wdt)
    rows = np.frombuffer(r.take(r.u16() * table.itemsize), dtype=table)
    unknown = rows["cls"][rows["cls"] >= N_CLASSES]
    if unknown.size:
        raise DecodeError(f"unknown class id {unknown[0]}")
    return classes, grid, rows.astype(RECORD_DTYPE)


# ---------------------------------------------------------------------------
# Datasets (PARLDS1)
# ---------------------------------------------------------------------------


def _f32_pixels(scenario: Scenario) -> np.ndarray:
    """The scenario's pixels as read-only little-endian f32.

    Scenario pixels are frozen C-ordered float32, so on a little-endian host
    this is the scenario's own array, not a copy.
    """
    pixels = scenario.pixels.astype("<f4", copy=False)
    pixels.setflags(write=False)
    return pixels


def _encode_sample(sample: DrivingSample) -> _Writer:
    w = _Writer()
    h, wdt = sample.semantic.classes.shape
    if sample.scenario.pixels.shape[:2] != (h, wdt) or sample.instances.instance_grid.shape != (h, wdt):
        raise ConfigurationError("sample grids disagree on shape")
    w.u16(h, "grid height")
    w.u16(wdt, "grid width")
    w.u16(sample.scenario.style, "style id")
    w.u8(_TASK_CODES[sample.task])
    w.u8(_PROVENANCE_CODES[sample.provenance])
    w.u8(0 if sample.label is None else 1)
    w.f32(0.0 if sample.label is None else sample.label)
    _write_grids(w, sample.semantic, sample.instances, _RECORDS_F32)
    w.raw(_f32_pixels(sample.scenario))
    return w


def _decode_sample(data: memoryview) -> DrivingSample:
    r = _Reader(data, "sample")
    h = r.u16()
    wdt = r.u16()
    style = r.u16()
    task_code = r.u8()
    prov_code = r.u8()
    if task_code not in _TASK_FROM_CODE:
        raise DecodeError(f"unknown task code {task_code}")
    if prov_code not in _PROVENANCE_FROM_CODE:
        raise DecodeError(f"unknown provenance code {prov_code}")
    label = r.flagged("<f", "label")
    classes, grid, records = _read_grids(r, h, wdt, _RECORDS_F32)
    pixels = r.array("<f4", h * wdt * 3).reshape(h, wdt, 3)
    r.done()
    try:
        return DrivingSample(
            scenario=Scenario(pixels=pixels, style=style),
            semantic=SemanticMap(classes=classes),
            instances=InstanceMap(instance_grid=grid, records=records),
            label=label,
            task=_TASK_FROM_CODE[task_code],
            provenance=_PROVENANCE_FROM_CODE[prov_code],
        )
    except ParlError as exc:
        raise DecodeError(f"sample payload violates invariants: {exc}") from exc


def encode_samples(samples: Sequence[DrivingSample]) -> bytes:
    w = _Writer()
    w.raw(DATASET_MAGIC)
    w.u16(FORMAT_VERSION)
    w.u32(len(samples), "sample count")
    for sample in samples:
        w.framed(_encode_sample(sample))
    return w.getvalue()


def decode_samples(data: bytes | memoryview) -> list[DrivingSample]:
    r = _Reader(data, "dataset")
    r.expect_magic(DATASET_MAGIC)
    r.expect_version()
    count = r.u32()
    samples = [_decode_sample(r.take(r.u32())) for _ in range(count)]
    r.done()
    return samples


def _scenario_list(scenarios: Sequence[Scenario]) -> _Writer:
    w = _Writer()
    w.u32(len(scenarios), "scenario count")
    for scenario in scenarios:
        w.u16(scenario.height, "grid height")
        w.u16(scenario.width, "grid width")
        w.u16(scenario.style, "style id")
        w.raw(_f32_pixels(scenario))
    return w


def encode_scenarios(scenarios: Sequence[Scenario]) -> bytes:
    """A scenario list: each scenario's shape, style id and f32 pixels."""
    return _scenario_list(scenarios).getvalue()


def decode_scenarios(data: bytes | memoryview) -> list[Scenario]:
    """The scenarios of an `encode_scenarios` list.

    A scenario smaller than the smallest map perception accepts, or with a
    pixel outside [0, 1] (NaN included), is a DecodeError.
    """
    r = _Reader(data, "scenario list")
    scenarios = []
    for _ in range(r.u32()):
        h, wdt, style = r.u16(), r.u16(), r.u16()
        if h < MIN_MAP_SIDE or wdt < MIN_MAP_SIDE:
            raise DecodeError(
                f"scenario of {h}x{wdt} cells is below {MIN_MAP_SIDE}x{MIN_MAP_SIDE}"
            )
        pixels = r.array("<f4", h * wdt * 3).reshape(h, wdt, 3)
        try:
            scenarios.append(Scenario(pixels=pixels, style=style))
        except ParlError as exc:
            raise DecodeError(f"scenario payload violates invariants: {exc}") from exc
    r.done()
    return scenarios


def write_dataset(path, samples: Sequence[DrivingSample]) -> bytes:
    """Encode samples to path and return the bytes written."""
    data = encode_samples(samples)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_dataset(path) -> list[DrivingSample]:
    with open(path, "rb") as fh:
        return decode_samples(fh.read())


# ---------------------------------------------------------------------------
# Models and artifacts (PARLDM1)
# ---------------------------------------------------------------------------


def _encode_array_map(arrays: dict[str, np.ndarray], w: _Writer) -> None:
    w.u32(len(arrays), "array count")
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype not in _DTYPE_CODES:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        w.short_str(name)
        w.u8(_DTYPE_CODES[arr.dtype])
        w.u8(arr.ndim)
        for dim in arr.shape:
            w.u32(dim, "array dimension")
        w.raw(arr.tobytes())


def _decode_array_map(r: _Reader) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.short_str()
        if name in out:
            raise DecodeError(f"array {name!r} named twice")
        code = r.u8()
        if code not in _DTYPES:
            raise DecodeError(f"unknown array dtype code {code}")
        ndim = r.u8()
        shape = tuple(r.u32() for _ in range(ndim))
        # math.prod is exact: a corrupt shape whose product overflows int64
        # fails in take instead of wrapping to a count a short buffer holds.
        flat = r.array(_DTYPES[code], math.prod(shape))
        try:
            out[name] = flat.reshape(shape)
        except ValueError as exc:  # more dimensions, or a larger size, than numpy allows
            raise DecodeError(f"array {name!r} has an unsupported shape") from exc
    return out


def _encode_layout_body(semantic: SemanticMap, instances: InstanceMap, w: _Writer) -> None:
    h, wdt = semantic.classes.shape
    if instances.instance_grid.shape != (h, wdt):
        raise ConfigurationError("layout grids disagree on shape")
    w.u16(h, "grid height")
    w.u16(wdt, "grid width")
    _write_grids(w, semantic, instances, _RECORDS_F64)


def _decode_layout_body(r: _Reader) -> Layout:
    h = r.u16()
    wdt = r.u16()
    classes, grid, records = _read_grids(r, h, wdt, _RECORDS_F64)
    try:
        return SemanticMap(classes=classes), InstanceMap(instance_grid=grid, records=records)
    except ParlError as exc:
        raise DecodeError(f"layout payload violates invariants: {exc}") from exc


def _encode_item(item: ModelItem) -> _Writer:
    w = _Writer()
    if isinstance(item, StyleModel):
        w.u8(KIND_STYLE)
        w.u16(item.style, "style id")
        w.u64(item.texture_seed, "texture seed")
        w.f64(item.separation_floor)
        # Per class its three channel means, then its spread.
        block = np.column_stack([item.class_means, item.class_spreads])
        w.raw(block.astype("<f8").tobytes())
    elif isinstance(item, PolicyModel):
        w.u8(KIND_POLICY)
        w.u32(item.weights.size, "weight count")
        w.raw(item.weights.astype("<f8").tobytes())
        w.f64(item.ridge_lambda)
        w.u32(item.n_train, "training count")
        w.u16(len(item.provenance_mix), "provenance count")
        for name, count in item.provenance_mix:
            w.short_str(name)
            w.u32(count, "provenance sample count")
    elif isinstance(item, WherePredictor):
        w.u8(KIND_WHERE)
        _encode_array_map(item._state_arrays(), w)
    elif isinstance(item, WhatPredictor):
        w.u8(KIND_WHAT)
        _encode_array_map(item._state_arrays(), w)
    elif isinstance(item, PlausibilityScorer):
        w.u8(KIND_SCORER)
        _encode_array_map(item._state_arrays(), w)
    elif isinstance(item, AugmentationCandidate):
        w.u8(KIND_CANDIDATE)
        _encode_layout_body(item.semantic, item.instances, w)
        # Inserted ids are record ids, which the layout body checked for u32.
        w.u16(item.inserted.size, "inserted id count")
        w.raw(item.inserted.astype("<u4").tobytes())
        w.u32(item.source_sample_id, "source sample id")
        w.u8(0 if item.score is None else 1)
        w.f64(0.0 if item.score is None else item.score)
    elif isinstance(item, np.ndarray):
        vec = np.ascontiguousarray(item, dtype=np.float64)
        if vec.ndim != 1:
            raise ConfigurationError("only 1-D float vectors encode as vector records")
        w.u8(KIND_VECTOR)
        w.u32(vec.size, "vector length")
        w.raw(vec.astype("<f8").tobytes())
    elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], SemanticMap):
        w.u8(KIND_LAYOUT)
        _encode_layout_body(item[0], item[1], w)
    else:
        raise ConfigurationError(f"cannot encode {type(item).__name__} as a model record")
    return w


def _decode_item(data: memoryview) -> ModelItem:
    r = _Reader(data, "model record")
    kind = r.u8()
    try:
        if kind == KIND_STYLE:
            style = r.u16()
            texture_seed = r.u64()
            floor = r.f64()
            block = r.array("<f8", N_CLASSES * 4).reshape(N_CLASSES, 4)
            r.done()
            return StyleModel(
                style=style,
                class_means=np.ascontiguousarray(block[:, :3]),
                class_spreads=block[:, 3].copy(),
                texture_seed=texture_seed,
                separation_floor=floor,
            )
        if kind == KIND_POLICY:
            weights = r.array("<f8", r.u32())
            ridge_lambda = r.f64()
            n_train = r.u32()
            mix = tuple((r.short_str(), r.u32()) for _ in range(r.u16()))
            r.done()
            return PolicyModel(
                weights=weights, ridge_lambda=ridge_lambda, n_train=n_train, provenance_mix=mix
            )
        if kind in (KIND_WHERE, KIND_WHAT, KIND_SCORER):
            arrays = _decode_array_map(r)
            r.done()
            target = {
                KIND_WHERE: WherePredictor,
                KIND_WHAT: WhatPredictor,
                KIND_SCORER: PlausibilityScorer,
            }[kind]
            try:
                model = target._from_state(arrays)
            except (LookupError, TypeError, ValueError, OverflowError) as exc:
                raise DecodeError(f"model record state is malformed: {exc}") from exc
            state = model._state_arrays()
            if state.keys() != arrays.keys():
                raise DecodeError("model record holds arrays its kind does not read")
            for name, arr in arrays.items():
                want = state[name]
                if (arr.dtype, arr.shape) != (want.dtype, want.shape):
                    raise DecodeError(
                        f"array {name!r} is {arr.dtype.str} {arr.shape}, where its kind "
                        f"writes {want.dtype.str} {want.shape}"
                    )
            return model
        if kind == KIND_LAYOUT:
            layout = _decode_layout_body(r)
            r.done()
            return layout
        if kind == KIND_CANDIDATE:
            semantic, instances = _decode_layout_body(r)
            inserted = r.array("<u4", r.u16())
            source = r.u32()
            score = r.flagged("<d", "score")
            r.done()
            return AugmentationCandidate(
                semantic=semantic,
                instances=instances,
                inserted=inserted,
                source_sample_id=source,
                score=score,
            )
        if kind == KIND_VECTOR:
            vec = r.array("<f8", r.u32())
            r.done()
            return vec
    except DecodeError:
        raise
    except ParlError as exc:
        raise DecodeError(f"model payload violates invariants: {exc}") from exc
    raise DecodeError(f"unknown model record kind {kind}")


def _model_container(items: Sequence[ModelItem]) -> _Writer:
    w = _Writer()
    w.raw(MODEL_MAGIC)
    w.u16(FORMAT_VERSION)
    w.u32(len(items), "item count")
    for item in items:
        w.framed(_encode_item(item))
    return w


def encode_models(items: Sequence[ModelItem]) -> bytes:
    return _model_container(items).getvalue()


def decode_models(data: bytes | memoryview) -> list[ModelItem]:
    r = _Reader(data, "model container")
    r.expect_magic(MODEL_MAGIC)
    r.expect_version()
    count = r.u32()
    items = [_decode_item(r.take(r.u32())) for _ in range(count)]
    r.done()
    return items


def write_models(path, items: Sequence[ModelItem]) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_models(items))


def read_models(path) -> list[ModelItem]:
    with open(path, "rb") as fh:
        return decode_models(fh.read())
