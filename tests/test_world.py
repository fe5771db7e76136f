"""World generator: palette pins, torque oracle, and map consistency."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parl.codec import decode_samples, encode_samples
from parl.errors import ConfigurationError, RenderError
from parl.styles import N_CLASSES, built_in_style
from parl.world import (
    BACKGROUND_ID,
    OFFSET_JITTER,
    THING_CLASSES,
    TORQUE_CURVATURE_GAIN,
    TORQUE_OFFSET_GAIN,
    AgentProfile,
    ClassId,
    InstanceMap,
    Provenance,
    RECORD_DTYPE,
    Scenario,
    SemanticMap,
    TaskType,
    _grid_records,
    _shape_chunks,
    _texture_noise,
    extract_instances,
    generate_dataset,
    generate_scenario,
    render,
    segment,
    torque_from_geometry,
)


def test_class_palette_is_pinned():
    assert ClassId.ROAD == 0
    assert ClassId.LANE_MARKING == 1
    assert ClassId.CAR == 2
    assert ClassId.PEDESTRIAN == 3
    assert ClassId.BUILDING == 4
    assert ClassId.VEGETATION == 5
    assert ClassId.SKY == 6
    assert ClassId.SIDEWALK == 7
    assert THING_CLASSES == (ClassId.CAR, ClassId.PEDESTRIAN)
    assert BACKGROUND_ID == -1


def test_class_ids_are_exact_ints(small_dataset):
    """numpy takes a slow path for an int subclass, so no class id may be one."""
    members = {name: v for name, v in vars(ClassId).items() if name.isupper()}
    assert sorted(members.values()) == list(range(N_CLASSES))
    assert all(type(v) is int for v in members.values())
    assert all(type(c) is int for c in THING_CLASSES)
    decoded = decode_samples(encode_samples(small_dataset))
    tables = [s.instances.records for s in small_dataset + decoded]
    assert all(t.dtype == RECORD_DTYPE for t in tables)
    assert np.concatenate(tables).size


def test_task_and_provenance_values():
    assert {t.value for t in TaskType} == {"turn", "avoid-cars", "straight"}
    assert {p.value for p in Provenance} == {"human", "crowdsourced", "augmented"}


@given(
    curvature=st.floats(-1.0, 1.0, allow_nan=False),
    offset=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_torque_formula_oracle(curvature, offset):
    expected = 0.5 + TORQUE_CURVATURE_GAIN * curvature + TORQUE_OFFSET_GAIN * offset
    expected = min(1.0, max(0.0, expected))
    assert torque_from_geometry(curvature, offset) == expected


def test_torque_is_half_iff_geometry_vanishes():
    assert torque_from_geometry(0.0, 0.0) == 0.5
    for eps in (1e-9, 1e-3, 0.1):
        assert torque_from_geometry(eps, 0.0) != 0.5
        assert torque_from_geometry(0.0, -eps) != 0.5


def test_straight_samples_label_exactly_half(styles, profile):
    for seed in range(8):
        sample = generate_scenario(styles[0], profile, TaskType.STRAIGHT, seed)
        assert sample.label == 0.5


def test_avoid_labels_match_gap_and_side(styles, profile):
    """Avoid labels are exactly 0.5 -/+ gap, steering away from the car."""
    from parl.policy import OBSTACLE_SENTINEL, features_from_maps

    seen_sides = set()
    for seed in range(12):
        sample = generate_scenario(styles[0], profile, TaskType.AVOID_CARS, seed)
        left_label = torque_from_geometry(0.0, -profile.avoid_gap)
        right_label = torque_from_geometry(0.0, profile.avoid_gap)
        assert sample.label in (0.5, left_label, right_label)
        if sample.label == 0.5:
            continue  # no corridor car could be placed for this seed
        # The obstacle feature must see the corridor car, on the side the
        # label steers away from.
        obstacle = features_from_maps([sample.semantic])[0, -1]
        assert obstacle != OBSTACLE_SENTINEL
        if sample.label > 0.5:
            assert obstacle < 0  # car on the left, steer right
            seen_sides.add("right")
        else:
            assert obstacle > 0
            seen_sides.add("left")
    assert seen_sides == {"left", "right"}


def test_turn_labels_respect_profile_band(styles, profile):
    lo = TORQUE_CURVATURE_GAIN * profile.curvature_range[0] - OFFSET_JITTER
    hi = TORQUE_CURVATURE_GAIN * profile.curvature_range[1] + OFFSET_JITTER
    for seed in range(10):
        sample = generate_scenario(styles[0], profile, TaskType.TURN, seed)
        assert lo <= abs(sample.label - 0.5) <= hi


def test_generation_is_deterministic(styles, profile):
    a = generate_scenario(styles[1], profile, TaskType.AVOID_CARS, 77)
    b = generate_scenario(styles[1], profile, TaskType.AVOID_CARS, 77)
    assert a.label == b.label
    assert a.semantic == b.semantic
    assert a.instances == b.instances
    assert np.array_equal(a.scenario.pixels, b.scenario.pixels)
    c = generate_scenario(styles[1], profile, TaskType.AVOID_CARS, 78)
    assert not np.array_equal(a.scenario.pixels, c.scenario.pixels)


def test_sample_maps_are_consistent(small_dataset):
    for sample in small_dataset:
        classes = sample.semantic.classes
        grid = sample.instances.instance_grid
        assert classes.shape == grid.shape
        records = sample.instances.records
        present = set(np.unique(grid).tolist()) - {BACKGROUND_ID}
        assert present == set(records["id"].tolist())
        for inst_id, cls, bbox, affine in zip(
            records["id"].tolist(),
            records["cls"].tolist(),
            records["bbox"].tolist(),
            records["affine"].tolist(),
        ):
            cells = grid == inst_id
            assert cells.any()
            assert (classes[cells] == cls).all()
            assert cls in THING_CLASSES
            ys, xs = np.nonzero(cells)
            x, y, w, h = bbox
            assert (x, y) == (xs.min(), ys.min())
            assert (w, h) == (xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)
            assert affine == [x, y, 1.0, 1.0]


@given(
    seed=st.integers(0, 2**64 - 1),
    task=st.sampled_from(list(TaskType)),
    style_id=st.integers(0, 3),
    world_seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.0),
    turn_right_bias=st.sampled_from([0.1, 0.9]),
)
@settings(max_examples=60, deadline=None)
def test_generated_records_are_read_off_the_painted_grid(
    seed, task, style_id, world_seed, t, turn_right_bias
):
    """Each id 0..n-1 holds a cell, and its record is its cells' class and tight extent.

    Profiles are shaped like harness.agent_profiles'. The table is the one
    _grid_records reads off the sample's class and id grids, the rule
    extract_instances follows too.
    """
    profile = AgentProfile(
        curvature_range=(0.08, 0.18), avoid_gap=0.16 + 0.02 * t, turn_right_bias=turn_right_bias
    )
    sample = generate_scenario(built_in_style(style_id, world_seed), profile, task, seed)
    classes = sample.semantic.classes
    grid = sample.instances.instance_grid
    records = sample.instances.records
    n = len(records)
    assert records["id"].tolist() == list(range(n))
    assert set(np.unique(grid).tolist()) <= {BACKGROUND_ID, *range(n)}
    for inst_id, cls, bbox in zip(range(n), records["cls"].tolist(), records["bbox"].tolist()):
        ys, xs = np.nonzero(grid == inst_id)
        assert ys.size > 0
        assert set(classes[ys, xs].tolist()) == {cls}
        extent = [xs.min(), ys.min(), xs.max() - xs.min() + 1, ys.max() - ys.min() + 1]
        assert bbox == extent
    assert records.tobytes() == _grid_records(classes, grid, n).tobytes()


def test_sample_covers_every_class(small_dataset):
    union = np.zeros(8, dtype=bool)
    for sample in small_dataset:
        union |= np.bincount(sample.semantic.classes.ravel(), minlength=8) > 0
    assert union.all()


def test_extract_instances_oracle():
    classes = np.full((20, 30), ClassId.ROAD, dtype=np.uint8)
    classes[2:5, 3:7] = ClassId.CAR
    classes[10:12, 20:22] = ClassId.PEDESTRIAN
    classes[15:18, 4:9] = ClassId.CAR
    inst = extract_instances(classes)
    assert len(inst.records) == 3
    by_class = sorted(zip(inst.records["cls"].tolist(), inst.records["bbox"].tolist()))
    assert by_class == [
        (ClassId.CAR, [3, 2, 4, 3]),
        (ClassId.CAR, [4, 15, 5, 3]),
        (ClassId.PEDESTRIAN, [20, 10, 2, 2]),
    ]
    for inst_id, cls in zip(inst.records["id"].tolist(), inst.records["cls"].tolist()):
        cells = inst.instance_grid == inst_id
        assert (classes[cells] == cls).all()


def test_render_segment_roundtrip_smoke(styles, small_dataset):
    style = styles[0]
    semantics = segment([s.scenario for s in small_dataset[:5]], style)
    for sample, semantic in zip(small_dataset[:5], semantics):
        instances = extract_instances(semantic.classes)
        assert semantic == sample.semantic
        assert len(instances.records) == len(sample.instances.records)


def test_render_rejects_missing_class():
    style = built_in_style(0, seed=5)
    means = style.class_means.copy()
    means[int(ClassId.CAR)] = np.nan
    gapped = type(style)(
        style=style.style,
        class_means=means,
        class_spreads=style.class_spreads,
        texture_seed=style.texture_seed,
    )
    classes = np.full((20, 30), ClassId.ROAD, dtype=np.uint8)
    classes[4:6, 4:6] = ClassId.CAR
    with pytest.raises(RenderError):
        render(SemanticMap(classes=classes), gapped, seed=1)


def test_render_names_the_lowest_missing_class_it_paints():
    style = built_in_style(0, seed=5)
    means = style.class_means.copy()
    means[[ClassId.CAR, ClassId.PEDESTRIAN, ClassId.SKY]] = np.nan
    gapped = dataclasses.replace(style, class_means=means)
    classes = np.full((20, 30), ClassId.ROAD, dtype=np.uint8)
    classes[4:6, 4:6] = ClassId.PEDESTRIAN
    classes[10:12, 4:6] = ClassId.CAR
    semantic = SemanticMap(classes=classes)
    with pytest.raises(RenderError, match=r"^style 0 has no appearance for class 2$"):
        render(semantic, gapped, seed=1)
    # A class the style lacks but the map does not hold is no obstacle.
    plain = np.full((20, 30), ClassId.ROAD, dtype=np.uint8)
    scenario = render(SemanticMap(classes=plain), gapped, seed=1)
    assert scenario.pixels.shape == (20, 30, 3)


def _render_out_of_place(semantic, style, seed):
    """render's pixels as they were made: one new array per step."""
    classes = semantic.classes
    means = style.class_means[classes]
    amps = style.class_spreads[classes][..., None]
    noise = _texture_noise(semantic.height, semantic.width, style, seed)
    return np.clip(means + noise * amps, 0.0, 1.0).astype(np.float32)


@given(
    map_seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(16, 40), st.integers(16, 40)),
    style_id=st.integers(0, 7),
    spreads_at_cap=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=80)
def test_render_in_place_matches_the_out_of_place_expression(
    map_seed, shape, style_id, spreads_at_cap, seed
):
    rng = np.random.default_rng(map_seed)
    style = built_in_style(style_id, seed=5)
    cap = style.separation_floor / 2 * (1 - 1e-9)
    spreads = np.full(N_CLASSES, cap) if spreads_at_cap else rng.uniform(0.0, cap, N_CLASSES)
    style = dataclasses.replace(style, class_spreads=spreads)
    semantic = SemanticMap(classes=rng.integers(0, N_CLASSES, shape).astype(np.uint8))
    pixels = render(semantic, style, seed).pixels
    want = _render_out_of_place(semantic, style, seed)
    assert pixels.dtype == want.dtype and pixels.tobytes() == want.tobytes()


def test_generate_dataset_rejects_misaligned_tasks_and_seeds(styles, profile):
    with pytest.raises(ConfigurationError, match="^tasks and seeds must align$"):
        generate_dataset(styles[0], profile, [TaskType.TURN], [1, 2])


def test_sample_rejects_label_outside_unit_interval(small_dataset):
    with pytest.raises(ConfigurationError):
        dataclasses.replace(small_dataset[0], label=1.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_pixels(small_dataset, value):
    pixels = small_dataset[0].scenario.pixels.copy()
    pixels[3, 5, 1] = value
    with pytest.raises(ConfigurationError):
        Scenario(pixels=pixels, style=0)


def _one_cell_map(*rows):
    """A 4x4 grid whose cell (1, 2) holds id 0, with the given record rows."""
    grid = np.full((4, 4), BACKGROUND_ID, dtype=np.int32)
    grid[1, 2] = 0
    return grid, np.array(list(rows), dtype=RECORD_DTYPE)


_UNIT = (0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(0, ClassId.SIDEWALK, (2, 1, 1, 1), _UNIT)], "7 is not an instance class"),
        ([(0, 255, (2, 1, 1, 1), _UNIT)], "255 is not an instance class"),
        ([(0, ClassId.CAR, (2, 1, 0, 1), _UNIT)], r"bad bbox \(2, 1, 0, 1\)"),
        ([(0, ClassId.CAR, (2, 1, 1, -1), _UNIT)], r"bad bbox \(2, 1, 1, -1\)"),
        ([(0, ClassId.CAR, (-1, 1, 4, 1), _UNIT)], r"bad bbox \(-1, 1, 4, 1\)"),
        # The first bad row decides, its class before its bbox.
        (
            [(0, ClassId.CAR, (2, 1, 1, 0), _UNIT), (1, ClassId.ROAD, (0, 0, 0, 0), _UNIT)],
            r"bad bbox \(2, 1, 1, 0\)",
        ),
        ([(1, ClassId.CAR, (2, 1, 1, 1), _UNIT)], "grid references ids missing from records"),
        ([], "grid references ids missing from records"),
        (
            [(0, ClassId.CAR, (2, 1, 1, 1), _UNIT), (0, ClassId.CAR, (0, 0, 1, 1), _UNIT)],
            "duplicate instance ids in records",
        ),
        ([(0, ClassId.CAR, (0, 0, 2, 2), _UNIT)], r"bbox \(0, 0, 2, 2\) does not enclose instance 0"),
        (
            [(5, ClassId.CAR, (0, 0, 1, 1), _UNIT), (0, ClassId.PEDESTRIAN, (2, 1, 1, 3), _UNIT)],
            None,
        ),
    ],
)
def test_instance_map_checks_every_row_of_its_table(rows, message):
    grid, records = _one_cell_map(*rows)
    if message is None:
        built = InstanceMap(instance_grid=grid, records=records)
        assert built.records.dtype == RECORD_DTYPE and not built.records.flags.writeable
        assert built.next_free_id() == 6
        return
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        InstanceMap(instance_grid=grid, records=records)


def test_instance_map_takes_a_one_dimensional_table():
    grid, records = _one_cell_map((0, ClassId.CAR, (2, 1, 1, 1), _UNIT))
    with pytest.raises(ConfigurationError, match="1-D table"):
        InstanceMap(instance_grid=grid, records=records.reshape(1, 1))


@pytest.mark.parametrize(
    "size,chunks",
    [(1, [[0], [2], [4], [5], [1], [3]]), (2, [[0, 2], [4, 5], [1, 3]]), (8, [[0, 2, 4, 5], [1, 3]])],
)
def test_shape_chunks_group_positions_by_first_seen_shape(size, chunks):
    shapes = [(32, 64), (16, 16), (32, 64), (16, 16), (32, 64), (32, 64)]
    assert list(_shape_chunks(iter(shapes), size)) == chunks
