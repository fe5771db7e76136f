"""World generator: palette pins, torque oracle, and map consistency."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parl.errors import ConfigurationError
from parl.styles import built_in_style
from parl.world import (
    BACKGROUND_ID,
    THING_CLASSES,
    ClassId,
    Provenance,
    Scenario,
    ScenarioGenerator,
    TaskType,
    WorldConfig,
    extract_instances,
    relabel_sample,
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


def test_task_and_provenance_values():
    assert {t.value for t in TaskType} == {"turn", "avoid-cars", "straight"}
    assert {p.value for p in Provenance} == {"human", "crowdsourced", "augmented"}


@given(
    curvature=st.floats(-1.0, 1.0, allow_nan=False),
    offset=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_torque_formula_oracle(curvature, offset):
    cfg = WorldConfig()
    expected = 0.5 + cfg.torque_curvature_gain * curvature + cfg.torque_offset_gain * offset
    expected = min(1.0, max(0.0, expected))
    assert torque_from_geometry(curvature, offset, cfg) == expected


def test_torque_is_half_iff_geometry_vanishes():
    cfg = WorldConfig()
    assert torque_from_geometry(0.0, 0.0, cfg) == 0.5
    for eps in (1e-9, 1e-3, 0.1):
        assert torque_from_geometry(eps, 0.0, cfg) != 0.5
        assert torque_from_geometry(0.0, -eps, cfg) != 0.5


def test_straight_samples_label_exactly_half(generator):
    for seed in range(8):
        sample = generator.generate_scenario(0, TaskType.STRAIGHT, seed)
        assert sample.label == 0.5


def test_avoid_labels_match_gap_and_side(generator):
    """Avoid labels are exactly 0.5 -/+ gap, steering away from the car."""
    from parl.policy import OBSTACLE_SENTINEL, features_from_maps

    cfg = generator.config
    profile = generator.profiles[0]
    seen_sides = set()
    for seed in range(12):
        sample = generator.generate_scenario(0, TaskType.AVOID_CARS, seed)
        left_label = torque_from_geometry(0.0, -profile.avoid_gap, cfg)
        right_label = torque_from_geometry(0.0, profile.avoid_gap, cfg)
        assert sample.label in (0.5, left_label, right_label)
        if sample.label == 0.5:
            continue  # no corridor car could be placed for this seed
        # The obstacle feature must see the corridor car, on the side the
        # label steers away from.
        obstacle = features_from_maps(sample.semantic).values[-1]
        assert obstacle != OBSTACLE_SENTINEL
        if sample.label > 0.5:
            assert obstacle < 0  # car on the left, steer right
            seen_sides.add("right")
        else:
            assert obstacle > 0
            seen_sides.add("left")
    assert seen_sides == {"left", "right"}


def test_turn_labels_respect_profile_band(generator):
    cfg = generator.config
    profile = generator.profiles[0]
    lo = cfg.torque_curvature_gain * profile.curvature_range[0] - cfg.offset_jitter
    hi = cfg.torque_curvature_gain * profile.curvature_range[1] + cfg.offset_jitter
    for seed in range(10):
        sample = generator.generate_scenario(0, TaskType.TURN, seed)
        assert lo <= abs(sample.label - 0.5) <= hi


def test_generation_is_deterministic(generator):
    a = generator.generate_scenario(1, TaskType.AVOID_CARS, 77)
    b = generator.generate_scenario(1, TaskType.AVOID_CARS, 77)
    assert a.label == b.label
    assert a.semantic == b.semantic
    assert a.instances == b.instances
    assert np.array_equal(a.scenario.pixels, b.scenario.pixels)
    c = generator.generate_scenario(1, TaskType.AVOID_CARS, 78)
    assert not np.array_equal(a.scenario.pixels, c.scenario.pixels)


def test_sample_maps_are_consistent(small_dataset):
    for sample in small_dataset:
        classes = sample.semantic.classes
        grid = sample.instances.instance_grid
        assert classes.shape == grid.shape
        ids = {r.instance_id for r in sample.instances.records}
        present = set(np.unique(grid)) - {BACKGROUND_ID}
        assert present == ids
        for rec in sample.instances.records:
            cells = grid == rec.instance_id
            assert cells.any()
            assert (classes[cells] == rec.class_id).all()
            assert rec.class_id in THING_CLASSES
            ys, xs = np.nonzero(cells)
            x, y, w, h = rec.bbox
            assert (x, y) == (xs.min(), ys.min())
            assert (w, h) == (xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)


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
    by_class = sorted((r.class_id, r.bbox) for r in inst.records)
    assert by_class == [
        (ClassId.CAR, (3, 2, 4, 3)),
        (ClassId.CAR, (4, 15, 5, 3)),
        (ClassId.PEDESTRIAN, (20, 10, 2, 2)),
    ]
    for rec in inst.records:
        cells = inst.instance_grid == rec.instance_id
        assert (classes[cells] == rec.class_id).all()


def test_render_segment_roundtrip_smoke(generator, small_dataset):
    style = generator.styles[0]
    for sample in small_dataset[:5]:
        semantic, instances = segment(sample.scenario, style)
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
    inst = extract_instances(classes)
    from parl.errors import RenderError
    from parl.world import SemanticMap

    with pytest.raises(RenderError):
        render(SemanticMap(classes=classes), inst, gapped, seed=1)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        WorldConfig(width=8)
    with pytest.raises(ConfigurationError):
        WorldConfig(sky_rows=0)


def test_generator_rejects_unknown_style(generator):
    with pytest.raises(ConfigurationError):
        generator.generate_scenario(9, TaskType.STRAIGHT, 1)
    with pytest.raises(ConfigurationError):
        generator.generate_dataset(0, [TaskType.TURN], [1, 2])


def test_relabel_sample(small_dataset):
    sample = small_dataset[0]
    cleared = relabel_sample(sample, None)
    assert cleared.label is None
    assert cleared.semantic == sample.semantic
    back = relabel_sample(cleared, 0.75)
    assert back.label == 0.75
    with pytest.raises(ConfigurationError):
        relabel_sample(sample, 1.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scenario_rejects_non_finite_pixels(small_dataset, value):
    pixels = small_dataset[0].scenario.pixels.copy()
    pixels[3, 5, 1] = value
    with pytest.raises(ConfigurationError):
        Scenario(pixels=pixels, style=0)
