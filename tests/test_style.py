"""Style model construction, fitting, cross-rendering, and affinity."""

import copy
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from parl import baselines, styles
from parl.augment import AugmentationCandidate
from parl.baselines import pooled_style
from parl.codec import decode_models, encode_models
from parl.errors import DecodeError, FittingError
from parl.styles import (
    DEFAULT_SEPARATION_FLOOR,
    N_CLASSES,
    StyleModel,
    _pairwise_min_separation,
    built_in_style,
    class_sums,
    cross_render,
    fit_style,
    style_affinity,
)
from parl.world import (
    DrivingSample,
    Provenance,
    Scenario,
    SemanticMap,
    TaskType,
    extract_instances,
    generate_dataset,
    generate_scenario,
    render,
    segment,
)


def _min_separation(means):
    best = np.inf
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            best = min(best, float(np.max(np.abs(means[i] - means[j]))))
    return best


@given(
    means=st.sampled_from([0, 1, 2, 8]).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(
                    # A few shared values make tied and zero distances common.
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    st.floats(-2.0, 2.0),
                    st.just(float("nan")),
                ),
                min_size=3,
                max_size=3,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=200)
def test_pairwise_min_separation_matches_the_double_loop(means):
    means = np.array(means, dtype=np.float64).reshape(-1, 3)
    got = _pairwise_min_separation(means)
    want = _min_separation(means)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestBuiltInStyles:
    def test_deterministic(self):
        assert built_in_style(4, seed=9) == built_in_style(4, seed=9)

    @given(
        style_id=st.integers(min_value=0, max_value=31),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_separation_floor_plus_margin(self, style_id, seed):
        style = built_in_style(style_id, seed)
        assert _min_separation(style.class_means) >= DEFAULT_SEPARATION_FLOOR + 0.10 - 1e-12
        assert (style.class_spreads < style.separation_floor / 2).all()

    def test_distinct_agents_get_distinct_palettes(self):
        palettes = [built_in_style(agent, seed=3).class_means for agent in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(palettes[i], palettes[j])

    def test_style_id_recorded(self):
        assert built_in_style(6, seed=1).style == 6


class TestFitStyle:
    def test_recovers_generating_palette(self, styles, small_dataset):
        fitted = fit_style(small_dataset)
        truth = styles[0]
        assert fitted.style == truth.style
        # fitted means sit near the true palette, well within the floor
        assert np.max(np.abs(fitted.class_means - truth.class_means)) < DEFAULT_SEPARATION_FLOOR / 2

    def test_fitted_style_segments_its_own_samples(self, small_dataset):
        fitted = fit_style(small_dataset)
        recovered_maps = segment([s.scenario for s in small_dataset[:6]], fitted)
        for sample, recovered in zip(small_dataset[:6], recovered_maps):
            assert np.array_equal(recovered.classes, sample.semantic.classes)

    def test_empty_input_rejected(self):
        with pytest.raises(FittingError, match="at least one sample"):
            fit_style([])

    def test_mixed_styles_rejected(self, styles, profile):
        a = generate_scenario(styles[0], profile, TaskType.STRAIGHT, seed=400)
        b = generate_scenario(styles[1], profile, TaskType.STRAIGHT, seed=401)
        with pytest.raises(FittingError, match="span styles"):
            fit_style([a, b])

    def test_determinism(self, small_dataset):
        assert fit_style(small_dataset) == fit_style(small_dataset)

    def test_missing_class_coverage_rejected(self, small_dataset):
        # repaint every CAR and PEDESTRIAN cell as ROAD in the semantic map:
        # the palette then has no pixel evidence for the thing classes
        broken = []
        for s in small_dataset[:3]:
            classes = s.semantic.classes.copy()
            classes[np.isin(classes, (2, 3))] = 0
            broken.append(
                dataclasses.replace(
                    s,
                    semantic=dataclasses.replace(s.semantic, classes=classes),
                )
            )
        with pytest.raises(FittingError, match="no pixel coverage"):
            fit_style(broken)


def _class_sums_by_mask(samples):
    """The per-class boolean-mask loop class_sums replaced: its reference."""
    sums = np.zeros((N_CLASSES, 3))
    sq_sums = np.zeros((N_CLASSES, 3))
    counts = np.zeros(N_CLASSES, dtype=np.int64)
    for sample in samples:
        pixels = sample.scenario.pixels.astype(np.float64)
        classes = sample.semantic.classes
        for c in range(N_CLASSES):
            mask = classes == c
            n = int(mask.sum())
            if n == 0:
                continue
            vals = pixels[mask]
            sums[c] += vals.sum(axis=0)
            sq_sums[c] += (vals**2).sum(axis=0)
            counts[c] += n
    return sums, sq_sums, counts


def test_class_sums_match_the_per_mask_loop_bit_for_bit(small_dataset):
    # Samples without cars and pedestrians: their cells relabeled road.
    lacking = []
    for s in small_dataset[:4]:
        classes = s.semantic.classes.copy()
        classes[np.isin(classes, (2, 3))] = 0
        lacking.append(
            dataclasses.replace(s, semantic=dataclasses.replace(s.semantic, classes=classes))
        )
    for samples in ([lacking[0]], lacking, small_dataset, lacking + list(small_dataset)):
        got, want = class_sums(samples), _class_sums_by_mask(samples)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def _class_sums_by_bincount(samples):
    """class_sums as one pass per sample per call, before the per-sample cache: its reference."""
    sums = np.zeros((N_CLASSES, 3))
    sq_sums = np.zeros((N_CLASSES, 3))
    counts = np.zeros(N_CLASSES, dtype=np.int64)
    channels, n_bins = np.arange(3), 3 * N_CLASSES
    for sample in samples:
        pixels = sample.scenario.pixels.astype(np.float64).ravel()
        classes = sample.semantic.classes.ravel()
        bins = (classes[:, None] * 3 + channels).ravel()
        sums += np.bincount(bins, weights=pixels, minlength=n_bins).reshape(N_CLASSES, 3)
        sq_sums += np.bincount(bins, weights=pixels**2, minlength=n_bins).reshape(N_CLASSES, 3)
        counts += np.bincount(classes, minlength=N_CLASSES)
    return sums, sq_sums, counts


@pytest.fixture(scope="module")
def robot_splits(styles, profile):
    """Two robots' training splits, two samples per task each."""
    tasks = [task for task in TaskType for _ in range(2)]
    return [
        generate_dataset(style, profile, tasks, list(range(600 + 10 * robot, 606 + 10 * robot)))
        for robot, style in enumerate(styles)
    ]


def _fresh(splits):
    """Copies of the samples with the same fields and no cached statistics."""
    return [[dataclasses.replace(s) for s in split] for split in splits]


def _fit_all(splits, pooled_first):
    """(robot styles, pooled style), fitted in the order parl run (pooled first) or rescore uses."""
    pooled = [s for split in splits for s in split]
    if pooled_first:
        central = pooled_style(pooled)
        return [fit_style(split) for split in splits], central
    robots = [fit_style(split) for split in splits]
    return robots, pooled_style(pooled)


def _style_bytes(style):
    return style.class_means.tobytes(), style.class_spreads.tobytes(), style.texture_seed


class TestCachedClassStats:
    @pytest.fixture(scope="class")
    def reference(self, robot_splits):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(styles, "class_sums", _class_sums_by_bincount)
            monkeypatch.setattr(baselines, "class_sums", _class_sums_by_bincount)
            robots, central = _fit_all(_fresh(robot_splits), pooled_first=True)
        return [_style_bytes(style) for style in robots], _style_bytes(central)

    @pytest.mark.parametrize("pooled_first", [True, False])
    def test_fits_match_the_per_call_loop_fresh_and_cached(
        self, robot_splits, reference, pooled_first
    ):
        splits = _fresh(robot_splits)
        for _ in range(2):  # fresh statistics, then the ones the first fits cached
            robots, central = _fit_all(splits, pooled_first)
            assert ([_style_bytes(style) for style in robots], _style_bytes(central)) == reference

    def test_each_sample_is_read_once_across_every_fit(self, robot_splits, monkeypatch):
        reads = []
        compute = DrivingSample.class_stats.func

        def counted(sample):
            reads.append(id(sample))
            return compute(sample)

        prop = functools.cached_property(counted)
        prop.__set_name__(DrivingSample, "class_stats")
        monkeypatch.setattr(DrivingSample, "class_stats", prop)
        splits = _fresh(robot_splits)
        for pooled_first in (True, False):
            _fit_all(splits, pooled_first)
        samples = [s for split in splits for s in split]
        assert sorted(reads) == sorted(id(s) for s in samples)

    def test_a_replaced_copy_with_other_pixels_gets_its_own_statistics(self, small_dataset):
        sample = dataclasses.replace(small_dataset[0])
        stats = sample.class_stats
        assert all(not a.flags.writeable for a in stats)
        pixels = sample.scenario.pixels[::-1].copy()
        other = dataclasses.replace(sample, scenario=Scenario(pixels=pixels, style=0))
        assert sample.class_stats is stats
        got, want = other.class_stats, _class_sums_by_bincount([other])
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert got[0].tobytes() != stats[0].tobytes()


class TestCrossRender:
    def test_cross_render_segments_back_exactly(self, styles, small_dataset):
        sample = small_dataset[0]
        candidate = AugmentationCandidate(
            semantic=sample.semantic,
            instances=sample.instances,
            inserted=(),
            source_sample_id=0,
            score=None,
        )
        for sid, style in enumerate(styles):
            scenario = cross_render(candidate, style, seed=77)
            assert scenario.style == style.style
            (recovered,) = segment([scenario], style)
            assert np.array_equal(recovered.classes, sample.semantic.classes), sid

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_maps_segment_back_exactly_under_built_in_and_fitted_styles(self, data):
        """segment inverts render, and so cross_render, under any built-in or fitted style.

        Maps are random class grids 16-64 cells a side, each with a road
        cell. The fitted style is fit_style of samples rendered in the
        drawn built-in style; the palette is written into the first row of
        each of those samples' maps so that every class has cells to fit.
        """
        def class_map():
            shape = data.draw(st.tuples(st.integers(16, 64), st.integers(16, 64)))
            grid = data.draw(
                arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1),
                       fill=st.integers(0, N_CLASSES - 1))
            )
            road = data.draw(st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1)))
            grid[road] = 0
            return grid

        seeds = st.integers(0, 2**32 - 1)
        built = built_in_style(data.draw(st.integers(0, 15)), data.draw(seeds))
        fit_samples = []
        for _ in range(data.draw(st.integers(1, 3))):
            classes = class_map()
            classes[0, :N_CLASSES] = np.arange(N_CLASSES)
            semantic = SemanticMap(classes=classes)
            fit_samples.append(
                DrivingSample(
                    scenario=render(semantic, built, data.draw(seeds)),
                    semantic=semantic,
                    instances=extract_instances(semantic.classes),
                    label=None,
                    task=TaskType.STRAIGHT,
                    provenance=Provenance.HUMAN,
                )
            )
        maps = [SemanticMap(classes=class_map()) for _ in range(data.draw(st.integers(1, 4)))]
        for style in (built, fit_style(fit_samples)):
            scenarios = [render(m, style, data.draw(seeds)) for m in maps]
            assert segment(scenarios, style) == maps

    def test_cross_render_is_seed_deterministic(self, styles, small_dataset):
        sample = small_dataset[0]
        candidate = AugmentationCandidate(
            semantic=sample.semantic,
            instances=sample.instances,
            inserted=(),
            source_sample_id=0,
            score=None,
        )
        style = styles[1]
        a = cross_render(candidate, style, seed=5)
        b = cross_render(candidate, style, seed=5)
        c = cross_render(candidate, style, seed=6)
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)


class TestAffinity:
    def test_self_affinity_is_one(self):
        style = built_in_style(2, seed=8)
        assert style_affinity(style, style) == pytest.approx(1.0)

    def test_symmetric_and_bounded(self):
        a, b = built_in_style(0, seed=8), built_in_style(1, seed=8)
        ab = style_affinity(a, b)
        assert ab == pytest.approx(style_affinity(b, a))
        assert 0.0 < ab <= 1.0

    def test_distance_monotonicity(self):
        a = built_in_style(0, seed=8)
        nearby = dataclasses.replace(a, class_means=np.clip(a.class_means + 0.01, 0, 1))
        far = dataclasses.replace(a, class_means=np.clip(a.class_means + 0.2, 0, 1))
        assert style_affinity(a, nearby) > style_affinity(a, far)


def _tampered(model, **fields):
    """A copy of model holding fields its checks reject, as a corrupted record would."""
    bad = copy.copy(model)
    for name, value in fields.items():
        object.__setattr__(bad, name, value)
    return bad


_ONE_CLASS = np.arange(N_CLASSES) == 1
_BAD_STYLE_FIELDS = {
    "nan-spread": lambda s: {"class_spreads": np.where(_ONE_CLASS, np.nan, s.class_spreads)},
    "negative-spread": lambda s: {"class_spreads": np.where(_ONE_CLASS, -0.01, s.class_spreads)},
    "nan-floor": lambda s: {"separation_floor": float("nan")},
}


class TestStyleModelValidation:
    @pytest.mark.parametrize("case", sorted(_BAD_STYLE_FIELDS))
    def test_nan_and_negative_state_rejected(self, case):
        style = built_in_style(1, seed=4)
        fields = _BAD_STYLE_FIELDS[case](style)
        with pytest.raises(FittingError):
            dataclasses.replace(style, **fields)
        with pytest.raises(DecodeError):
            decode_models(encode_models([_tampered(style, **fields)]))

    def test_bad_shapes_rejected(self):
        with pytest.raises(FittingError):
            StyleModel(
                style=0,
                class_means=np.zeros((4, 3)),
                class_spreads=np.zeros(N_CLASSES),
                texture_seed=0,
            )

    def test_separation_violation_rejected(self):
        means = np.zeros((N_CLASSES, 3))  # all classes identical
        with pytest.raises(FittingError, match="separat"):
            StyleModel(
                style=0,
                class_means=means,
                class_spreads=np.zeros(N_CLASSES),
                texture_seed=0,
            )
