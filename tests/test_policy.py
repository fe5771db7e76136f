"""Feature extraction, ridge training, fine-tuning, crowdsourcing, evaluation."""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parl.codec import decode_models, encode_models
from parl.errors import DecodeError, DegenerateInputError, EvaluationError, TrainingError
from parl.policy import (
    N_FEATURES,
    N_OCCUPANCY,
    OBSTACLE_SENTINEL,
    PolicyModel,
    crowdsource_labels,
    evaluate,
    features_from_maps,
    featurize,
    fine_tune,
    _canonical_rows,
    train,
)
from parl.styles import fit_style, style_affinity
from parl.world import ClassId, Provenance, Scenario, SemanticMap, TaskType, generate_dataset

# Values whose bytes order differently from their numbers: both zeros, a
# negative, an infinity and a NaN.
_ROW_VALUES = (0.0, -0.0, 1.0, -1.5, 2.25, 1e-300, float("inf"), float("nan"))


def _reference_canonical_rows(xs, ys):
    """The unique [x | y] rows sorted by their bytes, first of each kept, with counts."""
    keys = [row.tobytes() + y.tobytes() for row, y in zip(xs, ys)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    kept: list[int] = []
    counts: list[int] = []
    previous = None
    for idx in order:
        if keys[idx] == previous:
            counts[-1] += 1
        else:
            kept.append(idx)
            counts.append(1)
            previous = keys[idx]
    return xs[kept], ys[kept], np.asarray(counts, dtype=np.float64)


def _rows(samples, style):
    """The samples' features and labels, as train takes them."""
    return featurize(samples, style), [s.label for s in samples]


def _human(labels):
    """One human provenance per label."""
    return [Provenance.HUMAN] * len(labels)


def _constant_model(value):
    w = np.zeros(N_FEATURES + 1)
    w[0] = value
    return PolicyModel(weights=w, ridge_lambda=0.0, n_train=1)


def _tampered(model, **fields):
    """A copy of model holding fields its checks reject, as a corrupted record would."""
    bad = copy.copy(model)
    for name, value in fields.items():
        object.__setattr__(bad, name, value)
    return bad


def _random_features(rng, n):
    out = np.empty((n, N_FEATURES))
    for row in out:
        row[:N_OCCUPANCY] = rng.uniform(0.0, 1.0, N_OCCUPANCY)
        row[N_OCCUPANCY:] = rng.uniform(-0.5, 0.5, 2)
    return out


def _mixed(rng, shape, zero_fraction):
    """Signed values spread over 24 decades, zero_fraction of them +0 or -0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
    zeros = rng.random(shape) < zero_fraction
    values[zeros] = np.copysign(0.0, rng.standard_normal(int(zeros.sum())))
    return values


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _predict_row_by_row(model, features):
    """PolicyModel.predict as it was: one vector, one `@`, Python's min and max."""
    return [
        float(min(1.0, max(0.0, model.weights[0] + float(model.weights[1:] @ f))))
        for f in features
    ]


def _clamped_predictions(rng, members, n):
    """members x n predictions in [0, 1], with 0 and 1 common, as predict clamps."""
    preds = rng.uniform(0.0, 1.0, (members, n))
    preds[rng.random(preds.shape) < 0.2] = 0.0
    preds[rng.random(preds.shape) < 0.2] = 1.0
    return preds


def _labels_column_by_column(predictions, member_styles, target_styles):
    """crowdsource_labels as it was: one np.dot per candidate column."""
    weights = np.array([[style_affinity(t, s) for s in member_styles] for t in target_styles])
    weights = (weights / weights.sum(axis=1, keepdims=True)).mean(axis=0)
    return [float(np.dot(weights, column)) for column in np.ascontiguousarray(predictions.T)]


# The widths of the row-wise dots in the run: crowdsource_labels' three
# members, the scorer's four components and the policy's features.
@pytest.mark.parametrize("width", [3, 4, N_FEATURES])
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    zero_fraction=st.sampled_from([0.0, 0.3, 1.0]),
)
@settings(max_examples=60)
def test_vecdot_adds_each_row_as_a_lone_dot(width, seed, n, zero_fraction):
    rng = np.random.default_rng(seed)
    w = _mixed(rng, width, zero_fraction / 2)
    rows = _mixed(rng, (n, width), zero_fraction)
    got = _bits(np.vecdot(w, rows))
    assert got == _bits([float(w @ row) for row in rows])
    assert got == _bits([float(np.dot(w, row)) for row in rows])


def _painted(sample, style, classes):
    """The sample with its pixels painted as class means: segments to classes."""
    pixels = style.class_means[classes].astype(np.float32)
    return replace(sample, scenario=Scenario(pixels=pixels, style=style.style))


def _far_road_and_roadless():
    """Road in the top rows only (no near-band road), and no road at all."""
    far_road = np.full((32, 64), int(ClassId.VEGETATION), dtype=np.uint8)
    far_road[:4] = int(ClassId.ROAD)
    return far_road, np.full((32, 64), int(ClassId.VEGETATION), dtype=np.uint8)


def _synthetic_grid():
    """All-vegetation scene with a straight road band down the middle."""
    classes = np.full((32, 64), int(ClassId.VEGETATION), dtype=np.uint8)
    classes[:, 24:41] = int(ClassId.ROAD)
    return classes


class TestFeatures:
    def test_occupancy_matches_hand_pooling(self, small_dataset):
        sample = small_dataset[0]
        vec = features_from_maps([sample.semantic])[0]
        classes = sample.semantic.classes
        h, w = classes.shape
        for c in range(8):
            for i in range(4):
                for j in range(4):
                    block = classes[
                        i * h // 4 : (i + 1) * h // 4, j * w // 4 : (j + 1) * w // 4
                    ]
                    frac = float((block == c).mean())
                    assert vec[c * 16 + i * 4 + j] == pytest.approx(frac, abs=1e-12)

    def test_occupancy_fractions_sum_to_one_per_pool(self, small_dataset):
        for sample in small_dataset:
            occ = features_from_maps([sample.semantic])[0, :N_OCCUPANCY].reshape(8, 4, 4)
            assert np.allclose(occ.sum(axis=0), 1.0)

    def test_featurize_equals_features_from_maps_on_clean_render(self, small_dataset):
        style = fit_style(small_dataset)
        samples = small_dataset[:4]
        want = features_from_maps([s.semantic for s in samples])
        assert featurize(samples, style).tobytes() == want.tobytes()

    def test_feature_arrays_are_read_only_rows_in_input_order(self, small_dataset):
        style = fit_style(small_dataset)
        samples = small_dataset[:10]
        for features, n in (
            (featurize(samples, style), len(samples)),
            (features_from_maps([s.semantic for s in samples]), len(samples)),
            (featurize([], style), 0),
            (features_from_maps([]), 0),
        ):
            assert features.dtype == np.float64
            assert features.shape == (n, N_FEATURES)
            assert not features.flags.writeable
            with pytest.raises(ValueError):
                features[:1] = 0.0
        rows = featurize(samples, style)
        assert len(rows) == len(samples)
        for row, sample in zip(rows, samples):
            assert row.tobytes() == featurize([sample], style)[0].tobytes()

    def test_featurize_raises_the_first_failing_samples_error(self, small_dataset):
        style = fit_style(small_dataset)
        far_road, roadless = _far_road_and_roadless()
        ok = list(small_dataset[:9])
        # The near-band failure is featurization's, the roadless one
        # segmentation's; the earlier sample decides, across chunks.
        far_first = ok[:2] + [_painted(ok[2], style, far_road)] + ok[2:8]
        far_first += [_painted(ok[8], style, roadless)]
        with pytest.raises(DegenerateInputError, match="no road cells in the near band"):
            featurize(far_first, style)
        roadless_first = ok[:2] + [_painted(ok[2], style, roadless)] + ok[2:8]
        roadless_first += [_painted(ok[8], style, far_road)]
        with pytest.raises(DegenerateInputError, match="segmented scenario contains no road"):
            featurize(roadless_first, style)
        assert featurize([], style).shape == (0, N_FEATURES)

    def test_obstacle_feature_detects_corridor_car(self):
        classes = _synthetic_grid()
        classes[10:13, 34:38] = int(ClassId.CAR)  # road interior below stays road
        vec = features_from_maps([SemanticMap(classes=classes)])[0]
        assert vec[-1] == pytest.approx((35.5 - 31.5) / 4.0)

    def test_obstacle_feature_ignores_roadside_car(self):
        classes = _synthetic_grid()
        classes[10:13, 4:8] = int(ClassId.CAR)  # sits on vegetation
        vec = features_from_maps([SemanticMap(classes=classes)])[0]
        assert vec[-1] == OBSTACLE_SENTINEL

    def test_obstacle_feature_prefers_nearest_row(self):
        classes = _synthetic_grid()
        classes[8:10, 26:29] = int(ClassId.CAR)
        classes[20:22, 36:39] = int(ClassId.CAR)  # nearer to the agent
        vec = features_from_maps([SemanticMap(classes=classes)])[0]
        assert vec[-1] == pytest.approx((37.0 - 31.5) / 4.0)

    def test_avoid_samples_expose_signed_obstacle(self, small_dataset):
        seen = set()
        for s in small_dataset:
            if s.task != TaskType.AVOID_CARS or s.label == 0.5:
                continue
            obstacle = features_from_maps([s.semantic])[0, -1]
            assert obstacle != OBSTACLE_SENTINEL
            seen.add(obstacle > 0)
        assert seen  # the fixture contains labeled avoid scenes

    def test_lane_offset_sign(self):
        classes = _synthetic_grid()
        left = features_from_maps([SemanticMap(classes=classes)])[0][-2]
        shifted = np.full((32, 64), int(ClassId.VEGETATION), dtype=np.uint8)
        shifted[:, 34:51] = int(ClassId.ROAD)
        right = features_from_maps([SemanticMap(classes=shifted)])[0][-2]
        assert right > left


class TestTrain:
    def test_planted_linear_rule_recovered(self):
        rng = np.random.default_rng(101)
        feats = _random_features(rng, 400)
        w_true = rng.uniform(-0.002, 0.002, N_FEATURES)
        labels = [0.5 + float(f @ w_true) for f in feats]
        model = train(feats, labels, ridge_lambda=1e-9, provenances=_human(labels))
        probe = _random_features(rng, 50)
        for f, got in zip(probe, model.predict(probe)):
            truth = 0.5 + float(f @ w_true)
            assert abs(got - truth) <= 1e-6

    def test_single_sample_interpolated(self):
        rng = np.random.default_rng(5)
        f = _random_features(rng, 1)
        model = train(f, [0.625], ridge_lambda=1e-9, provenances=[Provenance.HUMAN])
        assert abs(model.predict(f)[0] - 0.625) <= 1e-6

    def test_duplicated_dataset_identical_weights(self, small_dataset):
        style = fit_style(small_dataset)
        features, labels = _rows(small_dataset, style)
        once = train(features, labels, 1e-3, _human(labels))
        doubled = np.concatenate((features, features))
        twice = train(doubled, labels + labels, 1e-3, _human(labels * 2))
        assert once.weights.tobytes() == twice.weights.tobytes()

    def test_permutation_invariance_is_bit_exact(self, small_dataset):
        style = fit_style(small_dataset)
        features, labels = _rows(small_dataset, style)
        model_fwd = train(features, labels, 1e-3, _human(labels))
        model_rev = train(features[::-1], labels[::-1], 1e-3, _human(labels))
        assert model_fwd.weights.tobytes() == model_rev.weights.tobytes()
        order = np.random.default_rng(3).permutation(len(labels))
        shuffled = train(features[order], [labels[i] for i in order], 1e-3, _human(labels))
        assert shuffled.weights.tobytes() == model_fwd.weights.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.lists(st.sampled_from(_ROW_VALUES), min_size=d + 1, max_size=d + 1),
                min_size=1,
                max_size=6,
            ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30))
        )
    )
    def test_canonical_rows_match_the_byte_key_sort(self, rows):
        # Rows drawn from a small pool, so most batches hold duplicates.
        table = np.array(rows, dtype=np.float64)
        xs, ys = table[:, :-1], table[:, -1]
        got, want = _canonical_rows(xs, ys), _reference_canonical_rows(xs, ys)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_provenance_mix_recorded(self, small_dataset):
        style = fit_style(small_dataset)
        features, labels = _rows(small_dataset, style)
        model = train(features, labels, 1e-3, provenances=[s.provenance for s in small_dataset])
        assert model.provenance_mix == (("human", len(small_dataset)),)
        assert model.n_train == len(small_dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(TrainingError):
            train(np.empty((0, N_FEATURES)), [], 1e-3, [])

    def test_negative_lambda_rejected(self):
        rng = np.random.default_rng(6)
        labels = [0.5] * 3
        with pytest.raises(TrainingError):
            train(_random_features(rng, 3), labels, -1e-6, _human(labels))

    def test_misaligned_features_and_labels_rejected(self):
        # zip would pair the shorter length and drop the rest silently.
        rng = np.random.default_rng(7)
        features = _random_features(rng, 4)
        for labels in ([0.5] * 3, [0.5] * 5):
            with pytest.raises(TrainingError, match="feature rows for"):
                train(features, labels, 1e-3, _human(labels))


class TestFineTune:
    @pytest.fixture
    def shared_and_local(self, styles, profile):
        tasks = [TaskType.TURN, TaskType.AVOID_CARS, TaskType.STRAIGHT] * 8
        local_samples = generate_dataset(styles[0], profile, tasks, seeds=range(500, 524))
        other_samples = generate_dataset(styles[1], profile, tasks, seeds=range(600, 624))
        style0 = fit_style(local_samples)
        style1 = fit_style(other_samples)
        local = _rows(local_samples, style0)
        other = _rows(other_samples, style1)
        pooled_labels = local[1] + other[1]
        shared = train(
            np.concatenate((local[0], other[0])), pooled_labels, 1e-4, _human(pooled_labels)
        )
        holdout = generate_dataset(styles[0], profile, tasks[:12], seeds=range(700, 712))
        return shared, local, _rows(holdout, style0)

    def test_mix_one_returns_shared_weights_exactly(self, shared_and_local):
        shared, (features, labels), _ = shared_and_local
        tuned = fine_tune(shared, features, labels, mix=1.0, provenances=_human(labels))
        assert np.array_equal(tuned.weights, shared.weights)

    def test_mix_zero_equals_plain_training(self, shared_and_local):
        shared, (features, labels), _ = shared_and_local
        tuned = fine_tune(shared, features, labels, mix=0.0, provenances=_human(labels))
        assert tuned == train(features, labels, shared.ridge_lambda, _human(labels))

    def test_continuity_at_endpoints(self, shared_and_local):
        shared, (features, labels), _ = shared_and_local
        near_zero = fine_tune(shared, features, labels, 1e-9, _human(labels))
        at_zero = fine_tune(shared, features, labels, 0.0, _human(labels))
        assert np.allclose(near_zero.weights, at_zero.weights, atol=1e-6)
        near_one = fine_tune(shared, features, labels, 1.0 - 1e-9, _human(labels))
        assert np.allclose(near_one.weights, shared.weights, atol=1e-6)

    def test_mixture_grid_error_bounded_by_endpoints(self, shared_and_local):
        shared, (features, labels), (holdout_features, holdout_labels) = shared_and_local
        def err(model):
            preds = model.predict(holdout_features)
            return float(np.mean([abs(p - y) for p, y in zip(preds, holdout_labels)]))
        provenances = _human(labels)
        local = fine_tune(shared, features, labels, 0.0, provenances)
        bound = max(err(shared), err(local)) + 1e-12
        for mix in np.linspace(0.1, 0.9, 9):
            assert err(fine_tune(shared, features, labels, float(mix), provenances)) <= bound

    def test_invalid_mix_rejected(self, shared_and_local):
        shared, (features, labels), _ = shared_and_local
        for mix in (-0.1, 1.1):
            with pytest.raises(TrainingError):
                fine_tune(shared, features, labels, mix, _human(labels))

    def test_empty_local_data_rejected_for_interior_mix(self, shared_and_local):
        shared, _, _ = shared_and_local
        with pytest.raises(TrainingError):
            fine_tune(shared, np.empty((0, N_FEATURES)), [], 0.5, [])

    @pytest.mark.parametrize("mix", [0.0, 0.5])
    def test_misaligned_features_and_labels_rejected(self, shared_and_local, mix):
        shared, (features, labels), _ = shared_and_local
        with pytest.raises(TrainingError, match="feature rows for"):
            fine_tune(shared, features[:-1], labels, mix, _human(labels))
        with pytest.raises(TrainingError, match="feature rows for"):
            fine_tune(shared, features, labels[:-1], mix, _human(labels))


class TestCrowdsource:
    def test_singleton_ensemble_is_its_prediction(self, small_dataset):
        style = fit_style(small_dataset)
        features, labels = _rows(small_dataset, style)
        model = train(features, labels, 1e-3, _human(labels))
        preds = [model.predict(features_from_maps([s.semantic]))[0] for s in small_dataset[:4]]
        labels = crowdsource_labels(np.array([preds]), [style], [style])
        assert labels == pytest.approx(preds)

    def test_uniform_mean_of_constant_models(self, small_dataset):
        style = fit_style(small_dataset)
        feats = features_from_maps([small_dataset[0].semantic])
        models = [_constant_model(0.4), _constant_model(0.6)]
        preds = np.array([m.predict(feats) for m in models])
        [label] = crowdsource_labels(preds, [style, style], [style])
        assert label == pytest.approx(0.5)

    @given(values=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_labels_are_convex_combinations(self, styles, small_dataset, values):
        targets = [fit_style(small_dataset), styles[1]]
        feats = features_from_maps([small_dataset[0].semantic])
        preds = np.array([_constant_model(v).predict(feats) for v in values])
        member_styles = [styles[k % 2] for k in range(len(values))]
        [label] = crowdsource_labels(preds, member_styles, targets)
        assert min(values) - 1e-12 <= label <= max(values) + 1e-12

    @given(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 4), n=st.integers(0, 6))
    @settings(max_examples=40)
    def test_labels_match_the_per_column_dot(self, styles, seed, members, n):
        rng = np.random.default_rng(seed)
        preds = _clamped_predictions(rng, members, n)
        member_styles = [styles[k % 2] for k in range(members)]
        targets = [styles[k] for k in rng.integers(0, 2, 1 + seed % 3)]
        want = _labels_column_by_column(preds, member_styles, targets)
        assert _bits(crowdsource_labels(preds, member_styles, targets)) == _bits(want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.lists(st.integers(0, 3), min_size=1, max_size=4),
        targets=st.lists(st.integers(0, 3), min_size=1, max_size=6),
        n=st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_labels_are_the_mean_of_the_per_target_labels(
        self, styles, small_dataset, seed, members, targets, n
    ):
        """One label per candidate is the mean of the labels each target alone gives."""
        # Two built-in styles and two fitted from samples in their styles.
        styles = [*styles, fit_style(small_dataset), fit_style(small_dataset[::2])]
        preds = _clamped_predictions(np.random.default_rng(seed), len(members), n)
        member_styles = [styles[k] for k in members]
        per_target = [
            _labels_column_by_column(preds, member_styles, [styles[t]]) for t in targets
        ]
        want = np.mean(np.array(per_target).reshape(len(targets), n), axis=0)
        got = crowdsource_labels(preds, member_styles, [styles[t] for t in targets])
        assert len(got) == n
        assert np.abs(np.array(got) - want).max(initial=0.0) <= 1e-12

    def test_empty_ensemble_rejected(self, small_dataset):
        style = fit_style(small_dataset)
        for members, targets in (([], [style]), ([style], [])):
            with pytest.raises(TrainingError, match="at least one local model and target"):
                crowdsource_labels(np.zeros((len(members), 1)), members, targets)


class TestEvaluate:
    def test_constant_half_on_straight_scenes_is_exact(self, styles, profile):
        straights = generate_dataset(
            styles[0], profile, [TaskType.STRAIGHT] * 8, seeds=range(800, 808)
        )
        style = fit_style(straights) if False else None
        # straight labels are exactly 0.5 by construction, so use any style
        # fitted from richer data to keep segmentation fair
        rich = generate_dataset(
            styles[0],
            profile,
            [TaskType.TURN, TaskType.AVOID_CARS, TaskType.STRAIGHT] * 4,
            seeds=range(820, 832),
        )
        style = fit_style(rich + straights)
        report = evaluate(_constant_model(0.5), straights, featurize(straights, style), 0.05)
        assert report["per_task_error"] == {"straight": 0.0}
        assert report["overall_error"] == 0.0
        assert report["overall_failure_rate"] == 0.0

    def test_accounting_matches_hand_computation(self, small_dataset):
        style = fit_style(small_dataset)
        features, labels = _rows(small_dataset, style)
        model = train(features, labels, 1e-3, _human(labels))
        report = evaluate(model, small_dataset, features, fail_threshold=0.02)
        errs: dict[str, list[float]] = {}
        for s in small_dataset:
            errs.setdefault(s.task.value, []).append(
                abs(model.predict(featurize([s], style))[0] - s.label)
            )
        total = [e for v in errs.values() for e in v]
        # The report.json entry's fields, each per-task map sorted by task.
        assert list(report) == [
            "per_task_error", "per_task_failure_rate", "per_task_count",
            "overall_error", "overall_failure_rate", "fail_threshold",
        ]
        for field in ("per_task_error", "per_task_failure_rate", "per_task_count"):
            assert list(report[field]) == sorted(errs)
        assert report["fail_threshold"] == 0.02
        for task, values in errs.items():
            assert report["per_task_error"][task] == pytest.approx(np.mean(values))
            assert report["per_task_failure_rate"][task] == pytest.approx(
                np.mean([e > 0.02 for e in values])
            )
            assert report["per_task_count"][task] == len(values)
        assert report["overall_error"] == pytest.approx(np.mean(total))
        assert report["overall_failure_rate"] == pytest.approx(np.mean([e > 0.02 for e in total]))

    def test_failure_threshold_is_strict(self, small_dataset):
        style = fit_style(small_dataset)
        sample = small_dataset[0]
        offset_model = _constant_model(min(1.0, sample.label + 0.05))
        report = evaluate(offset_model, [sample], featurize([sample], style), fail_threshold=0.05)
        # error == threshold exactly is not a failure
        if abs(offset_model.predict(featurize([sample], style))[0] - sample.label) == 0.05:
            assert report["overall_failure_rate"] == 0.0

    def test_first_unlabeled_or_unfeaturizable_sample_raises(self, small_dataset):
        # The caller featurizes the testset; evaluate then rejects an
        # unlabeled sample anywhere in it.
        style = fit_style(small_dataset)
        _, roadless = _far_road_and_roadless()
        ok, unlabeled = small_dataset[0], replace(small_dataset[1], label=None)
        blind = _painted(small_dataset[2], style, roadless)
        model = _constant_model(0.5)
        with pytest.raises(DegenerateInputError):
            featurize([ok, blind, unlabeled], style)
        for testset in ([ok, unlabeled], [unlabeled, ok]):
            with pytest.raises(EvaluationError, match="unlabeled"):
                evaluate(model, testset, featurize(testset, style), 0.05)

    def test_features_must_align_with_the_testset(self, small_dataset):
        style = fit_style(small_dataset)
        testset = small_dataset[:3]
        with pytest.raises(EvaluationError, match="align"):
            evaluate(_constant_model(0.5), testset, featurize(testset[:2], style), 0.05)

    def test_empty_testset_rejected(self):
        with pytest.raises(EvaluationError):
            evaluate(_constant_model(0.5), [], np.empty((0, N_FEATURES)), 0.05)


class TestPolicyModel:
    def test_prediction_clamped_to_unit_interval(self):
        w = np.zeros(N_FEATURES + 1)
        w[0] = 5.0
        zeros = np.zeros((1, N_FEATURES))
        assert _constant_model(0.0).predict(zeros) == [0.0]
        assert PolicyModel(weights=w, ridge_lambda=0.0, n_train=1).predict(zeros) == [1.0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 8),
        bias=st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0]),
        scale=st.sampled_from([1e-3, 1e-2, 1.0]),
    )
    @settings(max_examples=60)
    def test_predict_matches_the_per_row_form(self, seed, n, bias, scale):
        rng = np.random.default_rng(seed)
        w = np.concatenate(([bias], rng.uniform(-scale, scale, N_FEATURES)))
        model = PolicyModel(weights=w, ridge_lambda=0.0, n_train=1)
        features = _random_features(rng, n)
        got = model.predict(features)
        assert all(type(value) is float for value in got)
        assert _bits(got) == _bits(_predict_row_by_row(model, features))

    def test_weight_validation(self):
        with pytest.raises(TrainingError):
            PolicyModel(weights=np.zeros(3), ridge_lambda=0.0, n_train=1)
        bad = np.zeros(N_FEATURES + 1)
        bad[2] = np.inf
        with pytest.raises(TrainingError):
            PolicyModel(weights=bad, ridge_lambda=0.0, n_train=1)

    @pytest.mark.parametrize("ridge_lambda", [float("nan"), float("inf"), -1e-6])
    def test_ridge_lambda_must_be_finite_and_nonnegative(self, ridge_lambda):
        model = _constant_model(0.5)
        with pytest.raises(TrainingError):
            replace(model, ridge_lambda=ridge_lambda)
        with pytest.raises(DecodeError):
            decode_models(encode_models([_tampered(model, ridge_lambda=ridge_lambda)]))
