"""Imitation-learning policies over segmented scenarios.

The learner is closed-form ridge regression on a fixed featurization:
per-class occupancy fractions over a 4x4 spatial pooling of the segmented
class grid, plus two geometry features (lane-center offset and nearest
obstacle offset). Closed form keeps training deterministic and exactly
permutation-invariant, which the protocol layer relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import ndimage

from .errors import DegenerateInputError, EvaluationError, TrainingError
from .styles import N_CLASSES, StyleModel, style_affinity
from .world import (
    ClassId,
    DrivingSample,
    Provenance,
    SemanticMap,
    segment,
)

POOL_ROWS = 4
POOL_COLS = 4
N_OCCUPANCY = N_CLASSES * POOL_ROWS * POOL_COLS  # 128
N_GEOMETRY = 2
N_FEATURES = N_OCCUPANCY + N_GEOMETRY  # 130; weights add a bias term
OBSTACLE_SENTINEL = 0.0
_OBSTACLE_SCALE = 4.0  # cells per unit of the obstacle feature
_LANE_BAND_ROWS = 8  # bottom rows used for the lane-offset estimate

DEFAULT_FAIL_THRESHOLD = 0.05


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Fixed-length input to the policy: 128 occupancy + 2 geometry values."""

    values: np.ndarray  # (N_FEATURES,) float64

    def __post_init__(self) -> None:
        vec = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vec.shape != (N_FEATURES,):
            raise DegenerateInputError(f"feature vector must have {N_FEATURES} entries")
        if not np.isfinite(vec).all():
            raise DegenerateInputError("feature vector holds non-finite values")
        occ = vec[:N_OCCUPANCY]
        if occ.min() < 0.0 or occ.max() > 1.0:
            raise DegenerateInputError("occupancy fractions outside [0, 1]")
        vec.setflags(write=False)
        object.__setattr__(self, "values", vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)


@functools.lru_cache(maxsize=None)
def _pool_blocks(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Pool-cell index of every grid cell (row-major), and each pool cell's size."""
    row_sizes = np.diff(np.linspace(0, h, POOL_ROWS + 1).astype(int))
    col_sizes = np.diff(np.linspace(0, w, POOL_COLS + 1).astype(int))
    rows = np.repeat(np.arange(POOL_ROWS), row_sizes)
    cols = np.repeat(np.arange(POOL_COLS), col_sizes)
    block = rows[:, None] * POOL_COLS + cols[None, :]
    sizes = np.outer(row_sizes, col_sizes).ravel()
    block.setflags(write=False)
    sizes.setflags(write=False)
    return block, sizes


def _pool_occupancy(grids: np.ndarray) -> np.ndarray:
    """Per-class cell fractions in each pool cell; fractions sum to 1.

    One bincount over (grid, class, pool cell) keys for the whole stack;
    row n holds grid n's fractions in (class, pool row, pool col) order.
    """
    n, h, w = grids.shape
    block, sizes = _pool_blocks(h, w)
    n_blocks = POOL_ROWS * POOL_COLS
    keys = (np.arange(n)[:, None, None] * N_CLASSES + grids) * n_blocks + block
    counts = np.bincount(keys.ravel(), minlength=n * N_OCCUPANCY)
    return (counts.reshape(n, N_CLASSES, n_blocks) / sizes).reshape(n, N_OCCUPANCY)


def _lane_offset(grids: np.ndarray) -> np.ndarray:
    """Signed road-center offset in the near band, in half-widths of the grid."""
    w = grids.shape[2]
    road = grids[:, -_LANE_BAND_ROWS:] <= ClassId.LANE_MARKING  # road or marking
    n_road = road.sum(axis=(1, 2))
    if not n_road.all():
        raise DegenerateInputError("no road cells in the near band")
    center = (road * np.arange(w)).sum(axis=(1, 2)) / n_road
    return (center - (w - 1) / 2.0) / (w / 2.0)


# Horizontal runs: cells connect to their left and right neighbours only.
_ROW_RUNS = np.zeros((3, 3, 3), dtype=bool)
_ROW_RUNS[1, 1, :] = True


def _obstacle_offset(grids: np.ndarray) -> np.ndarray:
    """Signed column offset of the nearest corridor-blocking car, in cells/4.

    A run of car cells counts as in-corridor when most of the cells directly
    below it are road or marking: a corridor car replaced road interior, so
    the row beneath it stays road, while roadside scatter sits on sidewalk
    or scenery. The same-row road span cannot be used here; a corridor car
    that reaches the road edge swallows the span on its side entirely.
    Returns OBSTACLE_SENTINEL when the corridor is clear.

    Every row but the last is split into runs by one labelling pass; one
    bincount gives each run's length and one its road cells below.
    """
    n, h, w = grids.shape
    runs, n_runs = ndimage.label(grids[:, :-1] == ClassId.CAR, structure=_ROW_RUNS)
    size = np.bincount(runs.ravel(), minlength=n_runs + 1)
    below_road = np.bincount(
        runs[grids[:, 1:] <= ClassId.LANE_MARKING], minlength=n_runs + 1
    )
    blocking = below_road * 2 > size
    blocking[0] = False
    in_road = blocking[runs]  # (n, h - 1, w)
    rows_hit = in_road.any(axis=2)
    nearest_row = (h - 2) - rows_hit[:, ::-1].argmax(axis=1)
    row = in_road[np.arange(n), nearest_row]
    count = row.sum(axis=1)
    centroid = (row * np.arange(w)).sum(axis=1) / np.maximum(count, 1)
    offset = (centroid - (w - 1) / 2.0) / _OBSTACLE_SCALE
    return np.where(rows_hit.any(axis=1), offset, OBSTACLE_SENTINEL)


def features_from_grids(grids: np.ndarray) -> np.ndarray:
    """Featurize an (N, h, w) stack of class grids into an (N, 130) array.

    The batched form of features_from_maps: row n equals
    features_from_maps(SemanticMap(grids[n])).values bit for bit. Raises
    DegenerateInputError if any grid has no road in its near band.
    """
    grids = np.asarray(grids)
    if grids.ndim != 3 or grids.dtype != np.uint8 or grids.max(initial=0) >= N_CLASSES:
        raise DegenerateInputError("class grids must be an (N, h, w) uint8 stack of class ids")
    out = np.empty((grids.shape[0], N_FEATURES), dtype=np.float64)
    out[:, :N_OCCUPANCY] = _pool_occupancy(grids)
    out[:, N_OCCUPANCY] = _lane_offset(grids)
    out[:, N_OCCUPANCY + 1] = _obstacle_offset(grids)
    return out


def features_from_maps(semantic: SemanticMap) -> FeatureVector:
    """Featurize a known class grid directly (no segmentation step)."""
    return FeatureVector(values=features_from_grids(semantic.classes[None])[0])


def batch_features_from_maps(semantics: Sequence[SemanticMap]) -> list[FeatureVector]:
    """features_from_maps of every map, with one features_from_grids call per grid shape."""
    rows: list[Optional[FeatureVector]] = [None] * len(semantics)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, semantic in enumerate(semantics):
        by_shape.setdefault(semantic.classes.shape, []).append(i)
    for indices in by_shape.values():
        grids = np.stack([semantics[i].classes for i in indices])
        for i, values in zip(indices, features_from_grids(grids)):
            rows[i] = FeatureVector(values=values)
    return rows


def featurize(sample: DrivingSample, style: StyleModel) -> FeatureVector:
    """Segment the sample's scenario under the given style, then featurize.

    Callers featurize each (sample, style) pair once and pass the features
    down: the harness shares each robot's split features across its local,
    jitter and crop arms, a RobotNode reuses its upload's features when it
    fine-tunes, and `parl eval` featurizes each holdout once per style.
    """
    semantic, _ = segment(sample.scenario, style)
    return features_from_maps(semantic)


@dataclass(frozen=True, eq=False)
class PolicyModel:
    """Linear torque policy: weights = [bias, occupancy..., geometry...]."""

    weights: np.ndarray  # (N_FEATURES + 1,) float64
    ridge_lambda: float
    n_train: int
    provenance_mix: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.shape != (N_FEATURES + 1,):
            raise TrainingError(f"weights must have {N_FEATURES + 1} entries")
        if not np.isfinite(w).all():
            raise TrainingError("non-finite weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "provenance_mix", tuple(self.provenance_mix))

    def predict(self, features: FeatureVector) -> float:
        raw = self.weights[0] + float(self.weights[1:] @ features.values)
        return float(min(1.0, max(0.0, raw)))

    def predict_many(self, features: Sequence[FeatureVector]) -> np.ndarray:
        mat = np.stack([f.values for f in features]) if features else np.zeros((0, N_FEATURES))
        raw = self.weights[0] + mat @ self.weights[1:]
        return np.clip(raw, 0.0, 1.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyModel):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.ridge_lambda == other.ridge_lambda
            and self.n_train == other.n_train
            and self.provenance_mix == other.provenance_mix
        )


def _design_matrix(dataset: Sequence[tuple[FeatureVector, float]]) -> tuple[np.ndarray, np.ndarray]:
    xs = np.stack([np.concatenate(([1.0], f.values)) for f, _ in dataset])
    ys = np.array([float(y) for _, y in dataset], dtype=np.float64)
    return xs, ys


def _canonical_rows(
    xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique rows in byte order plus multiplicities.

    Sorting makes the accumulation independent of input order; collapsing
    duplicates into integer counts makes it independent of duplication too,
    because count/n and (c*count)/(c*n) are the same rational and IEEE
    division rounds equal rationals to identical floats.
    """
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


def _solve_ridge(
    xs: np.ndarray,
    ys: np.ndarray,
    counts: np.ndarray,
    ridge_lambda: float,
    proximal: Optional[tuple[float, np.ndarray]] = None,
) -> np.ndarray:
    """Normal equations, normalized by n; the bias column is not penalized.

    Rows are unique with multiplicities in counts, weighted count/n, so the
    gram is the sample mean regardless of duplication. With
    proximal=(beta, w0), solves the convex blend
    (1-beta) * ridge objective + beta * s * ||w - w0||^2, where s is the
    mean feature energy (trace of the gram over dimensions). The scale makes
    beta unitless: 0.5 weighs the local data and the prior evenly per unit
    of feature energy, instead of letting feature scaling decide.
    """
    d = xs.shape[1]
    row_weights = counts / counts.sum()
    gram = (xs * row_weights[:, None]).T @ xs
    rhs = (row_weights * ys) @ xs
    penalty = np.eye(d)
    penalty[0, 0] = 0.0
    lhs = gram + ridge_lambda * penalty
    if proximal is not None:
        beta, w0 = proximal
        scale = float(np.trace(gram)) / d
        if scale <= 0.0:
            scale = 1.0
        lhs = (1.0 - beta) * lhs + beta * scale * np.eye(d)
        rhs = (1.0 - beta) * rhs + beta * scale * w0
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        # Rank-deficient unregularized systems fall back to the pseudoinverse.
        return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def _provenance_mix(
    provenances: Optional[Sequence[Provenance]],
) -> tuple[tuple[str, int], ...]:
    if not provenances:
        return ()
    counts: dict[str, int] = {}
    for p in provenances:
        counts[p.value] = counts.get(p.value, 0) + 1
    return tuple(sorted(counts.items()))


def train(
    dataset: Sequence[tuple[FeatureVector, float]],
    ridge_lambda: float = 3e-3,
    provenances: Optional[Sequence[Provenance]] = None,
) -> PolicyModel:
    """Closed-form ridge fit of torque from features.

    Exactly permutation-invariant: rows are accumulated in a canonical sorted
    order, so reordering (or duplicating) the dataset cannot change the
    solution even at the bit level.
    """
    if not dataset:
        raise TrainingError("cannot train on an empty dataset")
    if ridge_lambda < 0.0:
        raise TrainingError("ridge_lambda must be nonnegative")
    xs, ys = _design_matrix(dataset)
    xs, ys, counts = _canonical_rows(xs, ys)
    weights = _solve_ridge(xs, ys, counts, ridge_lambda)
    return PolicyModel(
        weights=weights,
        ridge_lambda=float(ridge_lambda),
        n_train=len(dataset),
        provenance_mix=_provenance_mix(provenances),
    )


def fine_tune(
    shared: PolicyModel,
    local_dataset: Sequence[tuple[FeatureVector, float]],
    mix: float,
    provenances: Optional[Sequence[Provenance]] = None,
) -> PolicyModel:
    """Re-solve locally with a proximity pull of weight mix toward shared.

    mix=0 is plain local training; mix=1 returns the shared weights
    unchanged. Both endpoints are exact shortcut branches, and intermediate
    values interpolate the normal equations continuously.
    """
    if not 0.0 <= mix <= 1.0:
        raise TrainingError(f"mix must lie in [0, 1], got {mix}")
    if mix == 1.0:
        return PolicyModel(
            weights=shared.weights.copy(),
            ridge_lambda=shared.ridge_lambda,
            n_train=shared.n_train,
            provenance_mix=shared.provenance_mix,
        )
    if mix == 0.0:
        return train(local_dataset, shared.ridge_lambda, provenances)
    if not local_dataset:
        raise TrainingError("cannot fine-tune on an empty dataset")
    xs, ys = _design_matrix(local_dataset)
    xs, ys, counts = _canonical_rows(xs, ys)
    weights = _solve_ridge(
        xs, ys, counts, shared.ridge_lambda, proximal=(mix, shared.weights)
    )
    return PolicyModel(
        weights=weights,
        ridge_lambda=shared.ridge_lambda,
        n_train=len(local_dataset),
        provenance_mix=_provenance_mix(provenances),
    )


def crowdsource_labels(
    predictions: np.ndarray,
    member_styles: Sequence[StyleModel],
    target_style: StyleModel,
) -> list[float]:
    """Pool an ensemble's predictions into one label per candidate.

    predictions is members x candidates: row m holds member m's predictions
    on the candidates rendered in the target style. A member's weight is its
    style's affinity to the target style, computed once for all candidates,
    so every label is a convex combination of its column.
    """
    if not member_styles:
        raise TrainingError("crowdsourcing requires at least one local model")
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] != len(member_styles):
        raise TrainingError("predictions must have one row per member style")
    weights = np.array([style_affinity(target_style, s) for s in member_styles])
    weights = weights / weights.sum()
    return [float(np.dot(weights, column)) for column in np.ascontiguousarray(preds.T)]


@dataclass(frozen=True)
class EvaluationReport:
    """Per-task and overall torque errors plus failure rates at a threshold."""

    per_task_error: Mapping[str, float]
    per_task_failure_rate: Mapping[str, float]
    per_task_count: Mapping[str, int]
    overall_error: float
    overall_failure_rate: float
    fail_threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_task_error", dict(self.per_task_error))
        object.__setattr__(self, "per_task_failure_rate", dict(self.per_task_failure_rate))
        object.__setattr__(self, "per_task_count", dict(self.per_task_count))
        for rate in self.per_task_failure_rate.values():
            if not 0.0 <= rate <= 1.0:
                raise EvaluationError("failure rate outside [0, 1]")

    def to_json_dict(self) -> dict:
        return {
            "per_task_error": dict(sorted(self.per_task_error.items())),
            "per_task_failure_rate": dict(sorted(self.per_task_failure_rate.items())),
            "per_task_count": dict(sorted(self.per_task_count.items())),
            "overall_error": self.overall_error,
            "overall_failure_rate": self.overall_failure_rate,
            "fail_threshold": self.fail_threshold,
        }


def evaluate(
    model: PolicyModel,
    testset: Sequence[DrivingSample],
    style: StyleModel,
    fail_threshold: float = DEFAULT_FAIL_THRESHOLD,
    features: Optional[Sequence[FeatureVector]] = None,
) -> EvaluationReport:
    """Mean absolute torque error per task, with failure = error > threshold.

    features, when given, holds featurize(sample, style) for each testset
    sample in order, so a caller that evaluates several models on one
    testset featurizes it once.
    """
    if not testset:
        raise EvaluationError("cannot evaluate on an empty testset")
    if features is not None and len(features) != len(testset):
        raise EvaluationError("features must align with the testset")
    per_task_abs: dict[str, list[float]] = {}
    for i, sample in enumerate(testset):
        if sample.label is None:
            raise EvaluationError("testset contains an unlabeled sample")
        feats = featurize(sample, style) if features is None else features[i]
        pred = model.predict(feats)
        per_task_abs.setdefault(sample.task.value, []).append(abs(pred - sample.label))
    per_task_error = {}
    per_task_rate = {}
    per_task_count = {}
    total_err = 0.0
    total_fail = 0
    total_n = 0
    for task, errs in per_task_abs.items():
        per_task_error[task] = float(np.mean(errs))
        fails = sum(1 for e in errs if e > fail_threshold)
        per_task_rate[task] = fails / len(errs)
        per_task_count[task] = len(errs)
        total_err += sum(errs)
        total_fail += fails
        total_n += len(errs)
    return EvaluationReport(
        per_task_error=per_task_error,
        per_task_failure_rate=per_task_rate,
        per_task_count=per_task_count,
        overall_error=total_err / total_n,
        overall_failure_rate=total_fail / total_n,
        fail_threshold=fail_threshold,
    )
