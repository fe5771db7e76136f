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
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, EvaluationError, ParlError, TrainingError
from .styles import N_CLASSES, StyleModel, style_affinity
from .world import (
    ClassId,
    DrivingSample,
    Provenance,
    SemanticMap,
    _shape_chunks,
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

# Maps per features_from_grids call in features_from_maps: measured fastest
# per 32x64 map, and whole-list stacks raised a bench run's peak RSS by 0.5 MB.
_FEATURE_CHUNK = 8


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


def _obstacle_offset(grids: np.ndarray) -> np.ndarray:
    """Signed column offset of the nearest corridor-blocking car, in cells/4.

    A run of car cells counts as in-corridor when most of the cells directly
    below it are road or marking: a corridor car replaced road interior, so
    the row beneath it stays road, while roadside scatter sits on sidewalk
    or scenery. The same-row road span cannot be used here; a corridor car
    that reaches the road edge swallows the span on its side entirely.
    Returns OBSTACLE_SENTINEL when the corridor is clear.

    Only car cells are read: one nonzero finds those above each grid's last
    row in raster order, and a run breaks where the position skips or a row
    starts. One bincount counts each run's road cells below. The centroid
    of a grid's nearest blocking row is its integer column sum over its
    cell count.
    """
    n, h, w = grids.shape
    out = np.full(n, OBSTACLE_SENTINEL)
    flat = grids.reshape(-1)
    cars = flat == ClassId.CAR
    cars.reshape(n, h, w)[:, -1:] = False
    at = np.flatnonzero(cars)
    if not at.size:
        return out
    starts = np.empty(at.size, dtype=bool)
    starts[0] = True
    starts[1:] = (at[1:] != at[:-1] + 1) | (at[1:] % w == 0)
    run = np.cumsum(starts) - 1
    road_below = np.bincount(run[flat[at + w] <= ClassId.LANE_MARKING], minlength=run[-1] + 1)
    at = at[(road_below * 2 > np.bincount(run))[run]]
    if not at.size:
        return out
    rows = at // w  # rows of the whole stack: grid g holds rows g*h .. g*h + h - 1
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    grid_of = rows[row_starts] // h
    nearest = np.flatnonzero(np.diff(grid_of, append=n))  # each grid's last blocking row
    count = np.diff(row_starts, append=at.size)[nearest]
    col_sum = np.add.reduceat(at % w, row_starts)[nearest]
    out[grid_of[nearest]] = (col_sum / count - (w - 1) / 2.0) / _OBSTACLE_SCALE
    return out


def features_from_grids(grids: np.ndarray) -> np.ndarray:
    """Featurize an (N, h, w) stack of class grids into an (N, 130) array.

    Row n holds grid n's features and depends on that grid alone: 128
    occupancy fractions in [0, 1], then the finite lane and obstacle
    offsets. Raises DegenerateInputError if any grid has no road in its
    near band.
    """
    grids = np.asarray(grids)
    if grids.ndim != 3 or grids.dtype != np.uint8 or grids.max(initial=0) >= N_CLASSES:
        raise DegenerateInputError("class grids must be an (N, h, w) uint8 stack of class ids")
    out = np.empty((grids.shape[0], N_FEATURES), dtype=np.float64)
    out[:, :N_OCCUPANCY] = _pool_occupancy(grids)
    out[:, N_OCCUPANCY] = _lane_offset(grids)
    out[:, N_OCCUPANCY + 1] = _obstacle_offset(grids)
    return out


def features_from_maps(semantics: Sequence[SemanticMap]) -> np.ndarray:
    """Featurize known class grids directly (no segmentation step), in input order.

    Returns a read-only (len(semantics), N_FEATURES) array, row i for map i.
    Maps are grouped by shape and featurized _FEATURE_CHUNK at a time, one
    features_from_grids call per chunk. If any map has no road in its near
    band, the call raises; every map fails that check with the same error.
    """
    features = np.empty((len(semantics), N_FEATURES), dtype=np.float64)
    for chunk in _shape_chunks((m.classes.shape for m in semantics), _FEATURE_CHUNK):
        features[chunk] = features_from_grids(np.stack([semantics[i].classes for i in chunk]))
    features.setflags(write=False)
    return features


def featurize(samples: Sequence[DrivingSample], style: StyleModel) -> np.ndarray:
    """Segment every sample's scenario under the given style, then featurize.

    Returns features_from_maps of the segmented maps: row i for sample i.
    Features read the class grid alone, so no instance map is built. The
    whole list is segmented, then featurized, as batches. A failing sample
    fails the call with its own error, the first failing sample in input
    order raising: a batch that raised is run again one sample at a time,
    since a later sample's segmentation error would otherwise come before
    an earlier sample's featurization error.
    """
    try:
        return features_from_maps(segment([s.scenario for s in samples], style))
    except ParlError:
        if len(samples) == 1:
            raise
    for sample in samples:
        featurize([sample], style)
    raise AssertionError("featurize failed on a batch but on none of its samples")


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
        # Written so that NaN fails it.
        if not 0.0 <= self.ridge_lambda < np.inf:
            raise TrainingError(f"ridge_lambda {self.ridge_lambda} outside [0, inf)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "provenance_mix", tuple(self.provenance_mix))

    def predict(self, features: np.ndarray) -> list[float]:
        """One torque per row of an (n, N_FEATURES) array: min(1, max(0, w0 + w . f)).

        np.vecdot takes each row's dot product with numpy's 1-D dot routine,
        the one `w @ f` runs, so every row sums its terms as a lone product
        would. Each bound replaces the raw value unless the value lies
        strictly inside it, as Python's min and max do.
        """
        raw = self.weights[0] + np.vecdot(self.weights[1:], features)
        low = np.where(raw > 0.0, raw, 0.0)
        return np.where(low < 1.0, low, 1.0).tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicyModel):
            return NotImplemented
        return (
            np.array_equal(self.weights, other.weights)
            and self.ridge_lambda == other.ridge_lambda
            and self.n_train == other.n_train
            and self.provenance_mix == other.provenance_mix
        )


def _design_matrix(features: np.ndarray, labels: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The features with a bias column of ones prepended, and the labels as floats."""
    if len(features) != len(labels):
        raise TrainingError(f"{len(features)} feature rows for {len(labels)} labels")
    return np.insert(features, 0, 1.0, axis=1), np.array(labels, dtype=np.float64)


def _canonical_rows(
    xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique rows in byte order plus multiplicities.

    Sorting makes the accumulation independent of input order; collapsing
    duplicates into integer counts makes it independent of duplication too,
    because count/n and (c*count)/(c*n) are the same rational and IEEE
    division rounds equal rationals to identical floats. Each [x | y] row is
    one opaque key, so np.unique orders them by their bytes and keeps each
    key's first row.
    """
    rows = np.ascontiguousarray(np.column_stack((xs, ys)))
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, kept, counts = np.unique(keys, return_index=True, return_counts=True)
    return xs[kept], ys[kept], counts.astype(np.float64)


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


def _provenance_mix(provenances: Sequence[Provenance]) -> tuple[tuple[str, int], ...]:
    counts: dict[str, int] = {}
    for p in provenances:
        counts[p.value] = counts.get(p.value, 0) + 1
    return tuple(sorted(counts.items()))


def train(
    features: np.ndarray,
    labels: Sequence[float],
    ridge_lambda: float,
    provenances: Sequence[Provenance],
) -> PolicyModel:
    """Closed-form ridge fit of torque from features.

    features is an (n, N_FEATURES) array and labels holds row i's torque at
    i; different lengths raise. Exactly permutation-invariant: (row, label)
    pairs are accumulated in a canonical sorted order, so reordering (or
    duplicating) them cannot change the solution even at the bit level.
    """
    if not len(labels):
        raise TrainingError("cannot train on an empty dataset")
    if not 0.0 <= ridge_lambda < np.inf:
        raise TrainingError("ridge_lambda must be finite and nonnegative")
    xs, ys = _design_matrix(features, labels)
    xs, ys, counts = _canonical_rows(xs, ys)
    weights = _solve_ridge(xs, ys, counts, ridge_lambda)
    return PolicyModel(
        weights=weights,
        ridge_lambda=float(ridge_lambda),
        n_train=len(labels),
        provenance_mix=_provenance_mix(provenances),
    )


def fine_tune(
    shared: PolicyModel,
    features: np.ndarray,
    labels: Sequence[float],
    mix: float,
    provenances: Sequence[Provenance],
) -> PolicyModel:
    """Re-solve locally with a proximity pull of weight mix toward shared.

    mix=0 is plain local training; mix=1 returns the shared weights
    unchanged. Both endpoints are exact shortcut branches, and intermediate
    values interpolate the normal equations continuously. features and
    labels are aligned as train takes them.
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
        return train(features, labels, shared.ridge_lambda, provenances)
    if not len(labels):
        raise TrainingError("cannot fine-tune on an empty dataset")
    xs, ys = _design_matrix(features, labels)
    xs, ys, counts = _canonical_rows(xs, ys)
    weights = _solve_ridge(
        xs, ys, counts, shared.ridge_lambda, proximal=(mix, shared.weights)
    )
    return PolicyModel(
        weights=weights,
        ridge_lambda=shared.ridge_lambda,
        n_train=len(labels),
        provenance_mix=_provenance_mix(provenances),
    )


def crowdsource_labels(
    predictions: np.ndarray,
    member_styles: Sequence[StyleModel],
    target_styles: Sequence[StyleModel],
) -> list[float]:
    """Pool an ensemble's predictions into one label per candidate.

    predictions is members x candidates: row m holds member m's predictions
    on the candidates. Each target style weighs the members by their styles'
    affinity to it, normalized to sum to 1, and a member's weight is the
    mean of its weights over the targets. The weights are computed once for
    all candidates, so every label is a convex combination of its column.
    np.vecdot takes each column's dot product with the weights by numpy's
    1-D dot routine, so a label sums its terms as a lone np.dot over two or
    more members does.
    """
    if not member_styles or not target_styles:
        raise TrainingError("crowdsourcing requires at least one local model and target style")
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim != 2 or preds.shape[0] != len(member_styles):
        raise TrainingError("predictions must have one row per member style")
    weights = np.array([[style_affinity(t, s) for s in member_styles] for t in target_styles])
    weights = (weights / weights.sum(axis=1, keepdims=True)).mean(axis=0)
    return np.vecdot(weights, np.ascontiguousarray(preds.T)).tolist()


def evaluate(
    model: PolicyModel,
    testset: Sequence[DrivingSample],
    features: np.ndarray,
    fail_threshold: float,
) -> dict:
    """The model's report.json entry on testset, with failure = error > fail_threshold.

    The entry holds the mean absolute torque error, the failure rate and the
    sample count per task, each map sorted by task, then the error and
    failure rate over all samples and fail_threshold. features is the
    testset's (n, N_FEATURES) array, row i for sample i, as
    featurize(testset, style) gives it, so a caller that evaluates several
    models on one testset featurizes it once. An unlabeled sample raises.
    """
    if not testset:
        raise EvaluationError("cannot evaluate on an empty testset")
    if len(features) != len(testset):
        raise EvaluationError("features must align with the testset")
    if any(s.label is None for s in testset):
        raise EvaluationError("testset contains an unlabeled sample")
    per_task_abs: dict[str, list[float]] = {}
    for sample, pred in zip(testset, model.predict(features)):
        per_task_abs.setdefault(sample.task.value, []).append(abs(pred - sample.label))
    tasks = sorted(per_task_abs)
    fails = {t: sum(1 for e in per_task_abs[t] if e > fail_threshold) for t in tasks}
    # The overall error sums the tasks in the order the testset first names them.
    total_err = sum(sum(errs) for errs in per_task_abs.values())
    return {
        "per_task_error": {t: float(np.mean(per_task_abs[t])) for t in tasks},
        "per_task_failure_rate": {t: fails[t] / len(per_task_abs[t]) for t in tasks},
        "per_task_count": {t: len(per_task_abs[t]) for t in tasks},
        "overall_error": total_err / len(testset),
        "overall_failure_rate": sum(fails.values()) / len(testset),
        "fail_threshold": fail_threshold,
    }
