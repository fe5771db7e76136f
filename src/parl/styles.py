"""Per-agent appearance models.

Each agent owns a StyleModel mapping semantic classes to pixel statistics.
Rendering any semantic map under an agent's style produces a scenario in that
agent's visual domain, so one layout can be re-rendered across agents.
StyleModels are immutable and safe to share across threads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import FittingError

if TYPE_CHECKING:
    from .augment import AugmentationCandidate
    from .world import DrivingSample, Scenario

N_CLASSES = 8

# Per-channel Chebyshev separation floor between class means. Classification
# is exact as long as noise amplitude stays below half this floor.
DEFAULT_SEPARATION_FLOOR = 0.05

# Base palette. Infrastructure classes (road, marking, sky, sidewalk) use
# colors far from everything else; thing/scenery classes share a luma band
# around 0.43 but carry strong, distinct chroma.
_BASE_PALETTE = np.array(
    [
        [0.30, 0.30, 0.32],  # road
        [0.95, 0.95, 0.85],  # lane marking
        [0.90, 0.20, 0.20],  # car
        [0.85, 0.40, 0.08],  # pedestrian
        [0.62, 0.42, 0.26],  # building
        [0.12, 0.78, 0.40],  # vegetation
        [0.45, 0.70, 0.98],  # sky
        [0.65, 0.65, 0.68],  # sidewalk
    ],
    dtype=np.float64,
)
# Classes whose appearance genuinely differs between agents' domains. Their
# chroma is remapped per agent; infrastructure only gets small jitter.
_VOLATILE_CLASSES = (2, 3, 4, 5)
_STABLE_JITTER = 0.02
_DEFAULT_SPREAD = 0.02
# Validation margin for a candidate palette: keep fitted means (which wander
# by at most the texture spread) comfortably above the separation floor.
_PALETTE_MARGIN = 0.10
# Mean class-mean distance at which style_affinity falls to 1/e.
_AFFINITY_BANDWIDTH = 0.25


def _pairwise_min_separation(means: np.ndarray) -> float:
    """Smallest pairwise Chebyshev distance between class means.

    inf for fewer than two classes. fmin from inf skips a NaN distance, as
    a running Python min over the pairs does.
    """
    i, j = np.triu_indices(means.shape[0], k=1)
    distances = np.abs(means[i] - means[j]).max(axis=1)
    return float(np.fmin.reduce(distances, initial=np.inf))


@dataclass(frozen=True, eq=False)
class StyleModel:
    """Class-to-appearance statistics for one agent's visual domain.

    class_means holds one 3-channel mean per class; rows of NaN mark classes
    the style cannot render. class_spreads bounds the per-channel amplitude
    of texture noise. Immutable after construction.
    """

    style: int
    class_means: np.ndarray  # (N_CLASSES, 3) float64, NaN row = class absent
    class_spreads: np.ndarray  # (N_CLASSES,) float64
    texture_seed: int
    separation_floor: float = DEFAULT_SEPARATION_FLOOR

    def __post_init__(self) -> None:
        means = np.asarray(self.class_means, dtype=np.float64)
        spreads = np.asarray(self.class_spreads, dtype=np.float64)
        if means.shape != (N_CLASSES, 3):
            raise FittingError(f"class_means must be ({N_CLASSES}, 3), got {means.shape}")
        if spreads.shape != (N_CLASSES,):
            raise FittingError(f"class_spreads must be ({N_CLASSES},), got {spreads.shape}")
        # Every range check is written so that NaN fails it.
        if not 0.0 < self.separation_floor < np.inf:
            raise FittingError(f"separation_floor {self.separation_floor} outside (0, inf)")
        if not ((spreads >= 0.0) & (spreads < np.inf)).all():
            raise FittingError("class_spreads must be finite and nonnegative")
        present = ~np.isnan(means).any(axis=1)
        if present.any():
            sep = _pairwise_min_separation(means[present])
            if sep < self.separation_floor - 1e-12:
                raise FittingError(
                    f"class means separated by {sep:.4f}, "
                    f"below the {self.separation_floor} floor"
                )
        if not (spreads[present] < self.separation_floor / 2).all():
            raise FittingError("class_spreads must stay below separation_floor / 2")
        means.setflags(write=False)
        spreads.setflags(write=False)
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "class_spreads", spreads)

    def has_class(self, class_id: int) -> bool:
        return not bool(np.isnan(self.class_means[class_id]).any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StyleModel):
            return NotImplemented
        return (
            self.style == other.style
            and self.texture_seed == other.texture_seed
            and self.separation_floor == other.separation_floor
            and np.array_equal(self.class_means, other.class_means, equal_nan=True)
            and np.array_equal(self.class_spreads, other.class_spreads)
        )


def _signed_permutations() -> list[np.ndarray]:
    """All 48 signed 3x3 permutation matrices, in a fixed order."""
    mats = []
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for bits in range(8):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = -1.0 if bits & (1 << row) else 1.0
            mats.append(m)
    return mats


_CHROMA_MAPS = _signed_permutations()


def built_in_style(style_id: int, seed: int) -> StyleModel:
    """Deterministic agent palette with a per-agent visual domain.

    Infrastructure classes get a small seeded jitter; volatile classes keep
    their luma but have their chroma remapped by a seeded signed channel
    permutation, so agents' domains disagree most about exactly the classes
    that matter for driving. Within one agent the remap is an isometry, so
    class separation (and with it exact segmentation) is preserved.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, style_id, 0x57FE]))
    jitter = rng.uniform(-_STABLE_JITTER, _STABLE_JITTER, size=(N_CLASSES, 3))
    means = np.clip(_BASE_PALETTE + jitter, 0.0, 1.0)
    floor = DEFAULT_SEPARATION_FLOOR + _PALETTE_MARGIN
    for idx in rng.permutation(len(_CHROMA_MAPS)):
        candidate = means.copy()
        for c in _VOLATILE_CLASSES:
            luma = float(means[c].mean())
            chroma = means[c] - luma
            candidate[c] = np.clip(luma + _CHROMA_MAPS[idx] @ chroma, 0.0, 1.0)
        if _pairwise_min_separation(candidate) >= floor:
            means = candidate
            break
    spreads = np.full(N_CLASSES, _DEFAULT_SPREAD)
    texture_seed = int(rng.integers(0, 2**63))
    return StyleModel(
        style=style_id,
        class_means=means,
        class_spreads=spreads,
        texture_seed=texture_seed,
    )


def class_sums(samples: Sequence["DrivingSample"]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class pixel sums, sums of squares and cell counts over the samples.

    Each sample's totals are its DrivingSample.class_stats, computed once
    per sample and shared by every fit that reads it. They are added to
    zeroed running totals in sample order, so the additions, and with them
    the bytes, are those of summing each sample's bincounts as it is read;
    that in turn is bit for bit a per-class boolean-mask loop's
    pixels[mask].sum(axis=0), accumulated the same way.
    """
    sums = np.zeros((N_CLASSES, 3))
    sq_sums = np.zeros((N_CLASSES, 3))
    counts = np.zeros(N_CLASSES, dtype=np.int64)
    for sample in samples:
        sample_sums, sample_sq_sums, sample_counts = sample.class_stats
        sums += sample_sums
        sq_sums += sample_sq_sums
        counts += sample_counts
    return sums, sq_sums, counts


def fit_style(samples: Sequence["DrivingSample"]) -> StyleModel:
    """Fit class appearance statistics from an agent's labeled samples.

    Means are the per-class averages of scenario pixels under that class's
    cells; spreads are per-class standard deviations clamped below the
    separation bound. Every palette class must appear somewhere in the
    sample union, and the fitted means must respect
    DEFAULT_SEPARATION_FLOOR. The totals come from class_sums, which adds
    each sample's cached class_stats in sample order: a sample already read
    by another fit (pooled_style over the same training split) is not
    read again, and the style's bytes do not depend on which fit ran first.
    """
    if not samples:
        raise FittingError("fit_style needs at least one sample")
    sums, sq_sums, counts = class_sums(samples)
    style_ids = {sample.scenario.style for sample in samples}
    missing = [c for c in range(N_CLASSES) if counts[c] == 0]
    if missing:
        raise FittingError(f"no pixel coverage for classes {missing}")
    means = sums / counts[:, None]
    variances = np.maximum(sq_sums / counts[:, None] - means**2, 0.0)
    spreads = np.sqrt(variances.max(axis=1))
    spread_cap = DEFAULT_SEPARATION_FLOOR / 2 * (1 - 1e-9)
    spreads = np.minimum(spreads, spread_cap)
    sep = _pairwise_min_separation(means)
    if sep < DEFAULT_SEPARATION_FLOOR:
        raise FittingError(
            f"fitted class means separated by only {sep:.4f}; "
            f"styles need {DEFAULT_SEPARATION_FLOOR} per-channel separation"
        )
    if len(style_ids) != 1:
        raise FittingError(f"samples span styles {sorted(style_ids)}, expected one")
    texture_seed = zlib.crc32(means.tobytes()) ^ (next(iter(style_ids)) << 32)
    return StyleModel(
        style=next(iter(style_ids)),
        class_means=means,
        class_spreads=spreads,
        texture_seed=texture_seed,
    )


def cross_render(
    candidate: "AugmentationCandidate", style: StyleModel, seed: int
) -> "Scenario":
    """Render an augmented layout under another agent's style."""
    from .world import render

    return render(candidate.semantic, style, seed)


def style_affinity(a: StyleModel, b: StyleModel) -> float:
    """Similarity in (0, 1], from mean distance between shared class means."""
    shared = [c for c in range(N_CLASSES) if a.has_class(c) and b.has_class(c)]
    if not shared:
        return 1.0
    d = float(np.mean(np.abs(a.class_means[shared] - b.class_means[shared])))
    return float(np.exp(-d / _AFFINITY_BANDWIDTH))

