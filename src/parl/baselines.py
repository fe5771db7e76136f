"""Comparison-arm helpers: appearance-level augmenters and pooled perception.

The two augmenters below deliberately stay at the appearance level: they
produce more images but no new semantic content, which is exactly the
property the qualitative table surfaces. The crop keeps the original torque
label even though cropping can invalidate the geometry; that limitation is
intentional and documented (geometry-only augmentation cannot supply
correct labels for what it changes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .augment import PlausibilityScorer
from .errors import FittingError
from .styles import N_CLASSES, StyleModel, _pairwise_min_separation
from .world import (
    ClassId,
    DrivingSample,
    InstanceMap,
    InstanceRecord,
    Provenance,
    Scenario,
    SemanticMap,
)

_JITTER_TAG = 0xC7
_CROP_TAG = 0xCC

# Style id reserved for the pooled no-adaptation perception model.
POOLED_STYLE_ID = 0xFFFF

# One scenario pixel (three float32 channels) as a single comparable value.
_PIXEL_KEY = np.dtype((np.void, 12))


def baseline_color_jitter(
    sample: DrivingSample, seed: int, magnitude: float = 0.2
) -> DrivingSample:
    """Channel-wise affine perturbation of the pixels; maps and label kept.

    Each channel is scaled by a factor in [1-m, 1+m] and shifted by a value
    in [-m/2, m/2], then clamped to [0, 1]. Zero magnitude is the identity.
    """
    if not 0.0 <= magnitude < 1.0:
        raise FittingError(f"jitter magnitude {magnitude} outside [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), _JITTER_TAG]))
    scale = rng.uniform(1.0 - magnitude, 1.0 + magnitude, size=3)
    shift = rng.uniform(-magnitude / 2.0, magnitude / 2.0, size=3)
    pixels = np.clip(sample.scenario.pixels.astype(np.float64) * scale + shift, 0.0, 1.0)
    scenario = Scenario(pixels=pixels.astype(np.float32), style=sample.scenario.style)
    return replace(sample, scenario=scenario, provenance=Provenance.AUGMENTED)


def _nn_resize_indices(n_out: int, n_in: int, start: int) -> np.ndarray:
    """Nearest-neighbor source rows/cols for resizing a crop back to n_out."""
    return start + np.minimum((np.arange(n_out) * n_in) // n_out, n_in - 1)


def baseline_random_resized_crop(
    sample: DrivingSample, seed: int, min_scale: float = 0.6
) -> DrivingSample:
    """Crop a window and resize back to full size by nearest neighbor.

    Pixels, semantic map, and instance map are cropped with the same window,
    so the three stay consistent; instance records are rebuilt from the
    resized grid. The torque label is copied unchanged even though the crop
    can shift the visible geometry; like the jitter, this augmenter adds
    images, not information. A window that would remove every road cell is
    re-drawn; after ten misses the sample is returned unchanged.
    """
    if not 0.0 < min_scale <= 1.0:
        raise FittingError(f"min_scale {min_scale} outside (0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), _CROP_TAG]))
    classes = sample.semantic.classes
    h, w = classes.shape
    for _ in range(10):
        ch = max(16, int(round(h * rng.uniform(min_scale, 1.0))))
        cw = max(16, int(round(w * rng.uniform(min_scale, 1.0))))
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        window = classes[top : top + ch, left : left + cw]
        if (window == ClassId.ROAD).any():
            break
    else:
        return sample
    if (ch, cw, top, left) == (h, w, 0, 0):
        return sample
    rows = _nn_resize_indices(h, ch, top)
    cols = _nn_resize_indices(w, cw, left)
    grid_idx = np.ix_(rows, cols)
    new_classes = classes[grid_idx]
    new_pixels = sample.scenario.pixels[grid_idx]
    new_grid = sample.instances.instance_grid[grid_idx]
    records = []
    for rec in sample.instances.records:
        ys, xs = np.nonzero(new_grid == rec.instance_id)
        if ys.size == 0:
            continue
        bbox = (int(xs.min()), int(ys.min()), int(xs.max() - xs.min() + 1), int(ys.max() - ys.min() + 1))
        records.append(
            InstanceRecord(
                instance_id=rec.instance_id,
                class_id=rec.class_id,
                bbox=bbox,
                affine=(float(bbox[0]), float(bbox[1]), w / cw, h / ch),
            )
        )
    kept = {r.instance_id for r in records}
    new_grid = np.where(np.isin(new_grid, list(kept)) if kept else False, new_grid, -1)
    return replace(
        sample,
        scenario=Scenario(pixels=new_pixels, style=sample.scenario.style),
        semantic=SemanticMap(classes=new_classes),
        instances=InstanceMap(instance_grid=new_grid.astype(np.int32), records=tuple(records)),
        provenance=Provenance.AUGMENTED,
    )


def pooled_style(samples: Sequence[DrivingSample], style_id: int = POOLED_STYLE_ID) -> StyleModel:
    """One appearance model over mixed-style data, ignoring style boundaries.

    This is the no-adaptation perception a centralized learner gets when it
    pools every agent's images into one bucket: per-class means averaged
    across styles. When the agents' domains disagree about a class, the
    averaged means crowd together and segmentation under this style starts
    confusing exactly those classes - the centralized arm's handicap.
    """
    if not samples:
        raise FittingError("pooled_style needs at least one sample")
    sums = np.zeros((N_CLASSES, 3))
    counts = np.zeros(N_CLASSES, dtype=np.int64)
    for sample in samples:
        pixels = sample.scenario.pixels.astype(np.float64)
        classes = sample.semantic.classes
        for c in range(N_CLASSES):
            mask = classes == c
            if mask.any():
                sums[c] += pixels[mask].sum(axis=0)
                counts[c] += int(mask.sum())
    if (counts == 0).any():
        raise FittingError(f"no pixel coverage for classes {np.flatnonzero(counts == 0).tolist()}")
    means = sums / counts[:, None]
    # Collapsed means cannot honor the usual separation floor; lower it to
    # whatever the pooled palette actually achieves instead of failing.
    sep = _pairwise_min_separation(means)
    floor = min(0.05, max(sep * (1.0 - 1e-9), 1e-9))
    spreads = np.full(N_CLASSES, floor / 2 * (1 - 1e-9))
    return StyleModel(
        style=style_id,
        class_means=means,
        class_spreads=spreads,
        texture_seed=0,
        separation_floor=floor,
    )


def _is_coordinate_remap(source: DrivingSample, output: DrivingSample) -> bool:
    """True when the output only rearranges source cells (crop/resize style).

    Every output pixel triple must occur verbatim in the source (texture
    noise makes triples effectively unique per cell), the induced cell map
    must factor into monotone row and column index arrays (the structure of
    an axis-aligned window resample), and the output semantic grid must be
    the source grid pulled through those same indices. Anything that draws
    new content fails at least one of these checks.
    """
    # Each pixel triple as one 12-byte key: the source's sorted distinct
    # keys with the row-major index of each key's first occurrence, then a
    # binary search for every output key.
    src_px = source.scenario.pixels
    out_px = output.scenario.pixels
    src_keys = src_px.reshape(-1, 3).view(_PIXEL_KEY).ravel()
    out_keys = out_px.reshape(-1, 3).view(_PIXEL_KEY).ravel()
    distinct, first = np.unique(src_keys, return_index=True)
    at = np.minimum(np.searchsorted(distinct, out_keys), distinct.size - 1)
    if not (distinct[at] == out_keys).all():
        return False
    rows, cols = np.divmod(first[at].reshape(out_px.shape[:2]), src_px.shape[1])
    if not ((rows == rows[:, :1]).all() and (cols == cols[:1, :]).all()):
        return False
    row_idx, col_idx = rows[:, 0], cols[0, :]
    if (np.diff(row_idx) < 0).any() or (np.diff(col_idx) < 0).any():
        return False
    src_grid = np.asarray(source.semantic.classes)
    out_grid = np.asarray(output.semantic.classes)
    return bool(np.array_equal(src_grid[np.ix_(row_idx, col_idx)], out_grid))


def qualitative_table(
    arms: Mapping[str, tuple[Sequence[DrivingSample], Sequence[DrivingSample]]],
    scorer: Optional[PlausibilityScorer] = None,
    known_scores: Optional[Mapping[str, Sequence[float]]] = None,
) -> dict[str, dict]:
    """Mechanical axis flags per augmenter: number, semantic, instance, reality.

    arms maps augmenter name to (sources, outputs) where outputs[i] derives
    from sources[i]. Number is the achieved output/input ratio over distinct
    sources, semantic flags any output with semantic content absent from its
    source (a pure coordinate remap of existing cells does not count),
    instance flags any added instance record, and reality buckets the mean
    plausibility score (A >= 0.75, B >= 0.5, C >= 0.25, else D; "-" without
    a scorer).

    known_scores maps an arm to its outputs' scores under this same scorer,
    aligned with the outputs, so candidates that already carry a score are
    not scored again. Any other output is scored once per distinct layout:
    outputs that share their semantic and instance map objects (an
    appearance-only augmenter keeps its source's maps) share one score.
    """
    known_scores = known_scores or {}
    cache: dict[tuple[int, int], float] = {}

    def layout_score(sample: DrivingSample) -> float:
        key = (id(sample.semantic), id(sample.instances))
        if key not in cache:
            cache[key] = scorer.score_layout((sample.semantic, sample.instances))
        return cache[key]

    table: dict[str, dict] = {}
    for name, (sources, outputs) in arms.items():
        if len(sources) != len(outputs):
            raise FittingError(f"{name}: sources and outputs must align")
        if name in known_scores and len(known_scores[name]) != len(outputs):
            raise FittingError(f"{name}: known scores and outputs must align")
        semantic = any(
            o.semantic != s.semantic and not _is_coordinate_remap(s, o)
            for s, o in zip(sources, outputs)
        )
        instance = any(
            len(o.instances.records) > len(s.instances.records)
            for s, o in zip(sources, outputs)
        )
        distinct = len({id(s) for s in sources})
        number = len(outputs) / distinct if distinct else 0.0
        reality = "-"
        mean_score = None
        if scorer is not None and outputs:
            if name in known_scores:
                scores = known_scores[name]
            else:
                scores = [layout_score(o) for o in outputs]
            mean_score = float(np.mean(scores))
            for bucket, cutoff in (("A", 0.75), ("B", 0.5), ("C", 0.25)):
                if mean_score >= cutoff:
                    reality = bucket
                    break
            else:
                reality = "D"
        table[name] = {
            "number": round(number, 4),
            "semantic": semantic,
            "instance": instance,
            "reality": reality,
            "mean_score": None if mean_score is None else round(mean_score, 6),
        }
    return table
