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
from .styles import N_CLASSES, StyleModel, _pairwise_min_separation, class_sums
from .world import (
    ClassId,
    DrivingSample,
    InstanceMap,
    Layout,
    Provenance,
    Scenario,
    SemanticMap,
)

_JITTER_TAG = 0xC7
_CROP_TAG = 0xCC
# The jitter's m: channel scales lie in [1-m, 1+m] and shifts in [-m/2, m/2].
_JITTER_MAGNITUDE = 0.2
# The crop window's smallest side, as a fraction of the grid's side.
_CROP_MIN_SCALE = 0.6

# Style id reserved for the pooled no-adaptation perception model.
POOLED_STYLE_ID = 0xFFFF

# One scenario pixel (three float32 channels) as a single comparable value.
_PIXEL_KEY = np.dtype((np.void, 12))
# A source's pixel keys, as _pixel_index returns them.
_PixelIndex = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def baseline_color_jitter(sample: DrivingSample, seed: int) -> DrivingSample:
    """Channel-wise affine perturbation of the pixels; maps and label kept.

    Each channel is scaled by a factor in [1-m, 1+m] and shifted by a value
    in [-m/2, m/2] (m is _JITTER_MAGNITUDE), then clamped to [0, 1], in
    place in one float64 copy of the pixels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), _JITTER_TAG]))
    scale = rng.uniform(1.0 - _JITTER_MAGNITUDE, 1.0 + _JITTER_MAGNITUDE, size=3)
    shift = rng.uniform(-_JITTER_MAGNITUDE / 2.0, _JITTER_MAGNITUDE / 2.0, size=3)
    pixels = sample.scenario.pixels.astype(np.float64)
    pixels *= scale
    pixels += shift
    np.clip(pixels, 0.0, 1.0, out=pixels)
    scenario = Scenario(pixels=pixels.astype(np.float32), style=sample.scenario.style)
    return replace(sample, scenario=scenario, provenance=Provenance.AUGMENTED)


def _nn_resize_indices(n_out: int, n_in: int, start: int) -> np.ndarray:
    """Nearest-neighbor source rows/cols for resizing a crop back to n_out."""
    return start + np.minimum((np.arange(n_out) * n_in) // n_out, n_in - 1)


def baseline_random_resized_crop(sample: DrivingSample, seed: int) -> DrivingSample:
    """Crop a window and resize back to full size by nearest neighbor.

    Pixels, semantic map, and instance map are cropped with the same window,
    so the three stay consistent; instance records are rebuilt from the
    resized grid. The torque label is copied unchanged even though the crop
    can shift the visible geometry; like the jitter, this augmenter adds
    images, not information. A window that would remove every road cell is
    re-drawn; after ten misses the sample is returned unchanged. Each side
    of the window is at least _CROP_MIN_SCALE of the grid's.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), _CROP_TAG]))
    classes = sample.semantic.classes
    h, w = classes.shape
    for _ in range(10):
        ch = max(16, int(round(h * rng.uniform(_CROP_MIN_SCALE, 1.0))))
        cw = max(16, int(round(w * rng.uniform(_CROP_MIN_SCALE, 1.0))))
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
    new_classes = classes.take(rows, 0).take(cols, 1)
    new_pixels = sample.scenario.pixels.take(rows, 0).take(cols, 1)
    new_grid = sample.instances.instance_grid.take(rows, 0).take(cols, 1)
    # One pass over the resized grid: its cells sorted by id, row-major
    # within one, give every id's bbox, and each record looks its id up.
    flat = new_grid.ravel()
    cells = np.argsort(flat, kind="stable")
    ordered = flat[cells]
    starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
    ys, xs = np.divmod(cells, w)
    y0, y1 = ys[starts], ys[np.append(starts[1:], flat.size) - 1]
    x0, x1 = np.minimum.reduceat(xs, starts), np.maximum.reduceat(xs, starts)
    values = ordered[starts]
    ids = sample.instances.records["id"]
    at = np.minimum(np.searchsorted(values, ids), values.size - 1)
    present = values[at] == ids
    records = sample.instances.records[present]
    k = at[present]
    records["bbox"] = np.stack([x0[k], y0[k], x1[k] - x0[k] + 1, y1[k] - y0[k] + 1], axis=1)
    records["affine"][:, :2] = records["bbox"][:, :2]
    records["affine"][:, 2:] = (w / cw, h / ch)
    # Every id left in the grid is a kept record's: the source map holds
    # only its records' ids and background, so the grid needs no masking.
    return replace(
        sample,
        scenario=Scenario(pixels=new_pixels, style=sample.scenario.style),
        semantic=SemanticMap(classes=new_classes),
        instances=InstanceMap(instance_grid=new_grid, records=records),
        provenance=Provenance.AUGMENTED,
    )


def pooled_style(samples: Sequence[DrivingSample]) -> StyleModel:
    """One appearance model over mixed-style data, ignoring style boundaries.

    This is the no-adaptation perception a centralized learner gets when it
    pools every agent's images into one bucket: per-class means averaged
    across styles. When the agents' domains disagree about a class, the
    averaged means crowd together and segmentation under this style starts
    confusing exactly those classes - the centralized arm's handicap. The
    style takes the reserved id POOLED_STYLE_ID. The totals come from
    class_sums over each sample's cached class_stats, added in sample
    order, so the robots' fit_style calls on the same samples, before or
    after this one, reuse its per-sample pass and leave every byte as it is.
    """
    if not samples:
        raise FittingError("pooled_style needs at least one sample")
    sums, _, counts = class_sums(samples)
    if (counts == 0).any():
        raise FittingError(f"no pixel coverage for classes {np.flatnonzero(counts == 0).tolist()}")
    means = sums / counts[:, None]
    # Collapsed means cannot honor the usual separation floor; lower it to
    # whatever the pooled palette actually achieves instead of failing.
    sep = _pairwise_min_separation(means)
    floor = min(0.05, max(sep * (1.0 - 1e-9), 1e-9))
    spreads = np.full(N_CLASSES, floor / 2 * (1 - 1e-9))
    return StyleModel(
        style=POOLED_STYLE_ID,
        class_means=means,
        class_spreads=spreads,
        texture_seed=0,
        separation_floor=floor,
    )


def _pixel_index(scenario: Scenario) -> _PixelIndex:
    """A scenario's pixel keys and what the remap check looks them up by.

    Each pixel triple is one 12-byte key. Returns the row-major keys, the
    sorted distinct keys, the row-major position of each distinct key's
    first occurrence, and a mask of the positions that are a first
    occurrence.
    """
    keys = scenario.pixels.reshape(-1, 3).view(_PIXEL_KEY).ravel()
    distinct, first = np.unique(keys, return_index=True)
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[first] = True
    return keys, distinct, first, is_first


def _is_coordinate_remap(source: DrivingSample, output: DrivingSample, index: _PixelIndex) -> bool:
    """True when the output only rearranges source cells (crop/resize style).

    Every output pixel triple must occur verbatim in the source (texture
    noise makes triples effectively unique per cell), the cell map that
    takes each output pixel to its key's first occurrence in the source
    must factor into monotone row and column index arrays (the structure of
    an axis-aligned window resample), and the output semantic grid must be
    the source grid pulled through those same indices. Anything that draws
    new content fails at least one of these checks.

    index is _pixel_index(source.scenario), which a caller checking several
    outputs of one source computes once. Only the output's first column and
    first row are looked up: they give the only row and column indices the
    cell map could factor into, and one gather then checks every output
    pixel against its source key and first occurrence.
    """
    keys, distinct, first, is_first = index
    out_px = output.scenario.pixels
    h, w = out_px.shape[:2]
    out_keys = out_px.reshape(-1, 3).view(_PIXEL_KEY).reshape(h, w)
    edge = np.concatenate((out_keys[:, 0], out_keys[0, :]))
    at = np.minimum(np.searchsorted(distinct, edge), distinct.size - 1)
    if not (distinct[at] == edge).all():
        return False
    rows, cols = np.divmod(first[at], source.scenario.width)
    row_idx, col_idx = rows[:h], cols[h:]
    cells = row_idx[:, None] * source.scenario.width + col_idx
    if not ((keys[cells] == out_keys).all() and is_first[cells].all()):
        return False
    if (np.diff(row_idx) < 0).any() or (np.diff(col_idx) < 0).any():
        return False
    src_grid = np.asarray(source.semantic.classes)
    out_grid = np.asarray(output.semantic.classes)
    return bool(np.array_equal(src_grid.take(row_idx, 0).take(col_idx, 1), out_grid))


class AugmenterAxes:
    """One augmenter's qualitative axes, tallied as its outputs are made.

    add takes one source and the outputs made from it, checks each pair at
    once and keeps only what qualitative_table reads: the distinct sources,
    each output's semantic and instance maps in output order, and whether
    any output added semantic content or an instance record. It keeps no
    output's pixels, so the outputs can be freed as soon as an arm has
    trained on them.

    An output has semantic content absent from its source when its semantic
    map is another object and it is not a pure coordinate remap of the
    source's cells; pairs are checked only until the first one that has.
    """

    def __init__(self) -> None:
        self._sources: dict[int, DrivingSample] = {}
        self.layouts: list[Layout] = []
        self.semantic = False
        self.instance = False

    def add(self, source: DrivingSample, outputs: Sequence[DrivingSample]) -> None:
        self._sources.setdefault(id(source), source)
        index: Optional[_PixelIndex] = None
        for output in outputs:
            self.layouts.append((output.semantic, output.instances))
            if not self.semantic and output.semantic != source.semantic:
                index = index or _pixel_index(source.scenario)
                self.semantic = not _is_coordinate_remap(source, output, index)
            if len(output.instances.records) > len(source.instances.records):
                self.instance = True

    @property
    def number(self) -> float:
        """The achieved output/input ratio over distinct sources."""
        return len(self.layouts) / len(self._sources) if self._sources else 0.0


def qualitative_table(
    arms: Mapping[str, AugmenterAxes],
    scorer: PlausibilityScorer,
    known_scores: Mapping[str, Sequence[float]],
) -> dict[str, dict]:
    """Mechanical axis flags per augmenter: number, semantic, instance, reality.

    arms maps augmenter name to its tallied axes. Number is the achieved
    output/input ratio over distinct sources, semantic flags any output with
    semantic content absent from its source (a pure coordinate remap of
    existing cells does not count), instance flags any added instance
    record, and reality buckets the mean plausibility score under scorer
    (A >= 0.75, B >= 0.5, C >= 0.25, else D; "-" for an arm without
    outputs).

    known_scores maps some arms, possibly none, to their outputs' scores
    under this same scorer, aligned with the outputs, so candidates that
    already carry a score are not scored again. Every other output's maps
    are scored in one batch, once per distinct layout: outputs that share
    their semantic and instance map objects (an appearance-only augmenter
    keeps its source's maps) share one score.
    """
    for name, axes in arms.items():
        if name in known_scores and len(known_scores[name]) != len(axes.layouts):
            raise FittingError(f"{name}: known scores and outputs must align")
    # Every distinct layout still to score, keyed by its map objects.
    layouts: dict[tuple[int, int], tuple] = {}
    for name, axes in arms.items():
        if name not in known_scores:
            for semantic, instances in axes.layouts:
                layouts.setdefault((id(semantic), id(instances)), (semantic, instances))
    scored = dict(zip(layouts, scorer.score_layout(list(layouts.values())))) if layouts else {}

    table: dict[str, dict] = {}
    for name, axes in arms.items():
        reality = "-"
        mean_score = None
        if axes.layouts:
            if name in known_scores:
                scores = known_scores[name]
            else:
                scores = [scored[(id(m), id(i))] for m, i in axes.layouts]
            mean_score = float(np.mean(scores))
            for bucket, cutoff in (("A", 0.75), ("B", 0.5), ("C", 0.25)):
                if mean_score >= cutoff:
                    reality = bucket
                    break
            else:
                reality = "D"
        table[name] = {
            "number": round(axes.number, 4),
            "semantic": axes.semantic,
            "instance": axes.instance,
            "reality": reality,
            "mean_score": None if mean_score is None else round(mean_score, 6),
        }
    return table
