"""Property tests: the vectorized perception kernels against brute force.

Each reference below is the straightforward per-row, per-class or
per-component definition the kernels replaced, kept here verbatim in
behaviour. Hypothesis draws small grids from narrow alphabets so that car
runs, exact distance ties, absent classes, duplicate ids and ill-fitting
bounding boxes all come up often. The numpy labelling kernels are checked
against scipy.ndimage, which parl itself does not import. segment, which
classifies stacks of scenarios with a running minimum, is checked against
the per-scenario argmin classifier it replaced, on lists that mix shapes
and cross the chunk boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from parl.augment import _erase_record
from parl.errors import ConfigurationError, DegenerateInputError
from parl.policy import (
    N_FEATURES,
    N_OCCUPANCY,
    OBSTACLE_SENTINEL,
    _obstacle_offset,
    features_from_grids,
    features_from_maps,
)
from parl.styles import N_CLASSES
from parl.world import (
    BACKGROUND_ID,
    THING_CLASSES,
    ClassId,
    InstanceMap,
    RECORD_DTYPE,
    Scenario,
    SemanticMap,
    _classify_stack,
    _label_boxes,
    _label_components,
    extract_instances,
    segment,
)

_CONNECTIVITY = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


# ---------------------------------------------------------------------------
# Reference definitions
# ---------------------------------------------------------------------------


def reference_obstacle_offset(classes):
    h, w = classes.shape
    cars = classes == ClassId.CAR
    road_like = np.isin(classes, (ClassId.ROAD, ClassId.LANE_MARKING))
    in_road = np.zeros_like(cars)
    for row in range(h - 1):
        cols = np.flatnonzero(cars[row])
        if cols.size == 0:
            continue
        runs = np.split(cols, np.flatnonzero(np.diff(cols) > 1) + 1)
        for run in runs:
            below_road = int(road_like[row + 1, run].sum())
            if below_road * 2 > run.size:
                in_road[row, run] = True
    ys, xs = np.nonzero(in_road)
    if ys.size == 0:
        return OBSTACLE_SENTINEL
    nearest_row = ys.max()
    sel = ys == nearest_row
    centroid = float(xs[sel].mean())
    return (centroid - (w - 1) / 2.0) / 4.0


def reference_pool_occupancy(classes):
    h, w = classes.shape
    row_edges = np.linspace(0, h, 5).astype(int)
    col_edges = np.linspace(0, w, 5).astype(int)
    out = np.empty((N_CLASSES, 4, 4), dtype=np.float64)
    for i in range(4):
        for j in range(4):
            block = classes[row_edges[i] : row_edges[i + 1], col_edges[j] : col_edges[j + 1]]
            counts = np.bincount(block.ravel(), minlength=N_CLASSES)
            out[:, i, j] = counts / block.size
    return out.reshape(-1)


def reference_lane_offset(classes):
    h, w = classes.shape
    band = classes[h - 8 :]
    road = np.isin(band, (ClassId.ROAD, ClassId.LANE_MARKING))
    if not road.any():
        raise DegenerateInputError("no road cells in the near band")
    cols = np.nonzero(road)[1]
    center = float(cols.mean())
    return (center - (w - 1) / 2.0) / (w / 2.0)


def reference_features(classes):
    vec = np.empty(N_FEATURES, dtype=np.float64)
    vec[:N_OCCUPANCY] = reference_pool_occupancy(classes)
    vec[N_OCCUPANCY] = reference_lane_offset(classes)
    vec[N_OCCUPANCY + 1] = reference_obstacle_offset(classes)
    return vec


def reference_classify_cells(pixels, style):
    px = pixels.astype(np.float64)
    dists = np.empty((N_CLASSES,) + px.shape[:2])
    for c in range(N_CLASSES):
        if style.has_class(c):
            dists[c] = np.max(np.abs(px - style.class_means[c]), axis=2)
        else:
            dists[c] = np.inf
    return dists.argmin(axis=0).astype(np.uint8)


def argmin_classify_cells(pixels, style):
    """The per-scenario classifier segment used before it took stacks.

    Channel-first planes, one distance plane per present class with the
    absent ones left at infinity, and argmin over the class axis, which
    picks the lowest id on ties.
    """
    planes = pixels.transpose(2, 0, 1).astype(np.float64, order="C")
    dists = np.full((N_CLASSES,) + planes.shape[1:], np.inf)
    for c in np.flatnonzero(~np.isnan(style.class_means).any(axis=1)):
        r, g, b = np.abs(planes - style.class_means[c][:, None, None])
        dists[c] = np.maximum(np.maximum(r, g), b)
    return dists.argmin(axis=0).astype(np.uint8)


def reference_segment(scenarios, style):
    """segment one scenario at a time, on the argmin classifier."""
    maps = []
    for scenario in scenarios:
        classes = argmin_classify_cells(scenario.pixels, style)
        if not (classes == ClassId.ROAD).any():
            raise DegenerateInputError("segmented scenario contains no road cells")
        maps.append(SemanticMap(classes=classes))
    return maps


def reference_extract_instances(classes):
    h, w = classes.shape
    grid = np.full((h, w), BACKGROUND_ID, dtype=np.int32)
    records = []
    next_id = 0
    for cls in THING_CLASSES:
        labels, n = ndimage.label(classes == cls, structure=_CONNECTIVITY)
        for comp in range(1, n + 1):
            mask = labels == comp
            ys, xs = np.nonzero(mask)
            x0, y0 = int(xs.min()), int(ys.min())
            bw, bh = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
            grid[mask] = next_id
            records.append((next_id, cls, (x0, y0, bw, bh), (float(x0), float(y0), 1.0, 1.0)))
            next_id += 1
    return grid, np.array(records, dtype=RECORD_DTYPE)


def reference_erase_record(classes, grid, mask):
    """_erase_record with the blob's ring taken from binary_dilation."""
    ring = ndimage.binary_dilation(mask, structure=_CONNECTIVITY) & ~mask
    ring_classes = classes[ring]
    stuff = ring_classes[~np.isin(ring_classes, THING_CLASSES)]
    fill = int(np.bincount(stuff, minlength=N_CLASSES).argmax()) if stuff.size else int(ClassId.ROAD)
    classes[mask] = fill
    grid[mask] = BACKGROUND_ID


def reference_instance_map_check(instance_grid, records):
    """The checks each record made of itself, then InstanceMap's, one argwhere per record.

    records is a list of (id, class, bbox, affine) tuples of Python numbers.
    """
    grid = np.ascontiguousarray(np.asarray(instance_grid, dtype=np.int32))
    for _, class_id, bbox, _ in records:
        if class_id not in THING_CLASSES:
            raise ConfigurationError(f"{class_id!r} is not an instance class")
        x0, y0, w, h = bbox
        if w <= 0 or h <= 0 or x0 < 0 or y0 < 0:
            raise ConfigurationError(f"bad bbox {bbox}")
    ids_in_grid = set(int(v) for v in np.unique(grid)) - {BACKGROUND_ID}
    ids_in_records = [r[0] for r in records]
    if len(ids_in_records) != len(set(ids_in_records)):
        raise ConfigurationError("duplicate instance ids in records")
    if not ids_in_grid <= set(ids_in_records):
        raise ConfigurationError("grid references ids missing from records")
    for instance_id, _, bbox, _ in records:
        cells = np.argwhere(grid == instance_id)
        if cells.size:
            x0, y0, w, h = bbox
            ys, xs = cells[:, 0], cells[:, 1]
            if xs.min() < x0 or xs.max() >= x0 + w or ys.min() < y0 or ys.max() >= y0 + h:
                raise ConfigurationError(f"bbox {bbox} does not enclose instance {instance_id}")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_ROADSIDE = [int(ClassId.ROAD), int(ClassId.LANE_MARKING), int(ClassId.CAR), int(ClassId.SIDEWALK)]


def class_grids(alphabet, min_side, max_side):
    return st.tuples(
        st.integers(min_side, max_side), st.integers(min_side, max_side)
    ).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.sampled_from(alphabet))
    )


def grid_stacks(alphabet, min_side, max_side):
    return st.tuples(
        st.integers(1, 4), st.integers(min_side, max_side), st.integers(min_side, max_side)
    ).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.sampled_from(alphabet))
    )


class _Means:
    """Stand-in style: class means only, NaN rows for absent classes.

    StyleModel would refuse means close enough to tie, which are exactly the
    cases worth testing here.
    """

    def __init__(self, means):
        self.class_means = means

    def has_class(self, c):
        return not bool(np.isnan(self.class_means[c]).any())


@st.composite
def classify_inputs(draw):
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # Eighths and sixteenths are exact in float32 and float64, so distances
    # tie exactly and often.
    pixels = draw(
        arrays(np.float32, (h, w, 3), elements=st.integers(0, 16).map(lambda k: k / 16))
    )
    means = draw(
        arrays(np.float64, (N_CLASSES, 3), elements=st.integers(0, 8).map(lambda k: k / 8))
    )
    absent = draw(arrays(bool, N_CLASSES))
    means[absent] = np.nan
    return pixels, _Means(means)


_SCENARIO_SHAPES = [(16, 16), (16, 18), (17, 16)]


@st.composite
def segment_stacks(draw):
    """Scenarios of mixed shapes and a palette with exact ties and NaN rows.

    Pixels are sixteenths and means eighths, so distances tie exactly and
    often; two classes share one mean whenever the palette draws it twice,
    and one pair is forced to. Half the time one scenario, at a drawn
    position, is filled with the mean of the lowest present class that is
    not road and does not tie with road, so it segments without a road cell.
    """
    n = draw(st.sampled_from([1, 7, 8, 9, 17]))
    means = draw(
        arrays(np.float64, (N_CLASSES, 3), elements=st.integers(0, 8).map(lambda k: k / 8))
    )
    a, b = draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=2, max_size=2, unique=True))
    means[b] = means[a]
    absent = draw(arrays(bool, N_CLASSES))
    absent[ClassId.ROAD] = draw(st.integers(0, 9)) == 0  # now and then no road at all
    means[absent] = np.nan
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenarios = []
    for _ in range(n):
        shape = _SCENARIO_SHAPES[draw(st.integers(0, len(_SCENARIO_SHAPES) - 1))]
        pixels = rng.integers(0, 17, size=shape + (3,)) / 16
        scenarios.append(Scenario(pixels=pixels.astype(np.float32), style=0))
    if draw(st.booleans()):
        fills = [
            c for c in range(1, N_CLASSES)
            if not absent[c] and (absent[ClassId.ROAD] or (means[c] != means[ClassId.ROAD]).any())
        ]
        if fills:
            at = draw(st.integers(0, n - 1))
            shape = scenarios[at].pixels.shape
            scenarios[at] = Scenario(
                pixels=np.broadcast_to(means[fills[0]], shape).astype(np.float32), style=0
            )
    return scenarios, _Means(means)


_IDS = [-3, BACKGROUND_ID, 0, 1, 2, 3, 70_000, 2**31 - 1]


@st.composite
def instance_maps(draw):
    """Grids over a few ids, with records whose bboxes sit within a cell of a tight fit.

    Half the maps have record ids 0..n-1 in order, as the generator and the
    codec make them, which InstanceMap looks up by index; their grid may
    also hold one id past the records, a negative id or a huge one. The
    others draw their ids from _IDS (gapped, shuffled, negative or huge),
    which InstanceMap looks up by a sorted search. There most records cover
    every grid id, so the bbox checks run rather than the missing-id check
    firing first; extra records may duplicate an id, and sometimes one id
    loses its record. Now and then a record has a stuff class or a bbox
    with a negative corner or an empty side, which the table checks reject
    before any lookup. Records come as (id, class, bbox, affine) tuples.
    """
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        record_ids = list(range(draw(st.integers(0, 3))))
        stray = draw(st.lists(st.sampled_from([-3, len(record_ids), 2**31 - 1]), max_size=1))
        grid = draw(
            arrays(np.int32, (h, w), elements=st.sampled_from([BACKGROUND_ID, *record_ids, *stray]))
        )
    else:
        ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True))
        grid = draw(arrays(np.int32, (h, w), elements=st.sampled_from(ids)))
        record_ids = draw(st.permutations(ids)) + draw(st.lists(st.sampled_from(_IDS), max_size=2))
        if draw(st.booleans()):
            record_ids = record_ids[1:]
    records = []
    for rid in record_ids:
        ys, xs = np.nonzero(grid == rid)
        if ys.size:
            x0, y0 = int(xs.min()), int(ys.min())
            bw, bh = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
        else:
            x0, y0, bw, bh = draw(st.integers(0, 5)), draw(st.integers(0, 5)), 1, 1
        dx, dy, dw, dh = draw(st.tuples(*[st.integers(-1, 1)] * 4))
        bbox = (max(x0 + dx, 0), max(y0 + dy, 0), max(bw + dw, 1), max(bh + dh, 1))
        if draw(st.integers(0, 19)) == 0:
            field = draw(st.integers(0, 3))
            bad = draw(st.sampled_from([-1, 0] if field >= 2 else [-2, -1]))
            bbox = bbox[:field] + (bad,) + bbox[field + 1 :]
        class_id = draw(st.sampled_from(THING_CLASSES))
        if draw(st.integers(0, 19)) == 0:
            class_id = draw(st.sampled_from([ClassId.ROAD, ClassId.SIDEWALK, N_CLASSES, 255]))
        records.append((rid, class_id, bbox, (0.0, 0.0, 1.0, 1.0)))
    return grid, records


def bool_masks(min_side, max_side):
    return st.tuples(
        st.integers(min_side, max_side), st.integers(min_side, max_side)
    ).flatmap(lambda shape: arrays(bool, shape))


def link_grid(instance_grid):
    """One layout's (2h-1, 2w-1) grid of cells and same-instance links, as _layout_instances stacks them."""
    grid = np.asarray(instance_grid)
    h, w = grid.shape
    links = np.zeros((2 * h - 1, 2 * w - 1), dtype=bool)
    links[::2, ::2] = grid != BACKGROUND_ID
    links[::2, 1::2] = (grid[:, :-1] == grid[:, 1:]) & (grid[:, 1:] != BACKGROUND_ID)
    links[1::2, ::2] = (grid[:-1] == grid[1:]) & (grid[1:] != BACKGROUND_ID)
    return links


def serpentine(h, w):
    """One component that winds through every row: the longest merge chain."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for row in range(1, h, 2):
        mask[row, w - 1 if row % 4 == 1 else 0] = True
    return mask


EDGE_MASKS = {
    "empty": np.zeros((4, 5), dtype=bool),
    "all-true": np.ones((4, 5), dtype=bool),
    "one-row": np.ones((1, 9), dtype=bool),
    "one-row-gaps": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
    "one-column": np.ones((9, 1), dtype=bool),
    "one-column-gaps": np.array([[1], [1], [0], [1], [0], [0], [1]], dtype=bool),
    "one-cell": np.ones((1, 1), dtype=bool),
    "serpentine": serpentine(15, 9),
    "comb": np.array([[1, 0, 1, 0, 1], [1, 0, 1, 0, 1], [1, 1, 1, 1, 1]], dtype=bool),
    "checkerboard": np.indices((6, 7)).sum(axis=0) % 2 == 0,
    "link-grid": link_grid(
        np.array([[0, 0, -1, 1], [0, 1, 1, 1], [-1, 0, -1, 1], [2, 2, 0, 0]], dtype=np.int32)
    ),
}


def assert_labels_match_ndimage(mask):
    labels, n = _label_components(mask)
    want, want_n = ndimage.label(mask, structure=_CONNECTIVITY)
    assert n == want_n
    assert np.array_equal(labels, want)
    boxes = [(r.start, r.stop, c.start, c.stop) for r, c in ndimage.find_objects(want)]
    assert [tuple(box) for box in _label_boxes(labels, n).tolist()] == boxes


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(mask=bool_masks(1, 12))
def test_label_components_and_boxes_match_ndimage(mask):
    assert_labels_match_ndimage(mask)


@pytest.mark.parametrize("name", sorted(EDGE_MASKS))
def test_label_components_edge_cases(name):
    assert_labels_match_ndimage(EDGE_MASKS[name])


def test_label_components_on_real_grids(small_dataset):
    for sample in small_dataset:
        assert_labels_match_ndimage(link_grid(sample.instances.instance_grid))
        for cls in THING_CLASSES:
            assert_labels_match_ndimage(sample.semantic.classes == cls)


@settings(max_examples=200, deadline=None)
@given(
    case=st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
        lambda shape: st.tuples(
            arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1)),
            arrays(bool, shape),
        )
    )
)
def test_erase_record_ring_matches_binary_dilation(case):
    classes, mask = case
    grid = np.arange(classes.size, dtype=np.int32).reshape(classes.shape)
    got_classes, got_grid = classes.copy(), grid.copy()
    _erase_record(got_classes, got_grid, mask)
    want_classes, want_grid = classes.copy(), grid.copy()
    reference_erase_record(want_classes, want_grid, mask)
    assert np.array_equal(got_classes, want_classes)
    assert np.array_equal(got_grid, want_grid)


@settings(max_examples=200, deadline=None)
@given(grids=grid_stacks(_ROADSIDE, 2, 9))
def test_obstacle_offset_matches_row_run_loop(grids):
    got = _obstacle_offset(grids)
    want = np.array([reference_obstacle_offset(g) for g in grids])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(case=classify_inputs())
def test_classify_cells_matches_per_class_loop(case):
    pixels, style = case
    [got] = _classify_stack(pixels[None], style)
    assert got.dtype == np.uint8
    assert np.array_equal(got, reference_classify_cells(pixels, style))


def test_classify_cells_ties_go_to_lowest_present_class():
    means = np.full((N_CLASSES, 3), np.nan)
    means[2] = (0.25, 0.5, 0.5)
    means[5] = (0.75, 0.5, 0.5)
    means[7] = (0.25, 0.5, 0.5)  # an exact duplicate of class 2
    pixels = np.array([[[0.5, 0.5, 0.5], [0.25, 0.5, 0.5], [1.0, 0.5, 0.5]]], dtype=np.float32)
    assert _classify_stack(pixels[None], _Means(means)).tolist() == [[[2, 2, 5]]]


@settings(max_examples=150, deadline=None)
@given(case=segment_stacks())
def test_segment_matches_argmin_one_scenario_at_a_time(case):
    scenarios, style = case
    try:
        want = reference_segment(scenarios, style)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError) as got:
            segment(scenarios, style)
        assert str(got.value) == str(exc)
        return
    got = segment(scenarios, style)
    assert len(got) == len(want)
    for semantic, expected in zip(got, want):
        assert semantic.classes.dtype == np.uint8
        assert semantic.classes.tobytes() == expected.classes.tobytes()


def test_segment_raises_for_the_first_failing_scenario_in_input_order():
    # Road and lane marking only; a scenario of marking-coloured cells has no road.
    means = np.full((N_CLASSES, 3), np.nan)
    means[ClassId.ROAD] = (0.0, 0.0, 0.0)
    means[ClassId.LANE_MARKING] = (1.0, 1.0, 1.0)
    style = _Means(means)
    road = Scenario(pixels=np.zeros((16, 16, 3), dtype=np.float32), style=0)
    marking = Scenario(pixels=np.ones((16, 16, 3), dtype=np.float32), style=0)
    small = Scenario(pixels=np.zeros((8, 16, 3), dtype=np.float32), style=0)
    # A map below 16x16 fails SemanticMap's own check; whichever failing
    # scenario comes first decides the error, across shapes and chunks.
    with pytest.raises(DegenerateInputError, match="no road cells"):
        segment([road] * 9 + [marking, small], style)
    with pytest.raises(ConfigurationError, match="at least 16x16"):
        segment([road] * 9 + [small, marking], style)
    assert [m.classes.max() for m in segment([road] * 17, style)] == [0] * 17
    assert segment([], style) == []


@settings(max_examples=100, deadline=None)
@given(classes=class_grids([int(ClassId.ROAD), int(ClassId.CAR), int(ClassId.PEDESTRIAN)], 1, 9))
def test_extract_instances_matches_per_component_loop(classes):
    got = extract_instances(classes)
    grid, records = reference_extract_instances(classes)
    assert np.array_equal(got.instance_grid, grid)
    assert got.records.tobytes() == records.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=instance_maps())
def test_instance_map_raises_exactly_where_reference_does(case):
    grid, rows = case
    records = np.array(rows, dtype=RECORD_DTYPE)
    try:
        reference_instance_map_check(grid, rows)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as got:
            InstanceMap(instance_grid=grid, records=records)
        assert str(got.value) == str(exc)
    else:
        built = InstanceMap(instance_grid=grid, records=records)
        assert np.array_equal(built.instance_grid, grid)
        assert built.records.tobytes() == records.tobytes()
        assert not built.records.flags.writeable


@settings(max_examples=100, deadline=None)
@given(grids=grid_stacks(list(range(N_CLASSES)), 16, 20))
def test_features_from_grids_matches_per_map_features(grids):
    try:
        want = np.stack([reference_features(g) for g in grids])
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            features_from_grids(grids)
        return
    assert features_from_grids(grids).tobytes() == want.tobytes()


def test_features_from_maps_handles_mixed_shapes():
    rng = np.random.default_rng(3)
    maps = []
    # Nine 16x16 maps among the others, so one shape spans two chunks.
    for shape in [(16, 16), (20, 24), (16, 16), (18, 16)] + [(16, 16)] * 7:
        classes = rng.integers(0, N_CLASSES, size=shape).astype(np.uint8)
        classes[-1, :] = ClassId.ROAD
        maps.append(SemanticMap(classes=classes))
    rows = features_from_maps(maps)
    assert rows.shape == (len(maps), N_FEATURES)
    for semantic, row in zip(maps, rows):
        assert row.tobytes() == reference_features(semantic.classes).tobytes()


def test_features_from_grids_rejects_what_is_not_a_class_stack():
    grid = np.zeros((1, 16, 16), dtype=np.uint8)
    for bad in (grid[0], grid.astype(np.int64), grid + N_CLASSES):
        with pytest.raises(DegenerateInputError):
            features_from_grids(bad)
