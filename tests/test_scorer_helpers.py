"""Property tests: the scorer's vectorized grid helpers against their definitions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parl.augment import _contact_flags, _depth_map, _mode_pool
from parl.styles import N_CLASSES
from parl.world import BACKGROUND_ID, ClassId, InstanceMap, InstanceRecord, THING_CLASSES

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def instance_maps(draw):
    """Small grids of a few records; some records own no cells."""
    h, w = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    ids = draw(st.lists(st.integers(0, 30), unique=True, max_size=5))
    grid = draw(hnp.arrays(np.int32, (h, w), elements=st.sampled_from([BACKGROUND_ID] + ids)))
    records = []
    for i in ids:
        ys, xs = np.nonzero(grid == i)
        bbox = (
            (int(xs.min()), int(ys.min()), int(np.ptp(xs)) + 1, int(np.ptp(ys)) + 1)
            if ys.size
            else (0, 0, 1, 1)
        )
        records.append(InstanceRecord(i, draw(st.sampled_from(THING_CLASSES)), bbox, (0.0, 0.0, 1.0, 1.0)))
    return InstanceMap(instance_grid=grid, records=tuple(records))


def class_grids(max_side=9):
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side)).flatmap(
        lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, N_CLASSES - 1))
    )


@SETTINGS
@given(instance_maps())
def test_contact_flags_match_brute_force(instances):
    grid = instances.instance_grid
    class_of = {r.instance_id: r.class_id for r in instances.records}
    expected = {r.instance_id: False for r in instances.records}
    h, w = grid.shape
    for y in range(h):
        for x in range(w):
            for ny, nx in ((y + 1, x), (y, x + 1)):
                if ny >= h or nx >= w:
                    continue
                a, b = int(grid[y, x]), int(grid[ny, nx])
                if a != b and a != BACKGROUND_ID and b != BACKGROUND_ID and class_of[a] == class_of[b]:
                    expected[a] = expected[b] = True
    assert _contact_flags(instances) == expected


@SETTINGS
@given(class_grids())
def test_depth_map_matches_definition(classes):
    h, w = classes.shape
    depth = _depth_map(classes)
    assert depth.dtype == np.int32 and depth.shape == (h, w)
    for row in range(h):
        road = [c for c in range(w) if classes[row, c] in (ClassId.ROAD, ClassId.LANE_MARKING)]
        for col in range(w):
            if not road:
                want = -w
            elif road[0] <= col <= road[-1]:
                want = min(col - road[0], road[-1] - col) + 1
            else:
                want = -(road[0] - col if col < road[0] else col - road[-1])
            assert depth[row, col] == want


@SETTINGS
@given(class_grids(), st.sampled_from([2, 3, 4]))
def test_mode_pool_is_block_majority(classes, factor):
    h, w = classes.shape
    pooled = _mode_pool(classes, factor)
    assert pooled.shape == (-(-h // factor), -(-w // factor))
    for by in range(pooled.shape[0]):
        for bx in range(pooled.shape[1]):
            # Blocks past the edge repeat the edge row and column.
            votes = np.zeros(N_CLASSES, dtype=int)
            for y in range(by * factor, (by + 1) * factor):
                for x in range(bx * factor, (bx + 1) * factor):
                    votes[classes[min(y, h - 1), min(x, w - 1)]] += 1
            assert pooled[by, bx] == int(np.flatnonzero(votes == votes.max())[0])
