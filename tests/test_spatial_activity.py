import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cb_activity,
    normalized_activity,
    sub_block_variance,
    sub_blocks,
)
from spaqlab.partitioner import BlockRef, build_grid, pad_plane
from spaqlab.spatial_activity import compute_activity_map, frame_mean_activity
from spaqlab.video_io import Frame


def naive_variance(samples):
    """Two-pass population variance, independent of the implementation."""
    flat = [float(v) for row in samples for v in row]
    mean = sum(flat) / len(flat)
    return sum((v - mean) ** 2 for v in flat) / len(flat)


def block(values):
    return np.asarray(values, dtype=np.int32)


def test_constant_sub_block_has_zero_variance():
    plane = np.full((4, 4), 9, dtype=np.int32)
    assert sub_block_variance(plane, BlockRef(0, 0, 4)) == 0.0


def test_two_by_two_variance():
    plane = block([[0, 0], [2, 2]])
    assert sub_block_variance(plane, BlockRef(0, 0, 2)) == 1.0


def test_checkerboard_variance():
    plane = np.zeros((4, 4), dtype=np.int32)
    plane[::2, 1::2] = 4
    plane[1::2, ::2] = 4
    assert sub_block_variance(plane, BlockRef(0, 0, 4)) == 4.0


def test_variance_matches_naive_oracle_on_random_blocks():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        samples = rng.integers(0, 4096, (8, 8), dtype=np.int64).astype(np.int32)
        got = sub_block_variance(samples, BlockRef(0, 0, 8))
        assert got == pytest.approx(naive_variance(samples), abs=1e-9)


def test_cb_activity_takes_min_sub_block_variance():
    # quadrant variances 0, 2, 8, 4 -> g = 1 + min = 1
    plane = np.zeros((4, 4), dtype=np.int32)
    plane[0:2, 0:2] = block([[5, 5], [5, 5]])   # variance 0
    plane[0:2, 2:4] = block([[0, 2], [2, 4]])   # variance 2
    plane[2:4, 0:2] = block([[0, 4], [4, 8]])   # variance 8
    plane[2:4, 2:4] = block([[0, 0], [4, 4]])   # variance 4
    variances = [
        sub_block_variance(plane, sb) for sb in sub_blocks(BlockRef(0, 0, 4))
    ]
    assert variances == [0.0, 2.0, 8.0, 4.0]
    assert cb_activity(plane, BlockRef(0, 0, 4)) == 1.0


def test_cb_activity_frozen_value():
    # quadrant variances 2.5, 4, 4, 4 -> g = 3.5
    plane = np.zeros((4, 4), dtype=np.int32)
    plane[0:2, 0:2] = block([[0, 1], [3, 4]])   # variance 2.5
    four = block([[0, 0], [4, 4]])              # variance 4
    plane[0:2, 2:4] = four
    plane[2:4, 0:2] = four
    plane[2:4, 2:4] = four
    assert cb_activity(plane, BlockRef(0, 0, 4)) == 3.5


def test_constant_cb_activity_is_one():
    plane = np.full((8, 8), 77, dtype=np.int32)
    assert cb_activity(plane, BlockRef(0, 0, 8)) == 1.0


def test_frame_mean_activity():
    assert frame_mean_activity([1, 1, 1, 1]) == 1
    assert frame_mean_activity([1, 3]) == 2
    assert frame_mean_activity([7.25]) == 7.25
    with pytest.raises(ValueError):
        frame_mean_activity([])


def test_normalized_activity_values():
    for g in (1.0, 2.5, 100.0):
        assert normalized_activity(g, g) == 1.0
    assert normalized_activity(4, 1, 2) == pytest.approx(1.5)
    # asymptote: A -> s as g -> inf
    a = normalized_activity(1e12, 1.0, 2.0)
    assert a < 2.0 and a == pytest.approx(2.0, abs=1e-9)


def test_normalized_activity_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    s = 2.0
    for _ in range(2000):
        g1, g2 = sorted(1.0 + rng.exponential(50.0, 2))
        m = 1.0 + rng.exponential(50.0)
        a1, a2 = normalized_activity(g1, m, s), normalized_activity(g2, m, s)
        assert 1.0 / s <= a1 <= s and 1.0 / s <= a2 <= s
        assert a1 <= a2


def random_frame(rng, w=64, h=64, depth=8):
    planes = tuple(
        rng.integers(0, 1 << depth, (h, w), dtype=np.int64).astype(np.int32)
        for _ in range(3)
    )
    return Frame(w, h, depth, planes)


def test_shift_invariance_is_exact():
    rng = np.random.default_rng(9)
    grid = build_grid(64, 64, 1)
    f = random_frame(rng)
    # keep headroom so adding 7 stays in range at 8 bits
    planes = tuple(np.clip(p, 0, 248) for p in f.planes)
    f = Frame(64, 64, 8, planes)
    shifted = Frame(64, 64, 8, tuple(p + 7 for p in f.planes))
    m1 = compute_activity_map(f, grid)
    m2 = compute_activity_map(shifted, grid)
    assert np.array_equal(m1.g, m2.g)
    assert np.array_equal(m1.m, m2.m)
    assert np.array_equal(m1.a, m2.a)


@st.composite
def activity_cases(draw):
    """A random frame of any size 8..80 per side, bit depth and CB depth;
    most sizes are not CB multiples, so the edge padding is exercised."""
    w, h = draw(st.integers(8, 80)), draw(st.integers(8, 80))
    bit_depth = draw(st.sampled_from((8, 10, 12)))
    grid = build_grid(w, h, draw(st.sampled_from((0, 1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    planes = rng.integers(0, 1 << bit_depth, (3, h, w), dtype=np.int32)
    return Frame(w, h, bit_depth, planes), grid


@settings(deadline=None, max_examples=60)
@given(activity_cases())
def test_activity_map_matches_per_block_path_exactly(case):
    # the vectorized map must be arithmetic-identical to the scalar oracles
    frame, grid = case
    amap = compute_activity_map(frame, grid)
    for ch in range(3):
        padded = pad_plane(frame.planes[ch], grid)
        gs = [cb_activity(padded, cb) for cb in grid.blocks]
        m = frame_mean_activity(gs)
        assert amap.g[ch].tolist() == gs
        assert amap.m[ch] == m
        assert amap.a[ch].tolist() == [normalized_activity(g, m) for g in gs]


def test_activity_exact_at_the_12bit_extremes():
    # sub-blocks of 0 and 4,095, whose square 16,769,025 an int16 square
    # would wrap: the map must equal the int64 scalar oracles
    rng = np.random.default_rng(12)
    planes = np.zeros((3, 64, 64), dtype=np.int64)
    planes[0, ::2, 1::2] = planes[0, 1::2, ::2] = 4095  # a checkerboard
    planes[1] = 4095
    planes[2] = rng.choice([0, 4095], (64, 64))
    frame = Frame(64, 64, 12, planes)
    grid = build_grid(64, 64, 1)
    amap = compute_activity_map(frame, grid)
    for ch in range(3):
        gs = [cb_activity(planes[ch], cb) for cb in grid.blocks]
        assert amap.g[ch].tolist() == gs
        m = frame_mean_activity(gs)
        assert amap.a[ch].tolist() == [normalized_activity(g, m) for g in gs]
    assert amap.g[0].tolist() == [1.0 + 4095**2 / 4] * grid.n_blocks
