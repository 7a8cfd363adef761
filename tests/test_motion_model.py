import math

import numpy as np
import pytest

from spaqlab.motion_model import (
    MotionField,
    MotionVector,
    block_match,
    estimate_motion_field,
    frame_mean_magnitude,
    mv_magnitude,
    temporal_offset_br,
    temporal_offset_g,
)
from spaqlab.partitioner import BlockRef, build_grid


def brute_force_match(cur, ref, pu, search_range):
    """Independent exhaustive argmin with the documented tie-break."""
    h, w = ref.shape
    bh = min(pu.size, h - pu.y)
    bw = min(pu.size, w - pu.x)
    blk = cur[pu.y: pu.y + bh, pu.x: pu.x + bw].astype(np.int64)
    best = None
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            ry, rx = pu.y + dy, pu.x + dx
            if ry < 0 or rx < 0 or ry + bh > h or rx + bw > w:
                continue
            sad = int(np.abs(ref[ry: ry + bh, rx: rx + bw].astype(np.int64)
                             - blk).sum())
            mvx, mvy = -dx, -dy
            key = (sad, mvx * mvx + mvy * mvy, mvy, mvx)
            if best is None or key < best[0]:
                best = (key, MotionVector(mvx, mvy))
    return best[1]


def test_identical_planes_give_zero_vector():
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
    assert block_match(plane, plane, BlockRef(8, 8, 8, 2), 4) == MotionVector(0, 0)


def test_planted_right_shift_recovered():
    # content moves right by 2: cur[y, x] = ref[y, x-2]
    rng = np.random.default_rng(1)
    ref = rng.integers(0, 256, (32, 48), dtype=np.int64).astype(np.int32)
    cur = np.empty_like(ref)
    cur[:, 2:] = ref[:, :-2]
    cur[:, :2] = ref[:, :2]
    mv = block_match(cur, ref, BlockRef(16, 8, 16, 2), 4)
    assert mv == MotionVector(2, 0)


def test_constant_planes_tie_break_to_zero():
    plane = np.full((32, 32), 5, dtype=np.int32)
    assert block_match(plane, plane, BlockRef(8, 8, 16, 2), 4) == MotionVector(0, 0)


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h, w = 24, 24
        ref = rng.integers(0, 64, (h, w), dtype=np.int64).astype(np.int32)
        cur = rng.integers(0, 64, (h, w), dtype=np.int64).astype(np.int32)
        x = int(rng.integers(0, w - 8 + 1))
        y = int(rng.integers(0, h - 8 + 1))
        pu = BlockRef(x - x % 2, y - y % 2, 8, 2)
        r = int(rng.integers(0, 5))
        assert block_match(cur, ref, pu, r) == brute_force_match(cur, ref, pu, r)


def test_result_sad_never_beats_zero_vector():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ref = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
        cur = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
        pu = BlockRef(8, 8, 16, 2)
        mv = block_match(cur, ref, pu, 6)
        blk = cur[8:24, 8:24].astype(np.int64)

        def sad_at(vx, vy):
            return int(np.abs(
                ref[8 - vy: 24 - vy, 8 - vx: 24 - vx].astype(np.int64) - blk
            ).sum())

        assert sad_at(mv.x, mv.y) <= sad_at(0, 0)


def test_mv_magnitudes():
    assert mv_magnitude(MotionVector(0, 0)) == 0.0
    assert mv_magnitude(MotionVector(3, 4)) == 5.0
    assert mv_magnitude(MotionVector(-2, 1)) == pytest.approx(math.sqrt(5))


def test_frame_mean_magnitude():
    vectors = (
        MotionVector(0, 0),
        MotionVector(3, 4),
        MotionVector(6, 8),
        MotionVector(5, 0),
    )  # magnitudes 0, 5, 10, 5
    assert frame_mean_magnitude(vectors) == 5.0
    field = MotionField(0, vectors, frame_mean_magnitude(vectors))
    assert frame_mean_magnitude(field) == 5.0
    assert frame_mean_magnitude([MotionVector(7, 0)]) == 7.0
    assert frame_mean_magnitude([MotionVector(0, 0)] * 3) == 0.0
    with pytest.raises(ValueError):
        frame_mean_magnitude([])


def test_mean_magnitude_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        comps = rng.integers(-16, 17, (n, 2))
        vectors = [MotionVector(int(x), int(y)) for x, y in comps]
        oracle = sum(math.sqrt(float(x * x + y * y)) for x, y in comps) / n
        assert frame_mean_magnitude(vectors) == pytest.approx(oracle, abs=1e-9)


def test_temporal_offsets():
    assert temporal_offset_g(6, 5, 6) == 3.0
    assert temporal_offset_br(6, 5, 6) == 6.0
    assert temporal_offset_g(5, 5) == 0.0
    assert temporal_offset_br(0, 0) == 0.0
    # strict comparison: any positive excess triggers
    assert temporal_offset_br(5 + 1e-6, 5) == 6.0
    assert temporal_offset_g(5 + 1e-6, 5) == 3.0


def test_static_sequence_yields_zero_offsets():
    rng = np.random.default_rng(5)
    plane = rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
    grid = build_grid(64, 64, 2)
    field = estimate_motion_field(plane, plane.copy(), grid, 8)
    assert all(v == MotionVector(0, 0) for v in field.vectors)
    assert field.mean_magnitude == 0.0
    for m in field.magnitudes():
        assert temporal_offset_g(m, field.mean_magnitude) == 0.0
        assert temporal_offset_br(m, field.mean_magnitude) == 0.0


def test_high_motion_set_empty_iff_all_equal():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        mags = [float(m) for m in rng.integers(0, 5, n)]
        v = sum(mags) / n
        high = [m for m in mags if m > v]
        assert (len(high) == 0) == (len(set(mags)) == 1)


def test_field_mean_recomputable():
    rng = np.random.default_rng(7)
    ref = rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
    cur = np.roll(ref, (2, 1), axis=(0, 1))
    grid = build_grid(64, 64, 1)
    field = estimate_motion_field(cur, ref, grid, 4, frame_index=3)
    assert len(field.vectors) == grid.n_blocks == 4
    assert field.mean_magnitude == pytest.approx(
        sum(field.magnitudes()) / len(field.vectors), abs=1e-9
    )


def test_mismatched_planes_rejected():
    a = np.zeros((16, 16), dtype=np.int32)
    b = np.zeros((16, 8), dtype=np.int32)
    with pytest.raises(ValueError):
        block_match(a, b, BlockRef(0, 0, 8, 2), 2)
    with pytest.raises(ValueError):
        block_match(a, a, BlockRef(0, 0, 8, 2), -1)
