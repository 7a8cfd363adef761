import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encode_frame_by_cb
from spaqlab.codec_sim import (
    INTER_DEADZONE,
    bit_cost,
    dct2,
    dequantize,
    encode_frame,
    idct2,
    quantize,
)
from spaqlab.motion_model import estimate_motion_field, motion_field
from spaqlab.partitioner import build_grid, pad_plane
from spaqlab.qp_model import QpMap, qp_to_qstep, uniform_qp_map
from spaqlab.video_io import Frame


def naive_dct2(x):
    """O(N^4) direct orthonormal type-II DCT, independent of dct2."""
    n, m = x.shape
    out = np.zeros((n, m))
    for u in range(n):
        cu = math.sqrt(1.0 / n) if u == 0 else math.sqrt(2.0 / n)
        for v in range(m):
            cv = math.sqrt(1.0 / m) if v == 0 else math.sqrt(2.0 / m)
            s = 0.0
            for i in range(n):
                for j in range(m):
                    s += (
                        float(x[i, j])
                        * math.cos(math.pi * (2 * i + 1) * u / (2 * n))
                        * math.cos(math.pi * (2 * j + 1) * v / (2 * m))
                    )
            out[u, v] = cu * cv * s
    return out


def test_all_ones_4x4_dc():
    coeffs = dct2(np.ones((4, 4)))
    assert coeffs[0, 0] == 4.0
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.abs(ac).max() < 1e-13
    oracle = naive_dct2(np.ones((4, 4)))
    assert oracle[0, 0] == 4.0
    assert np.allclose(coeffs, oracle, atol=1e-12)


def test_all_zero_block():
    assert (dct2(np.zeros((8, 8))) == 0).all()


def test_matches_naive_oracle_on_random_blocks():
    rng = np.random.default_rng(0)
    for n in (4, 8):
        x = rng.integers(-255, 256, (n, n)).astype(np.float64)
        assert np.allclose(dct2(x), naive_dct2(x), atol=1e-8)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_round_trip_identity(n):
    rng = np.random.default_rng(n)
    x = rng.integers(-4095, 4096, (n, n)).astype(np.float64)
    assert np.abs(idct2(dct2(x)) - x).max() < 1e-9


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_parseval(n):
    rng = np.random.default_rng(100 + n)
    x = rng.normal(0, 500, (n, n))
    ex = float((x * x).sum())
    ec = float((dct2(x) ** 2).sum())
    assert abs(ec - ex) <= 1e-6 * ex


def test_quantize_rule():
    # level = sign(c) * floor(|c|/qstep + deadzone)
    assert quantize(np.array([7.9]), 8.0, 1 / 3)[0] == 1
    assert quantize(np.array([-20.0]), 8.0, 1 / 6)[0] == -2
    # qstep 1 with deadzone 1/2 is nearest-integer rounding
    rng = np.random.default_rng(1)
    c = rng.uniform(-50, 50, 100)
    got = quantize(c, 1.0, 0.5)
    want = np.sign(c) * np.floor(np.abs(c) + 0.5)
    assert np.array_equal(got, want.astype(np.int64))
    # reconstruction is level * qstep exactly
    assert np.array_equal(dequantize(got, 8.0), got.astype(np.float64) * 8.0)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize(np.zeros(1), 0.0, 0.25)
    with pytest.raises(ValueError):
        quantize(np.zeros(1), 1.0, 0.75)


def se_golomb_bits(level):
    """Signed order-0 exp-Golomb length via bit arithmetic (oracle)."""
    n = 2 * abs(level) - 1 if level > 0 else 2 * abs(level)
    return 2 * ((n + 1).bit_length() - 1) + 1


def test_bit_cost_examples():
    assert bit_cost(np.zeros((4, 4), dtype=np.int64)) == 16
    one = np.zeros((4, 4), dtype=np.int64)
    one[1, 2] = 1
    assert bit_cost(one) == 16 + 3
    one[1, 2] = -1
    assert bit_cost(one) == 16 + 3


def test_bit_cost_matches_oracle():
    levels = np.arange(-1000, 1001, dtype=np.int64)
    expect = levels.size + sum(se_golomb_bits(int(k)) for k in levels if k != 0)
    assert bit_cost(levels.reshape(1, -1)) == expect
    rng = np.random.default_rng(2)
    for _ in range(50):
        lv = rng.integers(-300000, 300001, (8, 8))
        expect = lv.size + sum(
            se_golomb_bits(int(k)) for k in lv.flatten() if k != 0
        )
        assert bit_cost(lv) == expect


def test_bit_cost_monotone_in_magnitude():
    rng = np.random.default_rng(3)
    for _ in range(100):
        lv = rng.integers(-40, 41, (4, 4))
        assert bit_cost(2 * lv) >= bit_cost(lv)


def smooth_frame(w=32, h=32, depth=8):
    x = np.arange(w)[None, :]
    y = np.arange(h)[:, None]
    g = (16 + x + 0 * y).astype(np.int32)
    b = (16 + y + 0 * x).astype(np.int32)
    r = (16 + (x + y) // 2).astype(np.int32)
    return Frame(w, h, depth, (g, b, r))


def test_near_lossless_at_qp4_on_smooth_content():
    frame = smooth_frame()
    grid = build_grid(32, 32, 1)
    qmap = uniform_qp_map(4, grid.n_blocks)
    enc = encode_frame(frame, None, qmap, grid)
    for ch in range(3):
        err = np.abs(frame.planes[ch] - enc.recon.planes[ch]).max()
        assert err <= 1


def test_all_zero_frame_minimal_cost():
    w = h = 32
    zero = Frame(w, h, 8, tuple(np.zeros((h, w), dtype=np.int32) for _ in range(3)))
    grid = build_grid(w, h, 1)
    qmap = uniform_qp_map(27, grid.n_blocks)
    # inter against an identical reference: all levels zero, only the
    # significance map is paid
    still = motion_field(np.zeros((grid.n_blocks, 2), dtype=np.int64))
    enc = encode_frame(zero, zero, qmap, grid, still)
    assert enc.bits == 3 * w * h
    assert enc.sse == (0, 0, 0)


def test_static_sequence_inter_cheaper_than_intra():
    rng = np.random.default_rng(4)
    planes = tuple(
        rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
        for _ in range(3)
    )
    frame = Frame(64, 64, 8, planes)
    grid = build_grid(64, 64, 1)
    qmap = uniform_qp_map(27, grid.n_blocks)
    intra = encode_frame(frame, None, qmap, grid)
    still = motion_field(np.zeros((grid.n_blocks, 2), dtype=np.int64))
    inter = encode_frame(frame, intra.recon, qmap, grid, still)
    assert inter.bits < intra.bits


def test_rate_nonincreasing_when_qp_raised_by_6():
    rng = np.random.default_rng(5)
    planes = tuple(
        rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
        for _ in range(3)
    )
    frame = Frame(64, 64, 8, planes)
    grid = build_grid(64, 64, 1)
    for qp in (10, 22, 28, 34):
        lo = encode_frame(frame, None, uniform_qp_map(qp, grid.n_blocks), grid)
        hi = encode_frame(frame, None, uniform_qp_map(qp + 6, grid.n_blocks), grid)
        assert hi.bits <= lo.bits


def test_distortion_statistically_increases_with_qp():
    # over >= 20 random frames, block SSE at QP+6 >= block SSE at QP in
    # at least 95% of blocks
    rng = np.random.default_rng(6)
    grid = build_grid(64, 64, 2)
    worse = total = 0
    for _ in range(20):
        planes = tuple(
            rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
            for _ in range(3)
        )
        frame = Frame(64, 64, 8, planes)
        lo = encode_frame(frame, None, uniform_qp_map(22, grid.n_blocks), grid)
        hi = encode_frame(frame, None, uniform_qp_map(28, grid.n_blocks), grid)
        for ch in range(3):
            dlo = (frame.planes[ch] - lo.recon.planes[ch]).astype(np.int64)
            dhi = (frame.planes[ch] - hi.recon.planes[ch]).astype(np.int64)
            for blk in grid.blocks:
                s = np.s_[blk.y: blk.y + blk.size, blk.x: blk.x + blk.size]
                total += 1
                if (dhi[s] ** 2).sum() >= (dlo[s] ** 2).sum():
                    worse += 1
    assert worse / total >= 0.95


def test_qp_map_grid_mismatch_rejected():
    frame = smooth_frame()
    grid = build_grid(32, 32, 1)
    qmap = uniform_qp_map(27, grid.n_blocks + 1)
    with pytest.raises(ValueError):
        encode_frame(frame, None, qmap, grid)


def test_inter_frame_needs_matching_motion_field():
    frame = smooth_frame(64, 64)
    grid = build_grid(64, 64, 1)
    qmap = uniform_qp_map(27, grid.n_blocks)
    with pytest.raises(ValueError, match="needs a motion field"):
        encode_frame(frame, frame, qmap, grid)
    with pytest.raises(ValueError, match="needs a motion field"):
        encode_frame(frame, frame, qmap, grid,
                     motion_field([(0, 0)] * (grid.n_blocks - 1)))
    with pytest.raises(ValueError, match="leaves the reference"):
        encode_frame(frame, frame, qmap, grid,
                     motion_field([(1, 0)] * grid.n_blocks))
    # 90x60 pads to a 3x2 grid of 32x32 CBs (96x64). CB 2 at (64, 0)
    # leaves by the bottom edge and CB 3 at (0, 32), on an earlier
    # anti-diagonal, by the left edge: the raster-first vector is named.
    padded = smooth_frame(90, 60)
    grid = build_grid(90, 60, 1)
    qmap = uniform_qp_map(27, grid.n_blocks)
    leaving = [(0, 0), (0, 0), (0, -33), (1, 0), (0, 0), (0, 0)]
    with pytest.raises(ValueError,
                       match=r"^motion vector \(0, -33\) leaves the reference$"):
        encode_frame(padded, padded, qmap, grid, motion_field(leaving))
    # vectors whose blocks end exactly on the padded edges are accepted
    on_edge = [(-64, -32), (0, -32), (0, -32), (0, 0), (32, 32), (64, 0)]
    enc = encode_frame(padded, padded, qmap, grid, motion_field(on_edge))
    assert enc.recon.planes.shape == padded.planes.shape


def test_partial_frame_encodes_and_crops():
    rng = np.random.default_rng(7)
    planes = tuple(
        rng.integers(0, 1024, (37, 53), dtype=np.int64).astype(np.int32)
        for _ in range(3)
    )
    frame = Frame(53, 37, 10, planes)
    grid = build_grid(53, 37, 2)
    qmap = uniform_qp_map(22, grid.n_blocks)
    enc = encode_frame(frame, None, qmap, grid)
    assert enc.recon.width == 53 and enc.recon.height == 37
    for p in enc.recon.planes:
        assert p.max() <= 1023 and p.min() >= 0


def test_stacked_blocks_match_block_by_block():
    # the leading axis of a (3, S, S) stack gives, bit for bit, what each
    # (S, S) block gives on its own
    rng = np.random.default_rng(8)
    qsteps = np.array([0.8, 11.3, 57.0])
    for n in (4, 16, 32, 64):
        x = rng.integers(-4095, 4096, (3, n, n))
        coeffs = dct2(x)
        levels = quantize(coeffs, qsteps[:, None, None], INTER_DEADZONE)
        rec = idct2(dequantize(levels, qsteps[:, None, None]))
        bits = bit_cost(levels)
        assert bits.shape == (3,)
        for ch in range(3):
            assert np.array_equal(coeffs[ch], dct2(x[ch]))
            assert np.array_equal(
                levels[ch], quantize(coeffs[ch], qsteps[ch], INTER_DEADZONE))
            assert np.array_equal(
                rec[ch], idct2(dequantize(levels[ch], qsteps[ch])))
            assert bits[ch] == bit_cost(levels[ch])
    with pytest.raises(ValueError):
        quantize(np.zeros((3, 1, 1)), np.array([1.0, 0.0, 1.0])[:, None, None],
                 0.25)


@st.composite
def coding_cases(draw):
    w, h = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    bit_depth = draw(st.sampled_from((8, 10, 12)))
    grid = build_grid(w, h, draw(st.sampled_from((0, 1, 2))))
    qps = draw(st.tuples(*[st.integers(0, 51)] * 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [Frame(w, h, bit_depth,
                    rng.integers(0, 1 << bit_depth, (3, h, w), dtype=np.int32))
              for _ in range(2)]
    return frames, grid, qps


def channel_qp_map(qps, n_blocks):
    """Flat map whose G, B and R channels sit at the three QPs qps."""
    zeros = np.zeros((3, n_blocks))
    qp = zeros + np.array(qps, float)[:, None]
    qstep = zeros + np.array([qp_to_qstep(q) for q in qps])[:, None]
    return QpMap(qps[0], zeros.astype(np.int64), zeros, zeros, qp, qstep)


def check_encoded(frame, enc):
    recon = enc.recon.planes
    assert recon.shape == frame.planes.shape
    assert recon.min() >= 0 and recon.max() <= (1 << frame.bit_depth) - 1
    diff = (frame.planes - recon).astype(np.int64)
    assert enc.sse == tuple(int((d * d).sum()) for d in diff)
    assert enc.bits == sum(enc.channel_bits)


@settings(deadline=None, max_examples=40)
@given(coding_cases())
def test_encode_frame_invariants_property(case):
    (first, second), grid, qps = case
    qmap = channel_qp_map(qps, grid.n_blocks)
    intra = encode_frame(first, None, qmap, grid)
    check_encoded(first, intra)
    field = estimate_motion_field(pad_plane(second.planes[0], grid),
                                  pad_plane(intra.recon.planes[0], grid),
                                  grid, 4)
    check_encoded(second, encode_frame(second, intra.recon, qmap, grid, field))


@st.composite
def raster_cases(draw):
    w, h = draw(st.integers(8, 100)), draw(st.integers(8, 100))
    bit_depth = draw(st.sampled_from((8, 10, 12)))
    grid = build_grid(w, h, draw(st.sampled_from((0, 1, 2))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = [Frame(w, h, bit_depth,
                    rng.integers(0, 1 << bit_depth, (3, h, w), dtype=np.int32))
              for _ in range(2)]
    qp = rng.integers(0, 52, (3, grid.n_blocks))
    zeros = np.zeros(qp.shape)
    qstep = np.vectorize(qp_to_qstep)(qp)
    qmap = QpMap(int(qp[0, 0]), zeros.astype(np.int64), zeros, zeros,
                 qp.astype(np.float64), qstep)
    # every in-range vector per CB: a reference corner from 0 to the last
    # one whose block ends on the padded edge, each edge drawn often
    size = grid.cb_size
    corner = np.indices((grid.rows, grid.cols)).reshape(2, -1) * size
    last = np.array([[grid.padded_height - size], [grid.padded_width - size]])
    pick = rng.integers(0, 3, corner.shape)
    ref_corner = np.where(pick == 0, 0, np.where(
        pick == 1, last, rng.integers(0, last + 1, corner.shape)))
    vectors = (corner - ref_corner)[::-1].T  # (n, 2) as (dx, dy)
    return frames, grid, qmap, motion_field(vectors)


def assert_same_encoding(got, want):
    assert np.array_equal(got.recon.planes, want.recon.planes)
    assert got.channel_bits == want.channel_bits
    assert got.bits == want.bits
    assert got.sse == want.sse


@settings(deadline=None, max_examples=60)
@given(raster_cases())
def test_diagonal_stacks_match_raster_oracle(case):
    # single-row and single-column grids, padded edges, a QP per
    # (channel, CB) and vectors reaching the padded edges
    (first, second), grid, qmap, field = case
    intra = encode_frame(first, None, qmap, grid)
    assert_same_encoding(intra, encode_frame_by_cb(first, None, qmap, grid))
    inter = encode_frame(second, intra.recon, qmap, grid, field)
    assert_same_encoding(
        inter, encode_frame_by_cb(second, intra.recon, qmap, grid, field))
