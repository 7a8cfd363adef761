import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from oracles import temporal_offset_br, temporal_offset_g
from spaqlab import motion_model
from spaqlab.experiment import gen_synthetic
from spaqlab.motion_model import block_match, estimate_motion_field, motion_field
from spaqlab.partitioner import BlockRef, build_grid, pad_plane
from spaqlab.video_io import G


def brute_force_match(cur, ref, pu, search_range):
    """Independent exhaustive argmin with the documented tie-break."""
    h, w = ref.shape
    bh = bw = pu.size
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
                best = (key, (mvx, mvy))
    return best[1]


def test_identical_planes_give_zero_vector():
    rng = np.random.default_rng(0)
    plane = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
    assert block_match(plane, plane, [BlockRef(8, 8, 8)], 4) == [(0, 0)]


def test_planted_right_shift_recovered():
    # content moves right by 2: cur[y, x] = ref[y, x-2]
    rng = np.random.default_rng(1)
    ref = rng.integers(0, 256, (32, 48), dtype=np.int64).astype(np.int32)
    cur = np.empty_like(ref)
    cur[:, 2:] = ref[:, :-2]
    cur[:, :2] = ref[:, :2]
    assert block_match(cur, ref, [BlockRef(16, 8, 16)], 4) == [(2, 0)]


def test_constant_planes_tie_break_to_zero():
    plane = np.full((32, 32), 5, dtype=np.int32)
    assert block_match(plane, plane, [BlockRef(8, 8, 16)], 4) == [(0, 0)]


def test_equal_magnitude_ties_prefer_smaller_y_then_x():
    # cur is ref inverted: every odd-parity displacement matches exactly,
    # the zero vector does not
    checker = np.indices((32, 32)).sum(axis=0) % 2
    pu = BlockRef(8, 8, 8)
    assert block_match(1 - checker, checker, [pu], 2) == [(0, -1)]
    stripes = np.indices((32, 32))[1] % 2
    assert block_match(1 - stripes, stripes, [pu], 2) == [(-1, 0)]


def test_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        h, w = 24, 24
        ref = rng.integers(0, 64, (h, w), dtype=np.int64).astype(np.int32)
        cur = rng.integers(0, 64, (h, w), dtype=np.int64).astype(np.int32)
        x = int(rng.integers(0, w - 8 + 1))
        y = int(rng.integers(0, h - 8 + 1))
        pu = BlockRef(x - x % 2, y - y % 2, 8)
        r = int(rng.integers(0, 5))
        assert block_match(cur, ref, [pu], r) == [
            brute_force_match(cur, ref, pu, r)]


def test_result_sad_never_beats_zero_vector():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ref = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
        cur = rng.integers(0, 256, (32, 32), dtype=np.int64).astype(np.int32)
        pu = BlockRef(8, 8, 16)
        (mvx, mvy), = block_match(cur, ref, [pu], 6)
        blk = cur[8:24, 8:24].astype(np.int64)

        def sad_at(vx, vy):
            return int(np.abs(
                ref[8 - vy: 24 - vy, 8 - vx: 24 - vx].astype(np.int64) - blk
            ).sum())

        assert sad_at(mvx, mvy) <= sad_at(0, 0)


def test_mv_magnitudes():
    mags = motion_field([(0, 0), (3, 4), (-2, 1)]).magnitudes
    assert mags[0] == 0.0
    assert mags[1] == 5.0
    assert mags[2] == pytest.approx(math.sqrt(5))


def test_frame_mean_magnitude():
    vectors = [(0, 0), (3, 4), (6, 8), (5, 0)]  # magnitudes 0, 5, 10, 5
    field = motion_field(vectors)
    assert field.mean_magnitude == 5.0
    assert field.vectors.shape == (4, 2) and field.vectors.dtype == np.int64
    assert field.vectors.tolist() == [list(v) for v in vectors]
    assert motion_field([(7, 0)]).mean_magnitude == 7.0
    assert motion_field([(0, 0)] * 3).mean_magnitude == 0.0
    with pytest.raises(ValueError):
        motion_field([])


def test_mean_magnitude_matches_naive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        comps = rng.integers(-16, 17, (n, 2))
        oracle = sum(math.sqrt(float(x * x + y * y)) for x, y in comps) / n
        assert motion_field(comps).mean_magnitude == pytest.approx(
            oracle, abs=1e-9)


def test_temporal_offsets():
    assert temporal_offset_g(6, 5) == 3.0
    assert temporal_offset_br(6, 5) == 6.0
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
    assert (field.vectors == 0).all()
    assert field.mean_magnitude == 0.0
    for m in field.magnitudes:
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
    field = estimate_motion_field(cur, ref, grid, 4)
    assert len(field.vectors) == grid.n_blocks == 4
    assert field.mean_magnitude == pytest.approx(
        sum(field.magnitudes) / len(field.vectors), abs=1e-9
    )


def test_shared_fields_search_each_input_once(searched):
    rng = np.random.default_rng(8)
    ref = rng.integers(0, 256, (64, 64), dtype=np.int64).astype(np.int32)
    cur = np.roll(ref, (3, -2), axis=(0, 1))
    grid = build_grid(64, 64, 1)
    fresh = estimate_motion_field(cur, ref, grid, 4)
    searched.clear()

    fields = {}
    first = estimate_motion_field(cur, ref, grid, 4, fields)
    assert first.vectors.tolist() == fresh.vectors.tolist()
    assert first.magnitudes.tolist() == fresh.magnitudes.tolist()
    assert first.mean_magnitude == fresh.mean_magnitude
    assert len(searched) == grid.n_blocks and len(fields) == 1
    # the dict stands for one pair of planes: a call with the same grid and
    # range is a hit whatever planes it is given, and searches nothing
    assert estimate_motion_field(ref, cur, grid, 4, fields) is first
    assert estimate_motion_field(np.zeros_like(cur), ref, grid, 4,
                                 fields) is first
    assert len(searched) == grid.n_blocks

    # another search range or grid geometry is a miss, stored beside it
    small = build_grid(64, 64, 2)
    misses = ((grid, 2), (small, 4))
    stored = []
    for args in misses:
        searched.clear()
        stored.append(estimate_motion_field(cur, ref, *args, fields))
        assert stored[-1] is not first
        assert len(searched) == args[0].n_blocks
    assert len(fields) == 3
    searched.clear()
    for args, field in zip(((grid, 4), *misses), (first, *stored)):
        assert estimate_motion_field(cur, ref, *args, fields) is field
    assert not searched

    # a fresh dict searches again
    searched.clear()
    again = estimate_motion_field(cur, ref, grid, 4, {})
    assert again is not first and len(searched) == grid.n_blocks
    assert again.vectors.tolist() == first.vectors.tolist()


def test_mismatched_planes_rejected():
    a = np.zeros((16, 16), dtype=np.int32)
    b = np.zeros((16, 8), dtype=np.int32)
    with pytest.raises(ValueError):
        block_match(a, b, [BlockRef(0, 0, 8)], 2)
    with pytest.raises(ValueError):
        block_match(a, a, [BlockRef(0, 0, 8)], -1)


def test_pu_leaving_the_plane_rejected():
    plane = np.zeros((16, 16), dtype=np.int32)
    for pu in (BlockRef(8, 0, 16), BlockRef(0, 8, 16),
               BlockRef(16, 0, 2), BlockRef(-2, 0, 8)):
        with pytest.raises(ValueError, match="leaves the 16x16 plane"):
            block_match(plane, plane, [pu], 2)
        # one PU outside the plane rejects its whole group
        with pytest.raises(ValueError, match="leaves the 16x16 plane"):
            block_match(plane, plane, [BlockRef(0, 0, pu.size), pu], 2)
    assert block_match(plane, plane, [BlockRef(8, 8, 8)], 2) == [(0, 0)]


def test_group_of_mixed_sizes_or_no_pus_rejected():
    plane = np.zeros((32, 32), dtype=np.int32)
    for pus in ([BlockRef(0, 0, 8), BlockRef(8, 0, 16)], []):
        with pytest.raises(ValueError, match="all of one size"):
            block_match(plane, plane, pus, 2)


def assert_field_is_single_pu_searches(cur, ref, grid, search_range):
    field = estimate_motion_field(cur, ref, grid, search_range)
    assert field.vectors.tolist() == [
        list(block_match(cur, ref, [pu], search_range)[0])
        for pu in grid.blocks]


def test_grouped_field_matches_single_pu_searches(searched, monkeypatch):
    # range 64 puts at most 2**20 // 129**2 = 63 PUs in a group, so this
    # 64-PU grid is searched as two groups, with one window-sum pass over
    # each plane per group
    seq = gen_synthetic("mixed", 128, 128, 2, 8, seed=3)
    grid = build_grid(128, 128, 2)
    cur, ref = (f.planes[G] for f in reversed(seq.frames))
    passes = []
    real_window_sums = motion_model.window_sums
    monkeypatch.setattr(motion_model, "window_sums", lambda x, *a: (
        passes.append(x.shape) or real_window_sums(x, *a)))
    estimate_motion_field(cur, ref, grid, 64)
    assert len(searched) == grid.n_blocks == 64
    assert len(passes) == 4
    assert_field_is_single_pu_searches(cur, ref, grid, 64)


def test_grouped_field_matches_single_pu_searches_at_540p():
    seq = gen_synthetic("moving-texture", 960, 540, 2, 10, seed=0)
    grid = build_grid(960, 540, 1)
    cur, ref = (pad_plane(f.planes[G], grid) for f in reversed(seq.frames))
    assert_field_is_single_pu_searches(cur, ref, grid, 16)


@st.composite
def padded_plane_pairs(draw):
    """Random (cur, ref, grid) with planes edge-padded to the grid, as
    run_cell feeds them; few sample levels so SAD ties are common."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    grid = build_grid(w, h, draw(st.sampled_from((1, 2))))
    cur, ref = (draw(arrays(np.int32, (h, w), elements=st.integers(0, 3)))
                for _ in range(2))
    return pad_plane(cur, grid), pad_plane(ref, grid), grid


@settings(deadline=None, max_examples=60)
@given(padded_plane_pairs(), st.integers(0, 5))
def test_field_matches_exhaustive_oracle_property(planes, search_range):
    cur, ref, grid = planes
    for r in {0, search_range}:
        field = estimate_motion_field(cur, ref, grid, r)
        assert field.vectors.shape == (grid.n_blocks, 2)
        assert field.vectors.tolist() == [
            list(brute_force_match(cur, ref, pu, r)) for pu in grid.blocks
        ]


@settings(deadline=None, max_examples=40)
@given(padded_plane_pairs(), st.integers(1, 40))
def test_search_range_past_the_plane_changes_nothing_property(planes, extra):
    # no displacement past max(h, w) - n keeps a block in the plane, so a
    # longer range gives the same vectors and its work stops growing there
    cur, ref, grid = planes
    r = max(cur.shape) - grid.cb_size
    want = estimate_motion_field(cur, ref, grid, r).vectors.tolist()
    with mock.patch.object(motion_model, "_quadrant_bounds",
                           wraps=motion_model._quadrant_bounds) as bounds:
        got = estimate_motion_field(cur, ref, grid, r + extra).vectors.tolist()
    assert got == want
    assert {call.args[5] for call in bounds.call_args_list} == {r}


def candidates(cur, ref, pu, search_range):
    """{(dy, dx): (quadrant bound, SAD)} of every in-plane candidate, in
    raster order, each from np.sum over slices of the two planes."""
    h, w = ref.shape
    n, half = pu.size, pu.size // 2
    blk = cur[pu.y: pu.y + n, pu.x: pu.x + n].astype(np.int64)
    corners = [(y0, x0) for y0 in (0, n - half) for x0 in (0, n - half)]
    out = {}
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            ry, rx = pu.y + dy, pu.x + dx
            if ry < 0 or rx < 0 or ry + n > h or rx + n > w:
                continue
            cand = ref[ry: ry + n, rx: rx + n].astype(np.int64)
            bound = sum(
                abs(int(np.sum(blk[y0: y0 + half, x0: x0 + half]))
                    - int(np.sum(cand[y0: y0 + half, x0: x0 + half])))
                for y0, x0 in corners)
            out[dy, dx] = bound, int(np.abs(cand - blk).sum())
    return out


@st.composite
def random_pu(draw, h, w, n=None):
    """A PU of size n, or of a power-of-two size, inside an h x w plane,
    edges likely."""
    if n is None:
        n = draw(st.sampled_from([s for s in (2, 4, 8, 16) if s <= min(h, w)]))
    x, y = (draw(st.one_of(st.just(0), st.just(hi), st.integers(0, hi)))
            for hi in (w - n, h - n))
    return BlockRef(x, y, n)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from((8, 10, 12)), st.integers(0, 6))
def test_quadrant_bound_never_exceeds_sad_property(data, depth, search_range):
    h, w = data.draw(st.integers(2, 24)), data.draw(st.integers(2, 24))
    cur, ref = (data.draw(arrays(np.int32, (h, w),
                                 elements=st.integers(0, (1 << depth) - 1)))
                for _ in range(2))
    pu = data.draw(random_pu(h, w))
    n = pu.size
    group = [pu] + data.draw(st.lists(random_pu(h, w, n), max_size=3))
    ys, xs = np.array([(p.y, p.x) for p in group]).T
    for r in {0, search_range}:
        got = motion_model._quadrant_bounds(
            cur.astype(np.int16), ref.astype(np.int16), ys, xs, n, r)
        assert got.shape == (len(group), 2 * r + 1, 2 * r + 1)
        for p, got_p in zip(group, got):
            cands = candidates(cur, ref, p, r)
            assert all(bound <= sad for bound, sad in cands.values())
            # the in-plane bounds, laid out by displacement
            (dy_lo, dx_lo), (dy_hi, dx_hi) = min(cands), max(cands)
            bounds = [[cands[dy, dx][0] for dx in range(dx_lo, dx_hi + 1)]
                      for dy in range(dy_lo, dy_hi + 1)]
            assert got_p[r + dy_lo: r + dy_hi + 1,
                         r + dx_lo: r + dx_hi + 1].tolist() == bounds


@st.composite
def ramp_patch_planes(draw):
    """(cur, ref, grid), edge-padded to the grid: a ramp with a brightness
    offset per plane, a textured patch that moves between ref and cur, and
    small noise, so the quadrant bound rules out most candidates."""
    depth = draw(st.sampled_from((1, 2)))
    w, h = (draw(st.integers((64 >> depth) + 1, 64)) for _ in range(2))
    grid = build_grid(w, h, depth)
    unit = 1 << (draw(st.sampled_from((8, 10, 12))) - 8)
    peak = 256 * unit - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    yy, xx = np.mgrid[:h, :w]
    ramp = unit * (draw(st.integers(0, 4)) * yy + draw(st.integers(0, 4)) * xx)
    size = draw(st.integers(4, 16))
    texture = rng.integers(0, 128 * unit, (size, size))
    planes = []
    for _ in range(2):
        y, x = draw(st.integers(0, h - size)), draw(st.integers(0, w - size))
        plane = ramp + draw(st.integers(0, 8)) * unit
        plane[y: y + size, x: x + size] += texture
        noise = draw(st.integers(0, 2)) * unit
        plane += rng.integers(-noise, noise + 1, (h, w))
        plane = np.clip(plane, 0, peak).astype(np.int32)
        planes.append(pad_plane(plane, grid))
    return planes[0], planes[1], grid


@settings(deadline=None, max_examples=100)
@given(ramp_patch_planes(), st.integers(0, 16))
def test_field_matches_exhaustive_oracle_on_prunable_content(planes,
                                                             search_range):
    cur, ref, grid = planes
    field = estimate_motion_field(cur, ref, grid, search_range)
    assert field.vectors.tolist() == [
        list(brute_force_match(cur, ref, pu, search_range))
        for pu in grid.blocks
    ]


@settings(deadline=None, max_examples=50)
@given(ramp_patch_planes(), st.integers(0, 8))
def test_full_sads_only_for_candidates_within_the_upper_bound(planes,
                                                              search_range):
    # each full SAD is keyed by the int16 samples of its block and window,
    # so the check holds however the search batches its SAD calls
    cur, ref, grid = planes
    n = grid.cb_size
    evaluated = set()
    real = motion_model._sads

    def spy(windows, blocks, at=None):
        if at is None:
            pairs = ((blocks, w) for w in windows.reshape(-1, n, n))
        else:
            i, y, x = at
            pairs = zip(blocks[i], windows[y, x])
        evaluated.update((b.tobytes(), w.tobytes()) for b, w in pairs)
        return real(windows, blocks, at)

    with mock.patch.object(motion_model, "_sads", spy):
        estimate_motion_field(cur, ref, grid, search_range)
    expected = set()
    for pu in grid.blocks:
        cands = candidates(cur, ref, pu, search_range)
        lowest = min(cands, key=lambda d: cands[d][0])  # first in raster order
        upper = min(cands[0, 0][1], cands[lowest][1])
        survivors = {d for d, (bound, _) in cands.items() if bound <= upper}
        # the zero vector and the lowest-bound candidate set the upper
        # bound; if more than half the candidates survive, all get a SAD
        full = (cands if 2 * len(survivors) > len(cands)
                else survivors | {(0, 0), lowest})
        block = cur[pu.y: pu.y + n, pu.x: pu.x + n].astype(np.int16).tobytes()
        expected |= {(block, ref[pu.y + dy: pu.y + dy + n, pu.x + dx:
                                 pu.x + dx + n].astype(np.int16).tobytes())
                     for dy, dx in full}
    assert evaluated == expected


def test_sads_exact_at_the_int32_limit():
    # 64 * 64 * 4095 = 16,773,120, on both sides of the subtraction and in
    # both call forms; the sliced stack spans several SAD_PASS passes
    zero, peak = np.zeros((64, 64), np.int16), np.full((64, 64), 4095, np.int16)
    for block, fill in ((zero, 4095), (peak, 0)):
        windows = sliding_window_view(
            np.full((66, 128), fill, np.int16), (64, 64))
        assert windows[..., 0, 0].size * 64 * 64 > 2 * motion_model.SAD_PASS
        sads = motion_model._sads(windows, block)
        assert sads.dtype == np.int32 and sads.shape == (3, 65)
        assert (sads == 16_773_120).all()
        at = (np.zeros(5, np.int64), np.arange(5) % 3, np.arange(5) * 13)
        assert motion_model._sads(windows, block[None], at).tolist() == [
            16_773_120] * 5


@pytest.mark.parametrize("n", [4, 16, 32, 64])
def test_sads_equal_int64_sums_over_partial_passes(n):
    # 16 windows a row, so a sliced pass takes two or more whole rows, and
    # the last pass takes fewer
    rng = np.random.default_rng(n)
    per_pass = motion_model.SAD_PASS // (16 * n * n)
    assert per_pass >= 2
    ref = rng.integers(0, 4096, (n + 2 * per_pass, n + 15)).astype(np.int16)
    blocks = rng.integers(0, 4096, (3, n, n)).astype(np.int16)
    windows = sliding_window_view(ref, (n, n))
    want = np.abs(windows[None].astype(np.int64)
                  - blocks[:, None, None].astype(np.int64)).sum((-2, -1))
    rows, cols = windows.shape[:2]
    for b in range(3):
        assert (motion_model._sads(windows, blocks[b]) == want[b]).all()
    # a gathered count that is no multiple of the pass size
    count = motion_model.SAD_PASS // (n * n) * 2 + 7
    at = (rng.integers(0, 3, count), rng.integers(0, rows, count),
          rng.integers(0, cols, count))
    assert motion_model._sads(windows, blocks, at).tolist() == want[at].tolist()


@st.composite
def twelve_bit_64px_planes(draw):
    """(cur, ref, grid) at cb_depth 0, edge-padded to the grid: full-range
    12-bit noise, which searches densely, or a ramp with a moved patch."""
    w, h = draw(st.integers(8, 140)), draw(st.integers(8, 140))
    grid = build_grid(w, h, 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        planes = rng.integers(0, 4096, (2, h, w))
    else:
        yy, xx = np.mgrid[:h, :w]
        planes = np.stack([16 * (yy + xx) % 4096] * 2)
        size = draw(st.integers(4, min(h, w)))
        texture = rng.integers(0, 4096, (size, size))
        for plane in planes:
            y, x = rng.integers(0, h - size + 1), rng.integers(0, w - size + 1)
            plane[y: y + size, x: x + size] = texture
    return (*(pad_plane(p.astype(np.int32), grid) for p in planes), grid)


@settings(deadline=None, max_examples=25)
@given(twelve_bit_64px_planes(), st.integers(0, 6))
def test_64px_field_matches_exhaustive_oracle_at_12_bits(planes,
                                                         search_range):
    cur, ref, grid = planes
    assert grid.cb_size == 64
    field = estimate_motion_field(cur, ref, grid, search_range)
    assert field.vectors.tolist() == [
        list(brute_force_match(cur, ref, pu, search_range))
        for pu in grid.blocks
    ]


vector_lists = st.lists(
    st.tuples(st.integers(-600, 600), st.integers(-600, 600)),
    min_size=1, max_size=40,
)


# np.hypot differs from math.hypot in the last ulp on these vectors
@given(vector_lists)
@example([(-91, -98), (43, -98), (576, 600)])
def test_magnitudes_equal_hypot_property(vectors):
    mags = motion_field(vectors).magnitudes
    assert mags.dtype == np.float64
    assert mags.tolist() == [math.hypot(x, y) for x, y in vectors]


@given(vector_lists)
def test_mean_magnitude_is_sequential_sum_property(vectors):
    total = 0.0
    for x, y in vectors:
        total += math.hypot(x, y)
    assert motion_field(vectors).mean_magnitude == total / len(vectors)
