import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import sub_blocks
from spaqlab.partitioner import (CB_SIZE_BY_DEPTH, BlockRef, build_grid,
                                 pad_plane, window_sums)


def test_depth0_single_block():
    grid = build_grid(64, 64, 0)
    assert grid.n_blocks == 1
    assert grid.blocks[0] == BlockRef(0, 0, 64)


def test_depth1_tiling_counts():
    grid = build_grid(128, 64, 1)
    assert grid.n_blocks == 8
    assert grid.cols == 4 and grid.rows == 2
    assert all(b.size == 32 for b in grid.blocks)
    assert all(b.x + b.size <= 128 and b.y + b.size <= 64 for b in grid.blocks)


def test_degenerate_frame_is_partial():
    grid = build_grid(1, 1, 2)
    assert grid.n_blocks == 1
    blk = grid.blocks[0]
    assert blk.size == 16 and blk.x + blk.size > grid.width
    assert grid.padded_width == 16 and grid.padded_height == 16


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        build_grid(64, 64, 3)
    with pytest.raises(ValueError):
        build_grid(64, 64, -1)
    with pytest.raises(ValueError):
        build_grid(0, 64, 1)


def test_sub_blocks_of_64():
    quads = sub_blocks(BlockRef(0, 0, 64))
    assert [(q.x, q.y) for q in quads] == [(0, 0), (32, 0), (0, 32), (32, 32)]
    assert all(q.size == 32 for q in quads)


def test_sub_blocks_of_16_at_offset():
    quads = sub_blocks(BlockRef(16, 48, 16))
    assert [(q.x, q.y) for q in quads] == [
        (16, 48), (24, 48), (16, 56), (24, 56)
    ]
    assert all(q.size == 8 for q in quads)


def test_odd_size_rejected_at_construction():
    with pytest.raises(ValueError):
        BlockRef(0, 0, 7)
    with pytest.raises(ValueError):
        BlockRef(0, 0, 0)


def test_sub_blocks_partition_parent():
    parent = BlockRef(32, 64, 32)
    quads = sub_blocks(parent)
    cells = set()
    for q in quads:
        for yy in range(q.y, q.y + q.size):
            for xx in range(q.x, q.x + q.size):
                assert (xx, yy) not in cells  # pairwise disjoint
                cells.add((xx, yy))
    expected = {
        (xx, yy)
        for yy in range(parent.y, parent.y + parent.size)
        for xx in range(parent.x, parent.x + parent.size)
    }
    assert cells == expected


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("dims", [(64, 64), (100, 70), (129, 65), (1, 1)])
def test_every_sample_covered_exactly_once(depth, dims):
    w, h = dims
    grid = build_grid(w, h, depth)
    cover = np.zeros((grid.padded_height, grid.padded_width), dtype=np.int32)
    for b in grid.blocks:
        cover[b.y: b.y + b.size, b.x: b.x + b.size] += 1
    assert (cover == 1).all()
    size = CB_SIZE_BY_DEPTH[depth]
    assert grid.n_blocks == -(-w // size) * (-(-h // size))


def test_pad_plane_replicates_edges():
    grid = build_grid(65, 33, 1)
    plane = np.arange(65 * 33, dtype=np.int32).reshape(33, 65)
    padded = pad_plane(plane, grid)
    assert padded.shape == (64, 96)
    assert (padded[:33, 65:] == plane[:, -1:]).all()
    assert (padded[33:, :65] == plane[-1:, :]).all()
    # a (3, H, W) stack pads its last two axes, plane by plane
    stack = np.stack([plane, plane + 1, plane * 2])
    assert np.array_equal(pad_plane(stack, grid),
                          [padded, padded + 1, padded * 2])
    # no copy when already aligned
    aligned = np.zeros((64, 96), dtype=np.int32)
    assert pad_plane(aligned, grid) is aligned


@settings(deadline=None, max_examples=80)
@given(st.sampled_from((1, 2, 4, 8, 16, 32)), st.sampled_from((np.int16, np.int32)),
       st.integers(0, 20), st.integers(0, 20), st.integers(0, 2), st.booleans(),
       st.integers(0, 2**32 - 1))
@example(8, np.int32, 20, 20, 0, True, 0)
def test_window_sums_match_direct_sums_property(k, dtype, dh, dw, pad,
                                                near_max, seed):
    rng = np.random.default_rng(seed)
    h, w = k + dh, k + dw
    lo = 4055 if near_max else 0
    x = rng.integers(lo, 4096, (h, w)).astype(dtype)
    if near_max and k == 8 and dtype is np.int32:
        # 12-bit products: SSIM's largest window sums, up to 64 * 4095^2
        x *= rng.integers(lo, 4096, (h, w)).astype(dtype)
    want = sliding_window_view(x, (k, k)).sum(axis=(-2, -1), dtype=np.int64)
    got = window_sums(x, k, np.empty((h + pad, w + pad), dtype=np.int32))
    assert got.dtype == np.int32 and np.array_equal(got, want)
    if dtype is np.int32:  # x as its own buffer
        assert np.array_equal(window_sums(x, k, x), want)


@pytest.mark.parametrize("k", [0, 3, 6, 12])
def test_window_sums_reject_a_side_not_a_power_of_two(k):
    x = np.zeros((16, 16), dtype=np.int32)
    with pytest.raises(ValueError, match=f"power of two, got {k}$"):
        window_sums(x, k, x)


@pytest.mark.parametrize("h, w, k", [(16, 16, 16), (8, 40, 8), (40, 4, 4),
                                     (1, 9, 1), (23, 17, 2)])
@pytest.mark.parametrize("pad", [None, 0, 3])
def test_window_sums_in_a_buffer_larger_than_x_or_x_itself(h, w, k, pad):
    # k == h or k == w leaves one window row or column; a buf wider than
    # x still takes the sums in its leading h * w entries
    x = np.random.default_rng(h * w + k).integers(0, 4096, (h, w),
                                                  dtype=np.int32)
    want = sliding_window_view(x, (k, k)).sum(axis=(-2, -1), dtype=np.int64)
    if pad is None:
        buf = x.copy()
        got = window_sums(buf, k, buf)
    else:
        buf = np.full((h + pad, w + pad), -1, dtype=np.int32)
        got = window_sums(x, k, buf)
    assert got.shape == (h - k + 1, w - k + 1)
    assert np.shares_memory(got, buf) and np.array_equal(got, want)


def test_window_sums_reject_a_non_contiguous_buffer():
    x = np.ones((16, 16), dtype=np.int32)
    for buf in (np.empty((16, 32), np.int32)[:, ::2],
                np.empty((32, 32), np.int32)[:16, :16],
                np.empty((16, 16), np.int32).T):
        with pytest.raises(ValueError, match="C-contiguous buf$"):
            window_sums(x, 4, buf)
