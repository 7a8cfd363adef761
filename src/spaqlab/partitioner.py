"""Fixed quadtree block geometry.

A frame is tiled into 2Nx2N coding blocks (CBs) at one of three depth
levels: depth 0 -> 64x64 (N=32), depth 1 -> 32x32 (N=16), depth 2 ->
16x16 (N=8). Each CB splits into four NxN sub-blocks. Frames whose
dimensions are not multiples of the CB size are edge-padded (last
row/column replicated) before analysis; padded samples never enter
quality metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CB_SIZE_BY_DEPTH = {0: 64, 1: 32, 2: 16}


@dataclass(frozen=True)
class BlockRef:
    """Square block: top-left corner and side length."""

    x: int
    y: int
    size: int

    def __post_init__(self):
        if self.size < 2 or self.size % 2 != 0:
            raise ValueError(f"block size must be even and >= 2, got {self.size}")


@dataclass(frozen=True)
class BlockGrid:
    """Raster-order CB tiling of a (padded) frame at a fixed depth."""

    width: int
    height: int
    depth: int
    cb_size: int
    cols: int
    rows: int
    blocks: tuple

    @property
    def padded_width(self) -> int:
        return self.cols * self.cb_size

    @property
    def padded_height(self) -> int:
        return self.rows * self.cb_size

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_grid(width: int, height: int, depth: int) -> BlockGrid:
    """Tile a width x height frame with CBs at the given quadtree depth."""
    if depth not in CB_SIZE_BY_DEPTH:
        raise ValueError(f"depth must be one of {sorted(CB_SIZE_BY_DEPTH)}, got {depth}")
    if width < 1 or height < 1:
        raise ValueError("frame dimensions must be at least 1x1")
    size = CB_SIZE_BY_DEPTH[depth]
    cols = math.ceil(width / size)
    rows = math.ceil(height / size)
    blocks = []
    for row in range(rows):
        for col in range(cols):
            blocks.append(BlockRef(col * size, row * size, size))
    return BlockGrid(width, height, depth, size, cols, rows, tuple(blocks))


def pad_plane(plane: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Edge-replicate the last two axes out to the grid's padded dimensions.

    Works on one (H, W) plane or a stack of them such as (3, H, W).
    """
    h, w = plane.shape[-2:]
    ph, pw = grid.padded_height, grid.padded_width
    if (h, w) == (ph, pw):
        return plane
    lead = ((0, 0),) * (plane.ndim - 2)
    return np.pad(plane, lead + ((0, ph - h), (0, pw - w)), mode="edge")


def window_sums(x: np.ndarray, k: int, integral: np.ndarray, out=None):
    """int32 sum of the 2-D x over every k x k window (stride 1).

    integral is a zero-bordered (H + 1, W + 1) int32 buffer that takes x's
    running sums. They may wrap, but the four-corner difference (Crow 1984)
    is exact modulo 2**32, so every window sum that fits in int32 is exact.
    """
    inner = integral[1:, 1:]
    np.cumsum(x, axis=0, dtype=np.int32, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    out = np.subtract(integral[k:, k:], integral[:-k, k:], out=out)
    out -= integral[k:, :-k]
    out += integral[:-k, :-k]
    return out
