"""Fixed quadtree block geometry.

A frame is tiled into 2Nx2N coding blocks (CBs) at one of three depth
levels: depth 0 -> 64x64 (N=32), depth 1 -> 32x32 (N=16), depth 2 ->
16x16 (N=8). Each CB splits into four NxN sub-blocks. Frames whose
dimensions are not multiples of the CB size are edge-padded (last
row/column replicated) before analysis; padded samples never enter
quality metrics. run_parts runs the two halves of a large plane's
independent items on two threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .video_io import Frame, check_ints

CB_SIZE_BY_DEPTH = {0: 64, 1: 32, 2: 16}
# plane samples from which run_parts uses a second thread: of 128^2, 192^2,
# 256^2 and 384^2, 256^2 was the least at which the split motion search
# beat the serial one (inter coding gained at every size; an SSIM plane
# under 2^16 window positions is one strip, with nothing to split)
SPLIT_SAMPLES = 256 * 256


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
    check_ints(width=width, height=height, depth=depth)
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


def pad_frame(frame: Frame, grid: BlockGrid) -> Frame:
    """frame padded to the grid: the same samples with padded set to
    pad_plane(frame.planes, grid), or frame itself if it holds that."""
    shape = (3, grid.padded_height, grid.padded_width)
    if frame.padded is not None and frame.padded.shape == shape:
        return frame
    padded = np.ascontiguousarray(pad_plane(frame.planes, grid))
    return Frame(frame.width, frame.height, frame.bit_depth, None, padded)


def window_sums(x: np.ndarray, k: int, buf: np.ndarray) -> np.ndarray:
    """int32 sum of the 2-D x over every k x k window (stride 1), k a power
    of two, as a view into buf: a C-contiguous int32 array of at least
    x.size entries, which may be x itself.

    The sums double along each axis in turn: two sums of w rows, w rows
    apart, make a sum of 2w rows, so log2(k) adds per axis give every
    window. For x >= 0 each partial sum is at most a window sum, so when
    every window sum fits in int32, nothing wraps. The horizontal adds run
    over buf's leading (h - k + 1) * w entries as one flat span: a sum
    past a row's end lands in a column past w - k, which is not returned.
    """
    if k < 1 or k & (k - 1):
        raise ValueError(f"window side must be a power of two, got {k}")
    if not buf.flags.c_contiguous:
        raise ValueError("window_sums needs a C-contiguous buf")
    sides = [1 << i for i in range(k.bit_length() - 1)]  # 1, 2, ..., k / 2
    (h, w), s = x.shape, x
    out = buf.reshape(-1)[: h * w].reshape(h, w)
    for side in sides:
        h -= side
        s = np.add(s[:h], s[side: side + h], dtype=np.int32, out=out[:h])
    if k == 1:
        out[...] = x
    flat, n = out.reshape(-1), h * w
    for side in sides:
        n -= side
        np.add(flat[:n], flat[side: side + n], out=flat[:n])
    return out[:h, : w - k + 1]


def _cpus() -> int:
    """CPUs this process may run on (its affinity, where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def run_parts(body, n: int, samples: int) -> list:
    """body(0, n), for a body(lo, hi) that returns the results of items
    lo..hi-1 as a list and writes nothing that another item reads.

    On a plane of at least SPLIT_SAMPLES samples, in a process allowed two
    or more CPUs, one worker thread runs body(m, n), m = ceil(n / 2), while
    the calling thread runs body(0, m), and the lists are joined in that
    order. The worker is joined before anything returns or raises, and its
    exception, if any, is raised here.
    """
    if n < 2 or samples < SPLIT_SAMPLES or _cpus() < 2:
        return body(0, n)
    m = -(-n // 2)
    second, failed = [], []

    def work():
        try:
            second.extend(body(m, n))
        except BaseException as exc:
            failed.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        first = body(0, m)
    finally:
        worker.join()
    if failed:
        raise failed[0]
    return first + second
