"""Block-matching motion estimation.

One motion vector per PU (one PU per CB here), found by exhaustive SAD
search on the G plane at integer-sample precision, pruned exactly by
successive elimination; the vector is shared by all three channel
prediction blocks. A vector (x, y) points in the direction of content
motion: the matched reference block sits at (px - x, py - y) for a PU
at (px, py).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partitioner import BlockGrid, BlockRef, window_sums

DEFAULT_SEARCH_RANGE = 16


@dataclass(frozen=True)
class MotionField:
    """Per-PU motion of one frame, in grid raster order.

    vectors is an (n_pus, 2) int64 array of (x, y), magnitudes their
    Euclidean norms and mean_magnitude the frame mean of magnitudes.
    """

    vectors: np.ndarray
    magnitudes: np.ndarray
    mean_magnitude: float


def motion_field(vectors) -> MotionField:
    """MotionField of integer (x, y) vectors.

    Magnitudes are sqrt of the exact integer x*x + y*y, which equals
    math.hypot for every component up to +-600 (np.hypot does not). The
    mean is a sequential sum over the PUs divided by their count.
    """
    vecs = np.asarray(vectors, dtype=np.int64).reshape(-1, 2)
    if not len(vecs):
        raise ValueError("a motion field needs at least one PU")
    mags = np.sqrt((vecs * vecs).sum(axis=1).astype(np.float64))
    return MotionField(vecs, mags, sum(mags.tolist()) / len(vecs))


def _sads(windows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """SAD of block against each (n, n) window in the trailing axes."""
    # abs in place keeps one search-sized temporary per PU, not two: with
    # two, glibc trims the freed heap top after each call and the next call
    # faults it back in.
    diff = windows - block
    return np.abs(diff, out=diff).sum(axis=(-2, -1), dtype=np.int64)


def _quadrant_bounds(region: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Lower bound on the SAD of the (n, n) block at every offset of region.

    The quadrants are the block's four corner (n//2, n//2) boxes; by the
    triangle inequality a candidate's SAD is at least the sum over them of
    |sum(block quadrant) - sum(candidate quadrant)|. The candidates' box
    sums are window_sums of the region: at most 32 * 32 * 4095, so exact.
    """
    n = len(block)
    half = n // 2
    boxes = window_sums(region, half,
                        np.zeros(np.add(region.shape, 1), dtype=np.int32))
    ny, nx = region.shape[0] - n + 1, region.shape[1] - n + 1
    bound = np.zeros((ny, nx), dtype=np.int32)
    for y0 in (0, n - half):
        for x0 in (0, n - half):
            quad = boxes[y0: y0 + ny, x0: x0 + nx] - block[
                y0: y0 + half, x0: x0 + half].sum(dtype=np.int32)
            bound += np.abs(quad, out=quad)
    return bound


def block_match(cur: np.ndarray, ref: np.ndarray, pu: BlockRef,
                search_range: int = DEFAULT_SEARCH_RANGE) -> tuple[int, int]:
    """Full-search SAD minimizer for one PU; returns its vector (x, y).

    The PU must lie inside the plane. Candidate reference blocks outside
    the plane are skipped. Ties are broken by smaller vector magnitude,
    then smaller y, then smaller x component, so the result is
    deterministic.

    The search stays exhaustive and exact, but candidates are pruned by
    successive elimination: a candidate whose quadrant-sum lower bound
    exceeds the smaller SAD of the zero vector and of the lowest-bound
    candidate can neither reach nor tie the minimum, so only the others
    get a full SAD. When more than half the candidates survive (noise-like
    content), every candidate's SAD is computed at once instead.
    """
    if cur.shape != ref.shape:
        raise ValueError("current and reference planes must share dimensions")
    if search_range < 0:
        raise ValueError("search range must be >= 0")
    h, w = ref.shape
    n = pu.size
    if not (0 <= pu.x <= w - n and 0 <= pu.y <= h - n):
        raise ValueError(f"PU at ({pu.x}, {pu.y}) leaves the {w}x{h} plane")
    block = cur[pu.y: pu.y + n, pu.x: pu.x + n].astype(np.int16)

    # displacement d indexes the ref block at (pu + d); reported mv = -d
    dy_lo = max(-search_range, -pu.y)
    dy_hi = min(search_range, h - n - pu.y)
    dx_lo = max(-search_range, -pu.x)
    dx_hi = min(search_range, w - n - pu.x)

    region = ref[pu.y + dy_lo: pu.y + dy_hi + n,
                 pu.x + dx_lo: pu.x + dx_hi + n].astype(np.int16)
    windows = sliding_window_view(region, (n, n))
    bound = _quadrant_bounds(region, block)
    by, bx = np.unravel_index(np.argmin(bound), bound.shape)
    upper = _sads(windows[[-dy_lo, by], [-dx_lo, bx]], block).min()
    # <=, not <: every minimizer has bound <= min SAD <= upper and survives
    iy, ix = np.nonzero(bound <= upper)
    # a gathered window costs about 1.5x its share of the dense pass; the
    # half-way switch was the fastest of 1/4, 1/2, 2/3 and 9/10 measured
    if 2 * len(iy) > bound.size:
        sad = _sads(windows, block)
        iy, ix = np.nonzero(sad == sad.min())
    else:
        sad = _sads(windows[iy, ix], block)
        keep = sad == sad.min()
        iy, ix = iy[keep], ix[keep]
    mvx, mvy = -(dx_lo + ix), -(dy_lo + iy)
    best = np.lexsort((mvx, mvy, mvx * mvx + mvy * mvy))[0]
    return int(mvx[best]), int(mvy[best])


def estimate_motion_field(cur: np.ndarray, ref: np.ndarray, grid: BlockGrid,
                          search_range: int = DEFAULT_SEARCH_RANGE,
                          fields: dict | None = None) -> MotionField:
    """Motion vectors for every PU of a frame, in grid raster order.

    With fields, a dict shared across calls, each distinct search is run
    once: the field is stored under a SHA-256 digest of the planes' shapes,
    dtypes and samples, the grid's geometry and the search range, and a
    later call with the same inputs returns the stored field unsearched.
    """
    if fields is not None:
        digest = hashlib.sha256(repr((
            cur.shape, cur.dtype.str, ref.shape, ref.dtype.str, grid.cb_size,
            grid.cols, grid.rows, search_range)).encode())
        digest.update(np.ascontiguousarray(cur).data)
        digest.update(np.ascontiguousarray(ref).data)
        key = digest.digest()
        if key in fields:
            return fields[key]
    field = motion_field([
        block_match(cur, ref, pu, search_range) for pu in grid.blocks
    ])
    if fields is not None:
        fields[key] = field
    return field
