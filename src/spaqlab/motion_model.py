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

from .partitioner import BlockGrid, window_sums

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


def _quadrant_bounds(cur, ref, ys, xs, n: int, search_range: int) -> np.ndarray:
    """Lower bounds on the SAD of cur's (n, n) blocks at (ys[i], xs[i])
    against ref (cur's shape), indexed [i, r + dy, r + dx] by displacement
    (undefined where the candidate leaves ref): by the triangle inequality,
    the sum over the four corner (n//2, n//2) quadrants of
    |sum(block quadrant) - sum(candidate quadrant)|. One window_sums pass
    per plane gives every quadrant sum: at most 32 * 32 * 4095, so exact.
    """
    half, side = n // 2, 2 * search_range + 1
    integral = np.zeros(np.add(ref.shape, 1), dtype=np.int32)
    cur_boxes = window_sums(cur, half, integral)
    # ref's box sums, zero-bordered so every block's candidates index inside
    cands = sliding_window_view(
        np.pad(window_sums(ref, half, integral), search_range), (side, side))
    bound = np.zeros((len(ys), side, side), dtype=np.int32)
    for y0 in (ys, ys + half):
        for x0 in (xs, xs + half):
            quad = cands[y0, x0]
            quad -= cur_boxes[y0, x0][:, None, None]
            bound += np.abs(quad, out=quad)
    return bound


def block_match(cur: np.ndarray, ref: np.ndarray, pus,
                search_range: int = DEFAULT_SEARCH_RANGE) -> list:
    """Full-search SAD minimizers of a group of equal-size PUs inside the
    plane; returns their vectors (x, y) in the group's order.

    Candidate reference blocks outside the plane are skipped. Ties are
    broken by smaller vector magnitude, then smaller y, then smaller x
    component, so the result is deterministic.

    The search stays exact, pruned by successive elimination: a candidate
    whose quadrant-sum lower bound exceeds the smaller SAD of the zero
    vector and of the lowest-bound candidate can neither reach nor tie the
    minimum, so only the others get a full SAD. One pass over the planes,
    cut to the group's joint search area, bounds every PU. When more than
    half a PU's candidates survive (noise-like content), all get a SAD.
    """
    if cur.shape != ref.shape:
        raise ValueError("current and reference planes must share dimensions")
    if search_range < 0:
        raise ValueError("search range must be >= 0")
    if len({pu.size for pu in pus}) != 1:
        raise ValueError("a PU group needs one or more PUs, all of one size")
    (h, w), n, r = ref.shape, pus[0].size, search_range
    for pu in pus:
        if not (0 <= pu.x <= w - n and 0 <= pu.y <= h - n):
            raise ValueError(f"PU at ({pu.x}, {pu.y}) leaves the {w}x{h} plane")
    yx = np.array([(pu.y, pu.x) for pu in pus])
    # the cut ends r past every PU or at the plane's edge, so it clips alike
    lo, hi = np.maximum(yx.min(0) - r, 0), np.minimum(yx.max(0) + n + r, (h, w))
    cur, ref = (p[lo[0]: hi[0], lo[1]: hi[1]].astype(np.int16) for p in (cur, ref))
    (h, w), (ys, xs) = ref.shape, (yx - lo).T
    windows_at = sliding_window_view(ref, (n, n))
    bounds, vectors = _quadrant_bounds(cur, ref, ys, xs, n, r), []
    for y, x, bound in zip(ys.tolist(), xs.tolist(), bounds):
        block = cur[y: y + n, x: x + n]
        # displacement d indexes the ref block at (pu + d); reported mv = -d
        dy_lo, dy_hi = max(-r, -y), min(r, h - n - y)
        dx_lo, dx_hi = max(-r, -x), min(r, w - n - x)
        windows = windows_at[y + dy_lo: y + dy_hi + 1, x + dx_lo: x + dx_hi + 1]
        bound = bound[r + dy_lo: r + dy_hi + 1, r + dx_lo: r + dx_hi + 1]
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
        vectors.append((int(mvx[best]), int(mvy[best])))
    return vectors


def estimate_motion_field(cur: np.ndarray, ref: np.ndarray, grid: BlockGrid,
                          search_range: int = DEFAULT_SEARCH_RANGE,
                          fields: dict | None = None) -> MotionField:
    """Motion vectors for every PU of a frame, in grid raster order.

    The PUs are searched in raster-order groups, each as large as keeps
    its bounds array within 2**20 entries. With fields, a dict shared
    across calls, each distinct search is run once: the field is stored
    under a SHA-256 digest of the planes' shapes, dtypes and samples, the
    grid's geometry and the search range, and a later call with the same
    inputs returns the stored field unsearched.
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
    per, pus = max(1, 2**20 // (2 * search_range + 1) ** 2), grid.blocks
    field = motion_field([mv for i in range(0, len(pus), per) for mv in
                          block_match(cur, ref, pus[i: i + per], search_range)])
    if fields is not None:
        fields[key] = field
    return field
