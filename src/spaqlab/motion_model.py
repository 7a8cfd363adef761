"""Block-matching motion estimation.

One motion vector per PU (one PU per CB here), found by exhaustive SAD
search on the G plane at integer-sample precision, pruned exactly by
successive elimination; the vector is shared by all three channel
prediction blocks. A vector (x, y) points in the direction of content
motion: the matched reference block sits at (px - x, py - y) for a PU
at (px, py). SADs are taken SAD_PASS window samples at a time through
one bounded int16 buffer and summed exactly in int32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partitioner import BlockGrid, window_sums

DEFAULT_SEARCH_RANGE = 16
# window samples per _sads pass: 2**15 to 2**18 were fastest at n = 16, 32, 64
SAD_PASS = 2**17


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


def _sads(windows: np.ndarray, blocks: np.ndarray, at=None) -> np.ndarray:
    """int32 SADs of (n, n) blocks against (n, n) windows: of one block
    against each window of an (m, ..., n, n) stack, or with at = (i, y, x),
    SAD k of blocks[i[k]] against windows[y[k], x[k]]. Passes of SAD_PASS
    samples (at least one leading entry) through one int16 buffer bound
    every temporary; one flat int32 sum per SAD is exact, as no SAD
    exceeds 64 * 64 * 4095 < 2**31.
    """
    n = blocks.shape[-1]
    if at is None:
        sads = np.empty(windows.shape[:-2], dtype=np.int32)
        step = max(1, SAD_PASS // windows[0].size)
        buf = np.empty((min(step, len(sads)),) + windows.shape[1:], np.int16)
    else:
        sads, step = np.empty(len(at[0]), dtype=np.int32), SAD_PASS // (n * n)
    for k in range(0, len(sads), step):
        part = slice(k, k + step)
        if at is None:
            diff = np.subtract(windows[part], blocks, out=buf[: len(sads[part])])
        else:
            # a gather is a fresh array already: subtract in place
            i, y, x = (idx[part] for idx in at)
            diff = windows[y, x]
            diff -= blocks[i]
        sads[part] = np.abs(diff, out=diff).reshape(
            diff.shape[:-2] + (n * n,)).sum(-1, dtype=np.int32)
    return sads


def _quadrant_bounds(cur, ref, ys, xs, n: int, search_range: int) -> np.ndarray:
    """Lower bounds on the SAD of cur's (n, n) blocks at (ys[i], xs[i])
    against ref (cur's shape), indexed [i, r + dy, r + dx] by displacement:
    by the triangle inequality, the sum over the four corner (n//2, n//2)
    quadrants of |sum(block quadrant) - sum(candidate quadrant)|. One
    window_sums pass per plane gives every quadrant sum: under 32 * 32 *
    4096 = 2**22, so exact. A candidate that leaves ref reads a border sum
    of 2**28, so its bound passes 2**27, above every SAD, and within int32.
    """
    half, side = n // 2, 2 * search_range + 1
    buf = np.empty(ref.shape, dtype=np.int32)
    # ref's box sums, bordered so every block's candidates index inside
    cands = sliding_window_view(np.pad(window_sums(ref, half, buf), search_range,
                                       constant_values=2**28), (side, side))
    cur_boxes = window_sums(cur, half, buf)
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
    whose quadrant-sum lower bound exceeds U, the smaller SAD of the zero
    vector and of the lowest-bound candidate, can neither reach nor tie
    the minimum, so only the others get a full SAD. One vectorised pass
    over the planes, cut to the group's joint search area, bounds every
    PU, one gathered SAD call gives every U, and the survivors of all
    pruned PUs are scored together. A PU with more than half its
    candidates surviving (noise-like content) scores all of them from
    sliced windows. One lexsort picks every vector.
    """
    if cur.shape != ref.shape:
        raise ValueError("current and reference planes must share dimensions")
    if search_range < 0:
        raise ValueError("search range must be >= 0")
    if len({pu.size for pu in pus}) != 1:
        raise ValueError("a PU group needs one or more PUs, all of one size")
    (h, w), n = ref.shape, pus[0].size
    for pu in pus:
        if not (0 <= pu.x <= w - n and 0 <= pu.y <= h - n):
            raise ValueError(f"PU at ({pu.x}, {pu.y}) leaves the {w}x{h} plane")
    # no displacement longer than this keeps a block in the plane
    r = min(search_range, max(h, w) - n)
    yx = np.array([(pu.y, pu.x) for pu in pus])
    # the cut ends r past every PU or at the plane's edge, so it clips alike
    lo, hi = np.maximum(yx.min(0) - r, 0), np.minimum(yx.max(0) + n + r, (h, w))
    cur, ref = (p[lo[0]: hi[0], lo[1]: hi[1]].astype(np.int16) for p in (cur, ref))
    (h, w), (ys, xs) = ref.shape, (yx - lo).T
    windows = sliding_window_view(ref, (n, n))
    blocks = sliding_window_view(cur, (n, n))[ys, xs]
    # displacement d indexes the ref block at (pu + d); reported mv = -d.
    # PU k's in-plane candidates are windows[y0[k]: y1[k], x0[k]: x1[k]].
    y0, y1 = np.maximum(ys - r, 0), np.minimum(ys + r, h - n) + 1
    x0, x1 = np.maximum(xs - r, 0), np.minimum(xs + r, w - n) + 1
    bounds = _quadrant_bounds(cur, ref, ys, xs, n, r)
    by, bx = np.divmod(bounds.reshape(len(pus), -1).argmin(1), 2 * r + 1)
    ids = np.arange(len(pus))
    upper = _sads(windows, blocks, (np.r_[ids, ids], np.r_[ys, ys + by - r],
                                    np.r_[xs, xs + bx - r])).reshape(2, -1).min(0)
    # <=, not <: every minimizer has bound <= min SAD <= upper and survives
    survive = bounds <= upper[:, None, None]
    # a gathered window costs more than its share of the dense pass; of
    # switches at 1/4, 1/2, 2/3 and 9/10, half-way was fastest or tied
    dense = 2 * survive.sum((1, 2)) > (y1 - y0) * (x1 - x0)
    survive[dense] = False
    i, dy, dx = np.nonzero(survive)
    dy, dx = dy - r, dx - r
    found = [(i, dy, dx, _sads(windows, blocks, (i, ys[i] + dy, xs[i] + dx)))]
    for k in np.flatnonzero(dense).tolist():
        sad = _sads(windows[y0[k]: y1[k], x0[k]: x1[k]], blocks[k])
        iy, ix = np.nonzero(sad == sad.min())
        found.append((np.full(len(iy), k), y0[k] + iy - ys[k],
                      x0[k] + ix - xs[k], sad[iy, ix]))
    i, dy, dx, sad = (np.concatenate(f) for f in zip(*found))
    # per PU, the least SAD, then the least |mv|, then the least y and x
    order = np.lexsort((-dx, -dy, dx * dx + dy * dy, sad, i))
    first = order[np.unique(i[order], return_index=True)[1]]
    return list(zip((-dx[first]).tolist(), (-dy[first]).tolist()))


def estimate_motion_field(cur: np.ndarray, ref: np.ndarray, grid: BlockGrid,
                          search_range: int = DEFAULT_SEARCH_RANGE,
                          fields: dict | None = None) -> MotionField:
    """Motion vectors for every PU of a frame, in grid raster order.

    The PUs are searched in raster-order groups, each as large as keeps
    its bounds array within 2**20 entries. fields, if given, is a memo
    keyed by grid geometry and search range alone, to be shared only by
    calls on equal planes: run() shares one among the cells predicting
    from one coding of frame n - 1 (all cells in open loop), so two
    codings with equal reconstructions are searched twice.
    """
    fields = {} if fields is None else fields
    key = grid.cb_size, grid.cols, grid.rows, search_range
    if key not in fields:
        r = min(search_range, max(cur.shape) - grid.cb_size)  # as block_match
        per, pus = max(1, 2**20 // (2 * r + 1) ** 2), grid.blocks
        groups = (pus[i: i + per] for i in range(0, len(pus), per))
        fields[key] = motion_field(
            [mv for g in groups for mv in block_match(cur, ref, g, search_range)])
    return fields[key]
