"""Block-matching motion estimation and temporal-masking offsets.

One motion vector per PU (one PU per CB here), found by exhaustive SAD
search on the G plane at integer-sample precision; the vector is shared
by all three channel prediction blocks. A vector points in the direction
of content motion: the matched reference block sits at
(x - mv.x, y - mv.y) for a PU at (x, y).

Temporal masking: a PU whose vector magnitude strictly exceeds the frame
mean magnitude counts as high motion and receives a QP offset of half
the mean CB offset on G and the full mean offset on B and R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partitioner import BlockGrid, BlockRef

DEFAULT_SEARCH_RANGE = 16


@dataclass(frozen=True)
class MotionVector:
    x: int
    y: int


def mv_magnitude(v: MotionVector) -> float:
    """Euclidean norm sqrt(x^2 + y^2)."""
    return math.hypot(v.x, v.y)


def frame_mean_magnitude(field_or_vectors) -> float:
    """Arithmetic mean vector magnitude over all PUs of one frame.

    Accepts a MotionField or any iterable of MotionVector.
    """
    if isinstance(field_or_vectors, MotionField):
        vecs = field_or_vectors.vectors
    else:
        vecs = list(field_or_vectors)
    if not vecs:
        raise ValueError("frame mean magnitude needs at least one PU")
    return sum(mv_magnitude(v) for v in vecs) / len(vecs)


@dataclass(frozen=True)
class MotionField:
    """Per-PU motion vectors of one frame plus the frame mean magnitude."""

    frame_index: int
    vectors: tuple
    mean_magnitude: float

    def magnitudes(self):
        return [mv_magnitude(v) for v in self.vectors]


def block_match(cur: np.ndarray, ref: np.ndarray, pu: BlockRef,
                search_range: int = DEFAULT_SEARCH_RANGE) -> MotionVector:
    """Full-search SAD minimizer for one PU.

    Candidate reference blocks outside the plane are skipped. Ties are
    broken by smaller vector magnitude, then smaller y, then smaller x
    component, so the result is deterministic.
    """
    if cur.shape != ref.shape:
        raise ValueError("current and reference planes must share dimensions")
    if search_range < 0:
        raise ValueError("search range must be >= 0")
    h, w = ref.shape
    bh = min(pu.size, h - pu.y)
    bw = min(pu.size, w - pu.x)
    block = cur[pu.y: pu.y + bh, pu.x: pu.x + bw].astype(np.int16)

    # displacement d indexes the ref block at (pu + d); reported mv = -d
    dy_lo = max(-search_range, -pu.y)
    dy_hi = min(search_range, h - (pu.y + bh))
    dx_lo = max(-search_range, -pu.x)
    dx_hi = min(search_range, w - (pu.x + bw))

    region = ref[pu.y + dy_lo: pu.y + dy_hi + bh,
                 pu.x + dx_lo: pu.x + dx_hi + bw].astype(np.int16)
    windows = sliding_window_view(region, (bh, bw))
    # abs in place keeps one search-sized temporary per PU, not two: with
    # two, glibc trims the freed heap top after each call and the next call
    # faults it back in.
    diff = windows - block
    sad = np.abs(diff, out=diff).sum(axis=(2, 3), dtype=np.int64)

    best = None
    for iy, ix in np.argwhere(sad == sad.min()):
        mvx, mvy = -(dx_lo + int(ix)), -(dy_lo + int(iy))
        key = (mvx * mvx + mvy * mvy, mvy, mvx)
        if best is None or key < best[0]:
            best = (key, MotionVector(mvx, mvy))
    return best[1]


def estimate_motion_field(cur: np.ndarray, ref: np.ndarray, grid: BlockGrid,
                          search_range: int = DEFAULT_SEARCH_RANGE,
                          frame_index: int = 0) -> MotionField:
    """Motion vectors for every PU of a frame, in grid raster order."""
    vectors = tuple(
        block_match(cur, ref, pu, search_range) for pu in grid.blocks
    )
    return MotionField(frame_index, vectors, frame_mean_magnitude(vectors))


def temporal_offset_g(magnitude: float, mean_magnitude: float,
                      mean_qp_offset: float = 6.0) -> float:
    """G-channel temporal QP offset: half the mean offset on high motion."""
    return mean_qp_offset / 2.0 if magnitude > mean_magnitude else 0.0


def temporal_offset_br(magnitude: float, mean_magnitude: float,
                       mean_qp_offset: float = 6.0) -> float:
    """B/R-channel temporal QP offset: the full mean offset on high motion."""
    return mean_qp_offset if magnitude > mean_magnitude else 0.0
