"""Scalar reference implementations of SPAQ's activity and QP equations.

One CB, one channel, one value at a time, written straight from the
equations. The array paths in spaqlab.spatial_activity and
spaqlab.qp_model must reproduce them entry for entry.
"""

import numpy as np

from spaqlab.partitioner import BlockRef
from spaqlab.qp_model import MEAN_OFFSET, QP_MAX, QP_MIN, spatial_offset
from spaqlab.spatial_activity import DEFAULT_SCALE


def sub_blocks(b: BlockRef):
    """Four quadrants of a CB in the order top-left, top-right,
    bottom-left, bottom-right."""
    n = b.size // 2
    return (
        BlockRef(b.x, b.y, n),
        BlockRef(b.x + n, b.y, n),
        BlockRef(b.x, b.y + n, n),
        BlockRef(b.x + n, b.y + n, n),
    )


def sub_block_variance(plane: np.ndarray, sb: BlockRef) -> float:
    """Population variance of the samples inside one sub-block."""
    samples = plane[sb.y: sb.y + sb.size, sb.x: sb.x + sb.size]
    n = samples.size
    s1 = int(samples.sum(dtype=np.int64))
    s2 = int((samples.astype(np.int64) ** 2).sum(dtype=np.int64))
    # var = E[x^2] - E[x]^2 = (n*s2 - s1^2) / n^2, kept integral until here
    return float(n * s2 - s1 * s1) / (n * n)


def cb_activity(plane: np.ndarray, cb: BlockRef) -> float:
    """Non-normalized activity: 1 + the minimum sub-block variance."""
    return 1.0 + min(sub_block_variance(plane, sb) for sb in sub_blocks(cb))


def normalized_activity(g: float, m: float, s: float = DEFAULT_SCALE) -> float:
    """Normalize CB activity g against the frame mean m.

    Strictly increasing in g for fixed m, equal to 1 at g == m, and
    bounded by [1/s, s].
    """
    return (s * g + m) / (g + s * m)


def temporal_offset_g(magnitude: float, mean_magnitude: float) -> float:
    """G-channel temporal QP offset: o/2 above the frame mean magnitude."""
    return MEAN_OFFSET / 2.0 if magnitude > mean_magnitude else 0.0


def temporal_offset_br(magnitude: float, mean_magnitude: float) -> float:
    """B/R-channel temporal QP offset: o above the frame mean magnitude."""
    return MEAN_OFFSET if magnitude > mean_magnitude else 0.0


def perceptual_offset(activity: float, temporal: float, lo: float, hi: float,
                      scope: str = "total") -> float:
    """Clamped perceptual QP adjustment for one CB and channel."""
    raw = spatial_offset(activity)
    if scope == "total":
        return min(max(temporal + raw, lo), hi)
    return temporal + min(max(float(raw), lo), hi)


def cb_qp(q_base: float, delta: float) -> float:
    """Final CB-level QP: base plus adjustment, clamped to the legal range."""
    return min(max(q_base + delta, QP_MIN), QP_MAX)
