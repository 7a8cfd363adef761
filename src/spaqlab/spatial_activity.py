"""Per-CB normalized spatial activity.

For every CB and channel:

    g = 1 + min(variance of each of the four NxN sub-blocks)
    m = mean of g over all CBs of that channel in the current picture
    A = (s*g + m) / (g + s*m)        with scaling factor s (2 by default)

A is the frame-normalized texture measure: A = 1 when g equals the frame
mean, and A is confined to [1/s, s] for any input. Variances are
population variances (divide by the sample count) accumulated in exact
integer arithmetic and converted to float only for the final division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partitioner import BlockGrid, pad_frame
from .video_io import Frame

DEFAULT_SCALE = 2.0


def frame_mean_activity(g_values) -> float:
    """Arithmetic mean of the CB activities of one channel in one picture."""
    values = list(g_values)
    if not values:
        raise ValueError("frame mean activity needs at least one CB")
    return sum(values) / len(values)


@dataclass
class ActivityMap:
    """Activity of every CB for all three channels of one frame.

    g, a have shape (3, n_blocks) indexed by channel then raster CB
    index; m has shape (3,).
    """

    g: np.ndarray
    m: np.ndarray
    a: np.ndarray


def compute_activity_map(frame: Frame, grid: BlockGrid) -> ActivityMap:
    """Activity map for one frame over a block grid, at scale DEFAULT_SCALE.

    The analysis reads the frame's padded store (pad_frame). Sub-block
    sums are exact int64, so each variance is one rounding of an exact
    ratio.
    """
    half = grid.cb_size // 2
    padded = pad_frame(frame, grid).padded
    rows, cols = padded.shape[1] // half, padded.shape[2] // half
    tiles = padded.reshape(3, rows, half, cols, half)
    # a 12-bit square fits in int32; the sums are exact in int64
    s1 = tiles.sum(axis=(2, 4), dtype=np.int64)
    s2 = (tiles * tiles).sum(axis=(2, 4), dtype=np.int64)
    n = half * half
    var = (n * s2 - s1 * s1).astype(np.float64) / float(n * n)
    # min over each CB's 2x2 group of sub-block variances
    quads = var.reshape(3, grid.rows, 2, grid.cols, 2)
    g = 1.0 + quads.min(axis=(2, 4)).reshape(3, -1)
    # exact sequential mean per channel, as frame_mean_activity defines it
    m = np.array([frame_mean_activity(row) for row in g.tolist()])
    s = DEFAULT_SCALE
    a = (s * g + m[:, None]) / (g + s * m[:, None])
    return ActivityMap(g=g, m=m, a=a)
