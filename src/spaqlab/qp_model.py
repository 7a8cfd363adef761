"""Per-CB, per-channel perceptual QP synthesis.

The final QP of a CB combines the frame-level base QP with a perceptual
adjustment built from the CB's normalized spatial activity A and its
PU's temporal offset t:

    raw   = round(6 * log2(A))            (half away from zero)
    delta = clamp(t + raw, lo, hi)        (default clamp scope: total)
    Q     = clamp(q_base + delta, 0, 51)

The clamp window is [o/2, o] for G and [o, o_max] for B and R, where
o = 6 is the mean CB-level QP offset and o_max = 12 the maximum. Since
the window floors are positive, the final QP never drops below the base
QP: smooth regions are simply not sharpened, while textured or
high-motion regions (and the less visually sensitive B/R channels) are
quantized more coarsely.

Clamping the total adjustment is one of two defensible readings of the
published ranges; the alternative (clamp only the spatial term, then add
t) is selectable with scope "term" so the two can be compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QP_MIN = 0
QP_MAX = 51
MEAN_OFFSET = 6.0   # o: mean CB-level perceptual QP offset
MAX_OFFSET = 12.0   # o_max: maximum CB-level QP offset
G_RANGE = (MEAN_OFFSET / 2.0, MEAN_OFFSET)
BR_RANGE = (MEAN_OFFSET, MAX_OFFSET)
# per channel (G, B, R): the clamp window and a high-motion PU's offset
_WINDOWS = np.array([G_RANGE, BR_RANGE, BR_RANGE], np.int64)
_HIGH_MOTION_OFFSET = np.array([MEAN_OFFSET / 2, MEAN_OFFSET, MEAN_OFFSET], np.int64)
# what the per-channel offset window applies to: "total" clamps t + raw,
# so both masking terms share the window; "term" clamps raw, then adds t
CLAMP_SCOPES = ("total", "term")

# QStep doubles every 6 QP; one octave is split into six exact ratios so
# that qp_to_qstep(q + 6) == 2 * qp_to_qstep(q) holds bit-exactly.
_OCTAVE_FRACTIONS = tuple(2.0 ** (r / 6.0) for r in range(6))


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def spatial_offset(activity: float) -> int:
    """Raw spatial QP offset round(6 * log2(A)) for a CB activity A."""
    if activity <= 0:
        raise ValueError(f"activity must be positive, got {activity}")
    return round_half_away(6.0 * math.log2(activity))


_QP_ERROR = f"QPs must be integers in [{QP_MIN}, {QP_MAX}]"


def qp_to_qstep(qp: int) -> float:
    """Quantization step size for an integer QP: 1.0 at QP 4, x2 every 6."""
    if not QP_MIN <= qp <= QP_MAX or qp != int(qp):
        raise ValueError(_QP_ERROR)
    e = int(qp) - 4
    return (2.0 ** (e // 6)) * _OCTAVE_FRACTIONS[e % 6]


_QSTEPS = np.array([qp_to_qstep(q) for q in range(QP_MIN, QP_MAX + 1)])


@dataclass
class QpMap:
    """Per-CB QP decomposition for one frame.

    base_qp is the frame-level QP of all three channels. Arrays have
    shape (3, n_blocks): channel (G, B, R), then raster CB index. raw is
    the spatial offset term, t the temporal offset, delta the clamped
    total adjustment, qp the final QP and qstep its step size. raw, t,
    delta and qp are int64 and qstep is float64. For the uniform anchor,
    raw = t = delta = 0.
    """

    base_qp: int
    raw: np.ndarray
    t: np.ndarray
    delta: np.ndarray
    qp: np.ndarray
    qstep: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.qp.shape[1]


def uniform_qp_map(base_qp: int, n_blocks: int) -> QpMap:
    """Anchor map: every CB of every channel uses the frame-level QP."""
    qstep = qp_to_qstep(base_qp)
    zeros = np.zeros((3, n_blocks), dtype=np.int64)
    return QpMap(base_qp, zeros, zeros.copy(), zeros.copy(),
                 zeros + int(base_qp), np.full((3, n_blocks), qstep))


def build_qp_map(base_qp: int, n_blocks: int, activity=None, magnitudes=None,
                 mean_magnitude: float = 0.0, scope: str = "total") -> QpMap:
    """Perceptual map from activity and/or motion data.

    activity: a (3, n_blocks) array of normalized activities A, or None
    (every A is 1, the temporal-only ablation). magnitudes: per-PU vector
    magnitudes or None (None disables temporal offsets, the spatial-only
    ablation or an intra frame). mean_magnitude is the frame mean the
    magnitudes are thresholded against; scope is one of CLAMP_SCOPES.
    """
    qp_to_qstep(base_qp)  # rejects a base QP that is not an integer in range
    if scope not in CLAMP_SCOPES:
        raise ValueError(f"unknown clamp scope {scope!r}")
    if activity is None:
        raw = np.zeros((3, n_blocks), dtype=np.int64)
    else:
        # spatial_offset (math.log2) entry by entry: np.log2 differs from
        # math.log2 in the last ulp on some inputs
        raw = np.array([[spatial_offset(a) for a in row]
                        for row in np.asarray(activity, float).tolist()],
                       dtype=np.int64)
    if magnitudes is None:
        t = np.zeros((3, n_blocks), dtype=np.int64)
    else:
        high = np.asarray(magnitudes, dtype=np.float64) > mean_magnitude
        t = np.where(high, _HIGH_MOTION_OFFSET[:, None], 0)
    lo, hi = _WINDOWS[:, :1], _WINDOWS[:, 1:]
    if scope == "total":
        delta = np.clip(t + raw, lo, hi)
    else:
        delta = t + np.clip(raw, lo, hi)
    qp = np.clip(int(base_qp) + delta, QP_MIN, QP_MAX)
    return QpMap(base_qp, raw, t, delta, qp, _QSTEPS[qp])
