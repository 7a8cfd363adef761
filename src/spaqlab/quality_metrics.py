"""Objective quality metrics: per-channel PSNR, global GBR SSIM,
percentage deltas against an anchor.

SSIM uses an 8x8 uniform sliding window (stride 1) with the standard
stabilizers C1 = (0.01*peak)^2 and C2 = (0.03*peak)^2; the global score
of a frame is the mean of its three channel scores. Window sums are
taken from integer integral images, so scores are exact and symmetric.
"""

from __future__ import annotations

import math

import numpy as np

from .video_io import Frame

PSNR_CAP_DB = 99.99
SSIM_WINDOW = 8


def mse_to_psnr(mse: float, bit_depth: int) -> float:
    if mse <= 0:
        return PSNR_CAP_DB
    peak = (1 << bit_depth) - 1
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def _window_sums(x: np.ndarray) -> np.ndarray:
    """Sum of every SSIM window (stride 1), exact in int64."""
    win = SSIM_WINDOW
    h, w = x.shape
    c = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(x, axis=0, dtype=np.int64), axis=1, out=c[1:, 1:])
    return (c[win:, win:] - c[:-win, win:] - c[win:, :-win] + c[:-win, :-win])


def ssim_plane(ref_plane: np.ndarray, test_plane: np.ndarray,
               bit_depth: int) -> float:
    """Mean SSIM of one channel over all window positions."""
    if ref_plane.shape != test_plane.shape:
        raise ValueError("planes must share dimensions")
    h, w = ref_plane.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"plane {h}x{w} is smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    n = SSIM_WINDOW * SSIM_WINDOW

    a = ref_plane.astype(np.int64)
    b = test_plane.astype(np.int64)
    sa = _window_sums(a).astype(np.float64)
    sb = _window_sums(b).astype(np.float64)
    saa = _window_sums(a * a).astype(np.float64)
    sbb = _window_sums(b * b).astype(np.float64)
    sab = _window_sums(a * b).astype(np.float64)

    mu_a = sa / n
    mu_b = sb / n
    var_a = saa / n - mu_a * mu_a
    var_b = sbb / n - mu_b * mu_b
    cov = sab / n - mu_a * mu_b

    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(ssim_map.mean())


def ssim_global(ref: Frame, test: Frame) -> float:
    """Global GBR score: mean of the three channel SSIMs."""
    if (ref.width, ref.height, ref.bit_depth) != (
        test.width,
        test.height,
        test.bit_depth,
    ):
        raise ValueError("frames must share dimensions and bit depth")
    # one channel at a time: each call's integral images are full-plane
    # int64 arrays, so three at once would triple the peak memory
    return sum(ssim_plane(a, b, ref.bit_depth)
               for a, b in zip(ref.planes, test.planes)) / 3.0


def pct_delta(anchor: float, test: float):
    """Signed percentage change of test against anchor (negative = reduction).

    A non-positive anchor has no ratio: 0.0 if test equals it, else None.
    """
    if anchor <= 0:
        return 0.0 if test == anchor else None
    return 100.0 * (test - anchor) / anchor
