"""Objective quality metrics: per-channel PSNR, global GBR SSIM,
percentage deltas against an anchor.

SSIM uses an 8x8 uniform sliding window (stride 1) with the standard
stabilizers C1 = (0.01*peak)^2 and C2 = (0.03*peak)^2; the global score
of a frame is the mean of its three channel scores. Window sums come
from wrapping int32 integral images (window_sums), exact since each is
at most 64 * 4095^2 < 2^31 at 12 bits, so scores are exact and symmetric.
"""

from __future__ import annotations

import math

import numpy as np

from .partitioner import window_sums
from .video_io import Frame

PSNR_CAP_DB = 99.99
SSIM_WINDOW = 8


def mse_to_psnr(mse: float, bit_depth: int) -> float:
    if mse <= 0:
        return PSNR_CAP_DB
    peak = (1 << bit_depth) - 1
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


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
    win = SSIM_WINDOW
    n = win * win

    # One integral image, one window-sum and one product buffer serve all
    # five statistics, and the float stage works in place: fresh full-plane
    # temporaries per call cost a page fault per 4 KiB at 960x540.
    integral = np.zeros((h + 1, w + 1), dtype=np.int32)
    sums = np.empty((h - win + 1, w - win + 1), dtype=np.int32)
    prod = np.empty((h, w), dtype=np.int32)

    def window_mean(x, out=None):
        return np.divide(window_sums(x, win, integral, sums), n, out=out)

    def product(x, y):
        return np.multiply(x, y, dtype=np.int32, out=prod)

    mu_a = window_mean(ref_plane)
    mu_b = window_mean(test_plane)
    mu_ab = mu_a * mu_b
    mu_aa = np.multiply(mu_a, mu_a, out=mu_a)
    mu_bb = np.multiply(mu_b, mu_b, out=mu_b)
    var_a = window_mean(product(ref_plane, ref_plane))
    var_a -= mu_aa
    var_b = window_mean(product(test_plane, test_plane))
    var_b -= mu_bb
    # the SSIM map is ((2*mu_ab + c1) * (2*cov + c2)) /
    # ((mu_aa + mu_bb + c1) * (var_a + var_b + c2)), in that order
    den = var_a
    den += var_b
    den += c2
    cov = window_mean(product(ref_plane, test_plane), out=var_b)
    cov -= mu_ab
    cov *= 2.0
    cov += c2
    num = mu_ab
    num *= 2.0
    num += c1
    num *= cov
    mu_aa += mu_bb
    mu_aa += c1
    mu_aa *= den
    num /= mu_aa
    return float(num.mean())


def ssim_global(ref: Frame, test: Frame) -> float:
    """Global GBR score: mean of the three channel SSIMs."""
    if (ref.width, ref.height, ref.bit_depth) != (
        test.width,
        test.height,
        test.bit_depth,
    ):
        raise ValueError("frames must share dimensions and bit depth")
    # one channel at a time: each call holds full-plane int32 integral,
    # product and window-sum buffers, so three at once would triple them
    return sum(ssim_plane(a, b, ref.bit_depth)
               for a, b in zip(ref.planes, test.planes)) / 3.0


def pct_delta(anchor: float, test: float):
    """Signed percentage change of test against anchor (negative = reduction).

    A non-positive anchor has no ratio: 0.0 if test equals it, else None.
    """
    if anchor <= 0:
        return 0.0 if test == anchor else None
    return 100.0 * (test - anchor) / anchor
