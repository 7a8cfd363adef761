"""Objective quality metrics: per-channel PSNR, global GBR SSIM,
percentage deltas against an anchor.

SSIM uses an 8x8 uniform sliding window (stride 1) with the standard
stabilizers C1 = (0.01*peak)^2 and C2 = (0.03*peak)^2; the global score
of a frame is the mean of its three channel scores. Window sums are exact
int32 sums by doubling (window_sums): each is at most
64 * 4095^2 < 2^31 at 12 bits, so scores are exact and symmetric. The
source's sums (ssim_sums) can be taken once per frame and shared by every
coding scored against it. The float stage runs in strips of at most
SSIM_STRIP window rows, so its buffers do not grow with the frame height.
"""

from __future__ import annotations

import math

import numpy as np

from .partitioner import window_sums
from .video_io import Frame

PSNR_CAP_DB = 99.99
SSIM_WINDOW = 8
# window rows per float-stage strip: of 32, 64, 128 and 256, 128 tied for
# the fastest per coding at 960x540 and was the fastest at 128x128
SSIM_STRIP = 128


def mse_to_psnr(mse: float, bit_depth: int) -> float:
    if mse <= 0:
        return PSNR_CAP_DB
    peak = (1 << bit_depth) - 1
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def _plane_sums(plane: np.ndarray) -> tuple:
    """int32 window sums of plane and of its square."""
    square = np.multiply(plane, plane, dtype=np.int32)
    return (window_sums(plane, SSIM_WINDOW, np.empty(plane.shape, np.int32)),
            window_sums(square, SSIM_WINDOW, square))


def ssim_sums(frame: Frame) -> list:
    """Per channel, the int32 window sums of a and of a * a: all that
    ssim_global(frame, test, sums) reads of its ref beyond the samples."""
    return [_plane_sums(plane) for plane in frame.planes]


def ssim_plane(ref_plane: np.ndarray, test_plane: np.ndarray,
               bit_depth: int, sums: tuple | None = None) -> float:
    """Mean SSIM of one channel over all window positions.

    sums is ref_plane's entry of ssim_sums, computed here when not given.
    """
    if ref_plane.shape != test_plane.shape:
        raise ValueError("planes must share dimensions")
    h, w = ref_plane.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"plane {h}x{w} is smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    sum_a, sum_aa = _plane_sums(ref_plane) if sums is None else sums
    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    win = SSIM_WINDOW
    n = win * win
    rows = h - win + 1
    strip = min(SSIM_STRIP, rows)

    # One int32 buffer takes the test plane's products and window sums,
    # and the float stage works in place on four strip buffers and the
    # map: fresh temporaries per call cost a page fault per 4 KiB.
    prod = np.empty((strip + win - 1, w), dtype=np.int32)
    floats = np.empty((4, strip, w - win + 1))
    ssim_map = np.empty((rows, w - win + 1))

    def window_mean(x, out):
        return np.divide(window_sums(x, win, prod), n, out=out)

    def product(x, y):
        return np.multiply(x, y, dtype=np.int32, out=prod[: len(x)])

    for r0 in range(0, rows, strip):
        r1 = min(r0 + strip, rows)
        a, b = ref_plane[r0: r1 + win - 1], test_plane[r0: r1 + win - 1]
        f0, f1, f2, f3 = floats[:, : r1 - r0]
        mu_a = np.divide(sum_a[r0: r1], n, out=f0)
        mu_b = window_mean(b, f1)
        mu_ab = np.multiply(mu_a, mu_b, out=ssim_map[r0: r1])
        mu_aa = np.multiply(mu_a, mu_a, out=mu_a)
        mu_bb = np.multiply(mu_b, mu_b, out=mu_b)
        var_a = np.divide(sum_aa[r0: r1], n, out=f2)
        var_a -= mu_aa
        var_b = window_mean(product(b, b), f3)
        var_b -= mu_bb
        # the SSIM map is ((2*mu_ab + c1) * (2*cov + c2)) /
        # ((mu_aa + mu_bb + c1) * (var_a + var_b + c2)), in that order
        den = var_a
        den += var_b
        den += c2
        cov = window_mean(product(a, b), var_b)
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
    # one mean over the whole map keeps the pairwise summation order
    return float(ssim_map.mean())


def ssim_global(ref: Frame, test: Frame, sums: list | None = None) -> float:
    """Global GBR score: mean of the three channel SSIMs.

    sums is ssim_sums(ref); when not given, each channel computes its own
    in turn, so only one channel's are held at a time.
    """
    if (ref.width, ref.height, ref.bit_depth) != (
        test.width,
        test.height,
        test.bit_depth,
    ):
        raise ValueError("frames must share dimensions and bit depth")
    return sum(ssim_plane(a, b, ref.bit_depth, s) for a, b, s in
               zip(ref.planes, test.planes, sums or [None] * 3)) / 3.0


def pct_delta(anchor: float, test: float):
    """Signed percentage change of test against anchor (negative = reduction).

    A non-positive anchor has no ratio: 0.0 if test equals it, else None.
    """
    if anchor <= 0:
        return 0.0 if test == anchor else None
    return 100.0 * (test - anchor) / anchor
