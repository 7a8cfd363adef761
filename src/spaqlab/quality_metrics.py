"""Objective quality metrics: per-channel PSNR, global GBR SSIM,
percentage deltas against an anchor.

SSIM uses an 8x8 uniform sliding window (stride 1) with the standard
stabilizers C1 = (0.01*peak)^2 and C2 = (0.03*peak)^2; the global score
of a frame is the mean of its three channel scores. Window sums are exact
int32 sums by doubling (window_sums): each is at most
64 * 4095^2 < 2^31 at 12 bits, so scores are exact and symmetric.
ssim_global scores every coding of a frame in one call and holds one
source channel's sums at a time. The float stage runs in strips of whole
rows of at most SSIM_STRIP window positions (at least one row), so its
buffers do not grow with the frame. On a plane of at least
partitioner.SPLIT_SAMPLES samples, run_parts scores the second half of
the strips on a worker thread, with its own strip buffers; the one mean
over the SSIM map stays, so each score is the serial one.
"""

from __future__ import annotations

import math

import numpy as np

from .partitioner import run_parts, window_sums
from .video_io import Frame

PSNR_CAP_DB = 99.99
SSIM_WINDOW = 8
# window positions per float-stage strip, in whole rows: per coding, 32 to
# 64 rows were fastest at 960x540, 16 to 64 at 1920x1080, and one strip of
# all 121 rows at 128x128
SSIM_STRIP = 2**16


def mse_to_psnr(mse: float, bit_depth: int) -> float:
    if mse <= 0:
        return PSNR_CAP_DB
    peak = (1 << bit_depth) - 1
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP_DB)


def _plane_sums(plane: np.ndarray) -> tuple:
    """int32 window sums of plane and of its square, as (h - 7, w) rows."""
    h, w = plane.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"plane {h}x{w} is smaller than the "
                         f"{SSIM_WINDOW}x{SSIM_WINDOW} window")
    sums = np.empty(plane.shape, np.int32)
    square = np.multiply(plane, plane, dtype=np.int32)
    window_sums(plane, SSIM_WINDOW, sums)
    window_sums(square, SSIM_WINDOW, square)
    return sums[: 1 - SSIM_WINDOW], square[: 1 - SSIM_WINDOW]


def ssim_plane(ref_plane: np.ndarray, test_plane: np.ndarray,
               bit_depth: int, sums: tuple | None = None) -> float:
    """Mean SSIM of one channel over all window positions.

    sums is _plane_sums(ref_plane), computed here when not given.
    """
    if ref_plane.shape != test_plane.shape:
        raise ValueError("planes must share dimensions")
    sum_a, sum_aa = (s.ravel() for s in sums or _plane_sums(ref_plane))
    h, w = ref_plane.shape
    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    win = SSIM_WINDOW
    inv = 1 / (win * win)  # a power of two, so * inv is / 64 bit for bit
    rows = h - win + 1
    strip = min(max(1, SSIM_STRIP // w), rows)
    ssim_map = np.empty((rows, w - win + 1))

    def mean(x, out):
        out[...] = x
        return np.multiply(out, inv, out=out)

    def window_mean(x, prod, out):
        window_sums(x, win, prod)
        return mean(prod.reshape(-1)[: len(out)], out)

    def product(x, y, prod):
        return np.multiply(x, y, dtype=np.int32, out=prod[: len(x)])

    def score_strips(lo, hi):
        """Writes the SSIM map's window rows of strips lo..hi-1."""
        # One int32 buffer takes the test plane's products and window
        # sums, and the float stage works in place on five strip buffers
        # (fresh temporaries cost a page fault per 4 KiB), each one flat
        # span of full-width rows up to the strip's last window position:
        # a column past w - 8 sums 64 samples across a row end, and is
        # dropped.
        prod = np.empty((strip + win - 1, w), dtype=np.int32)
        floats = np.empty((5, strip, w))
        for r0 in range(lo * strip, min(hi * strip, rows), strip):
            r1 = min(r0 + strip, rows)
            a, b = ref_plane[r0: r1 + win - 1], test_plane[r0: r1 + win - 1]
            o, span = r0 * w, (r1 - r0) * w - win + 1
            f0, f1, f2, f3, f4 = floats.reshape(5, -1)[:, :span]
            mu_a = mean(sum_a[o: o + span], f0)
            mu_b = window_mean(b, prod, f1)
            mu_ab = np.multiply(mu_a, mu_b, out=f4)
            mu_aa = np.multiply(mu_a, mu_a, out=mu_a)
            mu_bb = np.multiply(mu_b, mu_b, out=mu_b)
            var_a = mean(sum_aa[o: o + span], f2)
            var_a -= mu_aa
            var_b = window_mean(product(b, b, prod), prod, f3)
            var_b -= mu_bb
            # the SSIM map is ((2*mu_ab + c1) * (2*cov + c2)) /
            # ((mu_aa + mu_bb + c1) * (var_a + var_b + c2)), in that order
            den = var_a
            den += var_b
            den += c2
            cov = window_mean(product(a, b, prod), prod, var_b)
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
            ssim_map[r0: r1] = floats[4, : r1 - r0, : 1 - win]
        return []

    run_parts(score_strips, -(-rows // strip), h * w)
    # one mean over the whole map keeps the pairwise summation order
    return float(ssim_map.mean())


def ssim_global(ref: Frame, tests: list) -> list:
    """Global GBR score of each test frame against ref, in order: the mean
    of its three channel SSIMs. Every test is checked first; then, channel
    by channel, ref's window sums are taken once and shared by every test.
    """
    shape = (ref.width, ref.height, ref.bit_depth)
    if any((t.width, t.height, t.bit_depth) != shape for t in tests):
        raise ValueError("frames must share dimensions and bit depth")
    scores = [0.0] * len(tests)
    for ch, plane in enumerate(ref.planes):
        sums = _plane_sums(plane)
        scores = [score + ssim_plane(plane, t.planes[ch], ref.bit_depth, sums)
                  for score, t in zip(scores, tests)]
        del sums  # freed before the next channel's are taken
    return [score / 3.0 for score in scores]


def pct_delta(anchor: float, test: float):
    """Signed percentage change of test against anchor (negative = reduction).

    A non-positive anchor has no ratio: 0.0 if test equals it, else None.
    """
    if anchor <= 0:
        return 0.0 if test == anchor else None
    return 100.0 * (test - anchor) / anchor
