import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from spaqlab.experiment import CellResult
from spaqlab.partitioner import window_sums
from spaqlab.quality_metrics import (
    PSNR_CAP_DB,
    mse_to_psnr,
    pct_delta,
    ssim_global,
    ssim_plane,
)
from spaqlab.video_io import Frame


def brute_force_ssim(ref, test, bit_depth, window=8):
    """Windowed SSIM by direct per-window statistics (oracle path)."""
    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    h, w = ref.shape
    scores = []
    for y in range(h - window + 1):
        for x in range(w - window + 1):
            a = ref[y: y + window, x: x + window].astype(np.float64)
            b = test[y: y + window, x: x + window].astype(np.float64)
            mu_a, mu_b = a.mean(), b.mean()
            var_a = ((a - mu_a) ** 2).mean()
            var_b = ((b - mu_b) ** 2).mean()
            cov = ((a - mu_a) * (b - mu_b)).mean()
            scores.append(
                (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def integral_image_ssim(ref, test, bit_depth, window=8):
    """SSIM by the straightforward integral-image expression, one fresh
    array per step: the operation order ssim_plane must reproduce."""
    def window_sums(x):
        h, w = x.shape
        c = np.zeros((h + 1, w + 1), dtype=np.int64)
        np.cumsum(np.cumsum(x, axis=0, dtype=np.int64), axis=1, out=c[1:, 1:])
        return (c[window:, window:] - c[:-window, window:]
                - c[window:, :-window] + c[:-window, :-window])

    peak = (1 << bit_depth) - 1
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    n = window * window
    a = ref.astype(np.int64)
    b = test.astype(np.int64)
    sa = window_sums(a).astype(np.float64)
    sb = window_sums(b).astype(np.float64)
    saa = window_sums(a * a).astype(np.float64)
    sbb = window_sums(b * b).astype(np.float64)
    sab = window_sums(a * b).astype(np.float64)
    mu_a = sa / n
    mu_b = sb / n
    var_a = saa / n - mu_a * mu_a
    var_b = sbb / n - mu_b * mu_b
    cov = sab / n - mu_a * mu_b
    ssim_map = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
    return float(ssim_map.mean())


def rand_frame(rng, w=16, h=16, depth=8):
    planes = tuple(
        rng.integers(0, 1 << depth, (h, w), dtype=np.int64).astype(np.int32)
        for _ in range(3)
    )
    return Frame(w, h, depth, planes)


def test_psnr_identical_planes_capped():
    assert mse_to_psnr(0, 8) == PSNR_CAP_DB


def test_psnr_unit_mse():
    got = mse_to_psnr(1, 8)
    assert got == pytest.approx(10 * math.log10(255 ** 2), abs=1e-9)
    assert got == pytest.approx(48.13, abs=0.01)


def test_psnr_log_law():
    one = mse_to_psnr(1, 8)
    four = mse_to_psnr(4, 8)
    assert one - four == pytest.approx(10 * math.log10(4), abs=1e-9)


def test_ssim_identical_frames_is_exactly_one():
    rng = np.random.default_rng(1)
    f = rand_frame(rng)
    g = Frame(f.width, f.height, f.bit_depth, tuple(p.copy() for p in f.planes))
    assert ssim_global(f, g) == 1.0


def test_ssim_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for depth in (8, 10):
        ref = rng.integers(0, 1 << depth, (16, 16), dtype=np.int64).astype(np.int32)
        test = np.clip(
            ref + rng.integers(-20, 21, (16, 16)), 0, (1 << depth) - 1
        ).astype(np.int32)
        got = ssim_plane(ref, test, depth)
        assert got == pytest.approx(brute_force_ssim(ref, test, depth), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(8, 64), st.integers(8, 64), st.sampled_from((8, 10, 12)),
       st.integers(0, 2**32 - 1), st.integers(0, 64))
def test_ssim_plane_equals_integral_image_expression_property(
        h, w, depth, seed, spread):
    rng = np.random.default_rng(seed)
    maxv = (1 << depth) - 1
    ref = rng.integers(0, maxv + 1, (h, w)).astype(np.int32)
    noise = rng.integers(-spread, spread + 1, (h, w))
    test = np.clip(ref + noise, 0, maxv).astype(np.int32)
    assert ssim_plane(ref, test, depth) == integral_image_ssim(ref, test, depth)
    assert ssim_plane(test, ref, depth) == integral_image_ssim(test, ref, depth)


def near_max_pair(size, seed):
    """Two 12-bit planes within 40 of 4095: every int32 integral wraps."""
    rng = np.random.default_rng(seed)
    ref = rng.integers(4055, 4096, (size, size)).astype(np.int32)
    test = np.clip(ref + rng.integers(-40, 41, (size, size)), 4055,
                   4095).astype(np.int32)
    return ref, test


def test_ssim_plane_exact_where_the_int32_integral_wraps():
    ref, test = near_max_pair(736, 8)
    # even the plain-sample integral passes 2^31: 736 * 736 * 4055 > 2^31
    assert int(ref.sum(dtype=np.int64)) >= 2**31
    assert ssim_plane(ref, test, 12) == integral_image_ssim(ref, test, 12)
    assert ssim_plane(test, ref, 12) == integral_image_ssim(test, ref, 12)


@pytest.mark.parametrize("k", [8, 16, 32])
def test_window_sums_match_direct_sums_past_int32_wrap(k):
    ref, test = near_max_pair(736, k)
    # 8x8 windows of 12-bit products are SSIM's largest sums; a 16x16 or
    # 32x32 window of them would not fit in int32
    for x in (ref, test) + ((ref * test,) if k == 8 else ()):
        integral = np.zeros((737, 737), dtype=np.int32)
        got = window_sums(x, k, integral)
        want = sliding_window_view(x, (k, k)).sum(axis=(-2, -1),
                                                  dtype=np.int64)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


def test_channel_replaced_by_its_mean():
    rng = np.random.default_rng(3)
    ref = rand_frame(rng)
    flat_g = np.full_like(ref.planes[0], int(ref.planes[0].mean()))
    test = Frame(ref.width, ref.height, ref.bit_depth,
                 (flat_g, ref.planes[1].copy(), ref.planes[2].copy()))
    per_channel = [
        ssim_plane(ref.planes[ch], test.planes[ch], 8) for ch in range(3)
    ]
    assert per_channel[1] == 1.0 and per_channel[2] == 1.0
    assert per_channel[0] < 0.5
    assert per_channel[0] == pytest.approx(
        brute_force_ssim(ref.planes[0], flat_g, 8), abs=1e-12
    )
    assert ssim_global(ref, test) == pytest.approx(sum(per_channel) / 3, abs=1e-12)


def test_constant_offset_drops_luminance_only():
    rng = np.random.default_rng(4)
    ref = rng.integers(0, 200, (16, 16), dtype=np.int64).astype(np.int32)
    test = ref + 32
    got = ssim_plane(ref, test, 8)
    assert 0.0 < got < 1.0
    assert got == pytest.approx(brute_force_ssim(ref, test, 8), abs=1e-12)
    # structure term is 1: score equals the luminance term alone
    peak = 255.0
    c1 = (0.01 * peak) ** 2
    windows = []
    for y in range(9):
        for x in range(9):
            mu = ref[y: y + 8, x: x + 8].mean()
            windows.append(
                (2 * mu * (mu + 32) + c1) / (mu ** 2 + (mu + 32) ** 2 + c1)
            )
    assert got == pytest.approx(float(np.mean(windows)), abs=1e-9)


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a = rand_frame(rng)
    b = rand_frame(rng)
    assert abs(ssim_global(a, b) - ssim_global(b, a)) <= 1e-12


def test_ssim_window_larger_than_frame_rejected():
    f = rand_frame(np.random.default_rng(6), w=4, h=4)
    with pytest.raises(ValueError):
        ssim_global(f, f)


def test_ssim_frame_mismatch_rejected():
    rng = np.random.default_rng(7)
    a = rand_frame(rng, w=16, h=16)
    b = rand_frame(rng, w=16, h=8)
    with pytest.raises(ValueError):
        ssim_global(a, b)


def test_pct_reduction():
    assert pct_delta(100, 28.3) == pytest.approx(-71.7)
    assert pct_delta(42, 42) == 0.0
    assert pct_delta(50, 60) == pytest.approx(20.0)
    # a non-positive anchor has no ratio
    assert pct_delta(0, 1) is None
    assert pct_delta(-5, 1) is None


def _cell(psnr_db, mse, ssim, bits):
    return CellResult("spaq", 27, bits, (0, 0, 0), mse, psnr_db, ssim,
                      [], [], [], [])


def test_metric_report_deltas():
    anchor = _cell(psnr_db=(40.0, 40.0, 40.0), mse=(4.0, 4.0, 4.0),
                   ssim=0.99, bits=1000)
    test = _cell(psnr_db=(38.0, 36.0, 36.0), mse=(8.0, 16.0, 16.0),
                 ssim=0.97, bits=283)
    test.set_deltas(anchor)
    assert test.pct_bits == pytest.approx(-71.7)
    assert test.pct_psnr_db[0] == pytest.approx(-5.0)
    assert test.pct_psnr_mse[0] == pytest.approx(100.0)
    assert test.pct_psnr_mse[1] == pytest.approx(300.0)
    # degenerate anchors: equal stays 0, a lossless anchor has no ratio
    zero = _cell(psnr_db=(99.99,) * 3, mse=(0.0,) * 3, ssim=1.0, bits=0)
    zero.set_deltas(zero)
    assert zero.pct_bits == 0.0 and zero.pct_psnr_mse == (0.0, 0.0, 0.0)
    test.set_deltas(zero)
    assert test.pct_psnr_mse[0] is None
