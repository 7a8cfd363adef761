"""Acceptance gate: one test per criterion, each printing a PASS line.

The desk-scale sweep (4 synthetic kinds x 3 modes x 4 QPs at 128x128x16
frames) runs once as a session fixture; the directional criteria read
from it. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import math
import shutil
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    normalized_activity,
    perceptual_offset,
    sub_block_variance,
    temporal_offset_br,
    temporal_offset_g,
)
from spaqlab.codec_sim import dct2, encode_frame, idct2
from spaqlab.experiment import (
    ANCHOR_MODE,
    ExperimentConfig,
    gen_synthetic,
    run,
    run_cell,
)
from spaqlab.motion_model import estimate_motion_field, motion_field
from spaqlab.partitioner import BlockRef, build_grid, pad_plane
from spaqlab.qp_model import BR_RANGE, G_RANGE
from spaqlab.quality_metrics import ssim_global
from spaqlab.spatial_activity import frame_mean_activity
from spaqlab.video_io import G

SWEEP_KINDS = ("noise", "gradient", "moving-texture", "mixed")
SWEEP_MODES = (ANCHOR_MODE, "spaq", "spatial-only")
SWEEP_QPS = (22, 27, 32, 37)
SWEEP_DIMS = (128, 128)
SWEEP_FRAMES = 16


def sweep_config(kind, **kw):
    base = dict(
        synthetic=kind,
        width=SWEEP_DIMS[0],
        height=SWEEP_DIMS[1],
        frames=SWEEP_FRAMES,
        qps=SWEEP_QPS,
        modes=SWEEP_MODES,
        cb_depth=1,
        search_range=16,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def sweep():
    t0 = time.perf_counter()
    reports = {}
    for kind in SWEEP_KINDS:
        reports[kind] = run(sweep_config(kind))
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_offset_range_suite():
    """Every perceptual adjustment stays inside its published window."""
    rng = np.random.default_rng(2024)
    n = 10_000
    activities = rng.uniform(0.5, 2.0, n)
    activities[:3] = (0.5, 1.0, 2.0)  # exact boundary inputs
    high = rng.integers(0, 2, n).astype(bool)
    t0 = time.perf_counter()
    violations = 0
    for a, h in zip(activities, high):
        dg = perceptual_offset(float(a), 3.0 if h else 0.0, *G_RANGE)
        db = perceptual_offset(float(a), 6.0 if h else 0.0, *BR_RANGE)
        dr = perceptual_offset(float(a), 6.0 if h else 0.0, *BR_RANGE)
        if not 3.0 <= dg <= 6.0:
            violations += 1
        if not (6.0 <= db <= 12.0 and 6.0 <= dr <= 12.0):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 1.0
    print(f"[offset-range] PASS: 0 violations over {n} inputs "
          f"({elapsed:.3f}s)")


def test_equation_oracles():
    """Core quantities match independent brute-force evaluation to 1e-9."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()

    for _ in range(1000):
        blk = rng.integers(0, 1024, (4, 4), dtype=np.int64).astype(np.int32)
        flat = [float(v) for v in blk.flatten()]
        mean = math.fsum(flat) / len(flat)
        oracle = math.fsum((v - mean) ** 2 for v in flat) / len(flat)
        got = sub_block_variance(blk, BlockRef(0, 0, 4))
        assert abs(got - oracle) <= 1e-9

    for _ in range(1000):
        vals = rng.uniform(1.0, 500.0, int(rng.integers(1, 9))).tolist()
        assert abs(frame_mean_activity(vals)
                   - math.fsum(vals) / len(vals)) <= 1e-9

    for _ in range(1000):
        g = float(rng.uniform(1.0, 1000.0))
        m = float(rng.uniform(1.0, 1000.0))
        exact = Fraction(2) * Fraction(g) + Fraction(m)
        exact /= Fraction(g) + Fraction(2) * Fraction(m)
        assert abs(normalized_activity(g, m, 2.0) - float(exact)) <= 1e-9

    for _ in range(1000):
        x, y = (int(v) for v in rng.integers(-64, 65, 2))
        assert abs(motion_field([(x, y)]).magnitudes[0]
                   - math.sqrt(x * x + y * y)) <= 1e-9

    for _ in range(1000):
        comps = rng.integers(-32, 33, (int(rng.integers(1, 10)), 2))
        oracle = math.fsum(
            math.sqrt(float(a * a + b * b)) for a, b in comps
        ) / len(comps)
        assert abs(motion_field(comps).mean_magnitude - oracle) <= 1e-9

    for _ in range(1000):
        mag = float(rng.uniform(0.0, 10.0))
        v = float(rng.uniform(0.0, 10.0))
        assert temporal_offset_g(mag, v) == (3.0 if mag > v else 0.0)
        assert temporal_offset_br(mag, v) == (6.0 if mag > v else 0.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[equation-oracles] PASS: 6 operations x 1000 random inputs "
          f"within 1e-9 ({elapsed:.2f}s)")


def test_transform_suite():
    """Round trip to 1e-9, Parseval to 1e-6 relative, exact 4x4 DC."""
    rng = np.random.default_rng(11)
    worst_rt = 0.0
    worst_pv = 0.0
    for n in (4, 8, 16, 32, 64):
        x = rng.integers(-4095, 4096, (n, n)).astype(np.float64)
        c = dct2(x)
        worst_rt = max(worst_rt, float(np.abs(idct2(c) - x).max()))
        ex = float((x * x).sum())
        worst_pv = max(worst_pv, abs(float((c * c).sum()) - ex) / ex)
    assert worst_rt < 1e-9
    assert worst_pv < 1e-6

    coeffs = dct2(np.ones((4, 4)))
    assert coeffs[0, 0] == 4.0
    # naive O(N^4) oracle for the same block
    dc = 0.0
    for i in range(4):
        for j in range(4):
            dc += 1.0 * math.sqrt(1 / 4) * math.sqrt(1 / 4)
    assert coeffs[0, 0] == dc
    print(f"[transform] PASS: round-trip {worst_rt:.2e}, "
          f"Parseval rel {worst_pv:.2e}, 4x4 DC exact")


def test_motion_suite():
    """Planted shift (3,4) recovered on >= 90% of fully-textured PUs;
    static content leaves every temporal offset at zero."""
    from spaqlab.experiment import moving_patch_rect

    seq = gen_synthetic("moving-texture", *SWEEP_DIMS, SWEEP_FRAMES, 8,
                        seed=0, shift=(3, 4))
    grid = build_grid(*SWEEP_DIMS, 1)
    hits = total = 0
    for n in range(1, SWEEP_FRAMES):
        cur = pad_plane(seq.frames[n].planes[G], grid)
        ref = pad_plane(seq.frames[n - 1].planes[G], grid)
        field = estimate_motion_field(cur, ref, grid, 16)
        px, py, side = moving_patch_rect(*SWEEP_DIMS, SWEEP_FRAMES, (3, 4), n)
        qx, qy, _ = moving_patch_rect(*SWEEP_DIMS, SWEEP_FRAMES, (3, 4), n - 1)
        assert (px - qx, py - qy) == (3, 4)  # no edge clamping engaged
        for idx, pu in enumerate(grid.blocks):
            fully_textured = (
                px <= pu.x and pu.x + pu.size <= px + side
                and py <= pu.y and pu.y + pu.size <= py + side
            )
            if fully_textured:
                total += 1
                if field.magnitudes[idx] == 5.0:
                    hits += 1
    assert total > 0
    assert hits / total >= 0.9

    plane = gen_synthetic("noise", 64, 64, 1, 8, seed=1).frames[0].planes[G]
    static_field = estimate_motion_field(plane, plane.copy(),
                                         build_grid(64, 64, 2), 8)
    assert (static_field.vectors == 0).all()
    for m in static_field.magnitudes:
        assert temporal_offset_g(m, static_field.mean_magnitude) == 0.0
        assert temporal_offset_br(m, static_field.mean_magnitude) == 0.0
    print(f"[motion] PASS: planted shift on {hits}/{total} textured PUs, "
          f"static offsets all zero")


def test_spaq_dominance(sweep):
    """SPAQ never spends more proxy bits than the anchor; strictly fewer
    wherever the anchor coded any levels."""
    reports, _ = sweep
    sig_floor = 3 * 128 * 128 * SWEEP_FRAMES  # significance map only
    for kind in SWEEP_KINDS:
        cells = reports[kind].cells
        for qp in SWEEP_QPS:
            anchor = cells[(ANCHOR_MODE, qp)].bits
            spaq = cells[("spaq", qp)].bits
            assert spaq <= anchor, f"{kind} QP{qp}: {spaq} > {anchor}"
            if anchor > sig_floor:
                assert spaq < anchor, f"{kind} QP{qp} not strictly below"
            # ablation lattice: a subset of the offsets lands in between
            spatial = cells[("spatial-only", qp)].bits
            assert spaq <= spatial <= anchor
    mixed = reports["mixed"].cells
    a22, s22 = mixed[(ANCHOR_MODE, 22)].bits, mixed[("spaq", 22)].bits
    reduction = 100.0 * (s22 - a22) / a22
    assert s22 < a22  # directional requirement
    print(f"[dominance] PASS: spaq <= anchor on all {len(SWEEP_KINDS)} kinds "
          f"x {len(SWEEP_QPS)} QPs; mixed@QP22 reduction {reduction:.1f}% "
          f"(expected <= -10%)")


def replay(seq, grid, cell, search_range):
    """A closed-loop cell's reconstructions, recoded from its QP maps.

    run() keeps no reconstructions, so a test that needs them codes the
    cell again; the recoded bits must equal the cell's, frame by frame.
    """
    recons, ref = [], None
    for frame, qmap, bits in zip(seq.frames, cell.qp_maps, cell.frame_bits,
                                 strict=True):
        fld = None if ref is None else estimate_motion_field(
            pad_plane(frame.planes[G], grid), pad_plane(ref.planes[G], grid),
            grid, search_range)
        enc = encode_frame(frame, ref, qmap, grid, fld)
        assert enc.bits == bits
        ref = enc.recon
        recons.append(ref)
    return recons


def test_perceptual_floor(sweep):
    """Mixed@QP22: SSIM between the SPAQ and anchor reconstructions."""
    reports, _ = sweep
    cells = reports["mixed"].cells
    cfg = sweep_config("mixed")
    seq = gen_synthetic("mixed", *SWEEP_DIMS, SWEEP_FRAMES, 8, seed=0)
    grid = build_grid(*SWEEP_DIMS, cfg.cb_depth)
    anchor, spaq = (replay(seq, grid, cells[mode, 22], cfg.search_range)
                    for mode in (ANCHOR_MODE, "spaq"))
    floor = sum(ssim_global(a, [b])[0]
                for a, b in zip(anchor, spaq)) / len(anchor)
    if floor >= 0.95:
        print(f"[perceptual-floor] PASS: SSIM(spaq, anchor) = {floor:.4f} "
              f">= 0.95 (default clamp scope)")
        return
    # repeat under the alternate clamp scope and report the discrepancy
    term = sweep_config("mixed", clamp_scope="term")
    spaq_term = replay(seq, grid, run_cell(seq, grid, "spaq", 22, term),
                       cfg.search_range)
    floor_term = sum(ssim_global(a, [b])[0]
                     for a, b in zip(anchor, spaq_term)) / len(anchor)
    pytest.fail(
        f"default clamp scope floor {floor:.4f} < 0.95; "
        f"alternate 'term' scope gives {floor_term:.4f}"
    )


def test_monotone_rate_curve(sweep):
    """Total bit cost is nonincreasing in QP for every mode and kind."""
    reports, _ = sweep
    for kind in SWEEP_KINDS:
        cells = reports[kind].cells
        for mode in SWEEP_MODES:
            bits = [cells[(mode, qp)].bits for qp in SWEEP_QPS]
            assert all(b1 >= b2 for b1, b2 in zip(bits, bits[1:])), (
                f"{kind}/{mode}: {bits}"
            )
    print("[monotone-rate] PASS: nonincreasing over QPs "
          f"{list(SWEEP_QPS)} for all kinds and modes")


def _emitted(out):
    """Relative path -> bytes of every file under an output directory."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_report_determinism(tmp_path):
    """Identical config and seed give byte-identical output files: both
    reports, the rate points and every QP map dump."""
    out = tmp_path / "rep"
    cfg = sweep_config("mixed", qps=(22, 37), modes=(ANCHOR_MODE, "spaq"),
                       out_dir=str(out))
    run(cfg)
    first = _emitted(out)
    shutil.rmtree(out)
    run(sweep_config("mixed", qps=(22, 37), modes=(ANCHOR_MODE, "spaq"),
                     out_dir=str(out)))
    assert _emitted(out) == first
    qpmaps = [name for name in first if name.startswith("qpmaps/")]
    assert len(qpmaps) == 2 * 2 * SWEEP_FRAMES  # modes x QPs x frames
    assert set(first) - set(qpmaps) == {
        "report.csv", "report.json", "rate_points.csv"}
    print(f"[determinism] PASS: {len(first)} files byte-identical across "
          f"reruns ({sum(map(len, first.values()))} bytes)")


def test_sweep_runtime(sweep):
    """4 synthetics x 3 modes x 4 QPs at 128x128x16 inside 5 minutes."""
    _, elapsed = sweep
    assert elapsed < 300.0
    print(f"[runtime] PASS: full sweep in {elapsed:.1f}s < 300s")
