import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import qpmap_csv_text, run_cell_alone
from spaqlab import experiment, motion_model, partitioner
from spaqlab.cli import build_parser, config_from_args, main
from spaqlab.experiment import (
    ANCHOR_MODE,
    RATE_POINT_COLUMNS,
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    _qpmap_csv,
    emit,
    gen_synthetic,
    run,
    run_cell,
)
from spaqlab.motion_model import estimate_motion_field
from spaqlab.partitioner import CB_SIZE_BY_DEPTH, build_grid, pad_plane
from spaqlab.qp_model import CLAMP_SCOPES, QP_MAX, QP_MIN, qp_to_qstep
from spaqlab.spatial_activity import compute_activity_map
from spaqlab.video_io import (G, SUPPORTED_BIT_DEPTHS, RawFormatError,
                              Sequence, frame_byte_size, write_raw)


def small_cfg(**kw):
    base = dict(
        synthetic="mixed",
        width=64,
        height=64,
        frames=3,
        qps=(22, 37),
        modes=(ANCHOR_MODE, "spaq"),
        cb_depth=2,
        search_range=4,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_synthetic_determinism():
    for kind in ("noise", "gradient", "moving-texture", "mixed"):
        a = gen_synthetic(kind, 64, 64, 3, 8, seed=1)
        b = gen_synthetic(kind, 64, 64, 3, 8, seed=1)
        for fa, fb in zip(a.frames, b.frames):
            for pa, pb in zip(fa.planes, fb.planes):
                assert np.array_equal(pa, pb)
    # the random kinds must react to the seed (the gradient is seed-free)
    for kind in ("noise", "moving-texture", "mixed"):
        a = gen_synthetic(kind, 64, 64, 3, 8, seed=1)
        c = gen_synthetic(kind, 64, 64, 3, 8, seed=2)
        assert any(
            not np.array_equal(pa, pc)
            for fa, fc in zip(a.frames, c.frames)
            for pa, pc in zip(fa.planes, fc.planes)
        )


# SHA-256 over every frame's G, B, R samples as little-endian int32, for
# 67x65 frames (odd sizes, unlike the benchmark inputs), 3 frames, seed 5
SYNTHETIC_DIGESTS = {
    (8, "noise"): "bdb5862caf4c109edc4d6f4f004575e04cd983312924ac1f705d70f5b501ba49",
    (8, "gradient"): "ebdba0a63517f04ee94f42256ed6a6a43ada75c9ad4e7435d5cfd582e78c72ff",
    (8, "moving-texture"): "23255a327f9cf17a3af5d31fb9a8574dd81b39e6d17d3e00b829aa76db31edd7",
    (8, "mixed"): "bb2269267c2f098d47125bed285c104449cc130ed29a0eab5e92162f4196380e",
    (10, "noise"): "e35f9c3ba8fe9c81ae2ec0aa877d37e007efa605ae5e51a66ba8b03b75dca4ca",
    (10, "gradient"): "b5b0f359c6f5c3c15d9db962b7aed9d61b39e15864780c2d69289b6c7bfd9420",
    (10, "moving-texture"): "ef60bfc6606523ea4f8b81cd3c2fb8e52823021f9e13a13336f58aa27ff74e7d",
    (10, "mixed"): "19ffe08913d053e3a5cd9bf56d374609abfd6c9e46251c0442b38567294ee34c",
}


@pytest.mark.parametrize("bit_depth, kind", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_samples_pinned_at_odd_size(bit_depth, kind):
    seq = gen_synthetic(kind, 67, 65, 3, bit_depth, seed=5)
    h = hashlib.sha256()
    for f in seq.frames:
        h.update(np.ascontiguousarray(f.planes, dtype="<i4").tobytes())
    assert h.hexdigest() == SYNTHETIC_DIGESTS[bit_depth, kind]


# SHA-256 of every file run() emits for a 64x64 moving-texture sequence,
# 3 frames, QPs 22/37, all four modes, 16x16 CBs, the default search
# range; out_dir is the relative "out", so report.json's echo is fixed too
RUN_DIGESTS = {
    "qpmaps/anchor-uniform_qp22/qpmap_0000.csv":
        "e38971821bc0a2973dcfe44c5d1878ced514798826afe1dbb7de17df54f8a83b",
    "qpmaps/anchor-uniform_qp22/qpmap_0001.csv":
        "b12ed6fadba7ff8c51926a69f238d26cea5e48e3e512ac18cb8d2994d291e53e",
    "qpmaps/anchor-uniform_qp22/qpmap_0002.csv":
        "e11262f5d48a6bb488dcaafefe3f87bf05115f56e0c24617cbc676c4be016741",
    "qpmaps/anchor-uniform_qp37/qpmap_0000.csv":
        "e8816ac2264343fa923367aad3a3570e6cf78ef9335bda4c1ac9f5f4c0062070",
    "qpmaps/anchor-uniform_qp37/qpmap_0001.csv":
        "a792bd67f1c625ac2f28017ca8eec4d4e24d5ce9057fb33bbfe359085ee8e53d",
    "qpmaps/anchor-uniform_qp37/qpmap_0002.csv":
        "fef3f4131a581295320e36b39fa7069190603eea6244bbee7efe1b5c2f9ff75f",
    "qpmaps/spaq_qp22/qpmap_0000.csv":
        "86d536957d002398a9558d233d54a019e52b3df1692a8a7f9285b2a0a103d1ad",
    "qpmaps/spaq_qp22/qpmap_0001.csv":
        "1e8603539a7340f65c9f00f416de0fd2157d85a1604287f176041c149df2a64d",
    "qpmaps/spaq_qp22/qpmap_0002.csv":
        "d61f9c047d07a2b18b9580a098e038e046d37aeb52de38e7b446a1da3fc7b5a7",
    "qpmaps/spaq_qp37/qpmap_0000.csv":
        "476b8c3b40d7a2e70db1cddd5188720f4ffb365f9051441bd737acf4fb4728b2",
    "qpmaps/spaq_qp37/qpmap_0001.csv":
        "e931b8c81991182b3a94fac023a18877c89507013231234515df8a9dc7ae1899",
    "qpmaps/spaq_qp37/qpmap_0002.csv":
        "e6c6677fd290c58242e0023f1386f673b0c0936497647ba18980cd80eb5fcfbe",
    "qpmaps/spatial-only_qp22/qpmap_0000.csv":
        "86d536957d002398a9558d233d54a019e52b3df1692a8a7f9285b2a0a103d1ad",
    "qpmaps/spatial-only_qp22/qpmap_0001.csv":
        "6625a8e563d4894fa08fd1ebaacdb63ce2a8d9aad6c5b28e18fcde8f319fb55b",
    "qpmaps/spatial-only_qp22/qpmap_0002.csv":
        "eb4c26849f514a7c81fc8a967ca2484fc51b06eef28bda194896ca764b90d800",
    "qpmaps/spatial-only_qp37/qpmap_0000.csv":
        "476b8c3b40d7a2e70db1cddd5188720f4ffb365f9051441bd737acf4fb4728b2",
    "qpmaps/spatial-only_qp37/qpmap_0001.csv":
        "dc5a929948c22685defa44ea9fb18db24db3a9dba4fd9d818bb4bd5fab89b2f3",
    "qpmaps/spatial-only_qp37/qpmap_0002.csv":
        "d52282b817a9bf2101d4371a250445498ba7fc1579da861ca98f4375ecf80f0e",
    "qpmaps/temporal-only_qp22/qpmap_0000.csv":
        "f21b596cc63c5fc64b36fb140f03cb1b13ef078ca8000db6cb74440038f94c58",
    "qpmaps/temporal-only_qp22/qpmap_0001.csv":
        "924b529be721a75ee25b13aea4708ba1747071ee3123ac4faffcf2e90c6eed84",
    "qpmaps/temporal-only_qp22/qpmap_0002.csv":
        "7d85033edf74a8b9a80bb10d6ea8c1f2fafe2dcc778897f0d1d44d97d359615e",
    "qpmaps/temporal-only_qp37/qpmap_0000.csv":
        "d53c1bfb2a431953fc7d25c9dbc6a57ef07e95cbc2c6be208b03682b9279059f",
    "qpmaps/temporal-only_qp37/qpmap_0001.csv":
        "35f490dd4505ebffbf7a3acf569138969a0954061264afd6bc68ba57bd7e39c0",
    "qpmaps/temporal-only_qp37/qpmap_0002.csv":
        "bd39c31432f13ada365faf1939992346869ed86af6f0eaacecec1771b8b70bac",
    "rate_points.csv":
        "4ab7d18c1c7c0099009fb9a70a97ffaa303e6870bb47971dad5c949b79ac28cb",
    "report.csv":
        "9214cfc75b9d19355f56472c220de962fe8cfaa9efb30344ff0f5b6168c5e129",
    "report.json":
        "61cb15427839834457ef7480bbe2e9e8b3dd8b9a40a556301ebb8c9fda6762f6",
}


def test_small_run_pinned_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(ExperimentConfig(synthetic="moving-texture", width=64, height=64,
                         frames=3, qps=(22, 37), modes=experiment.MODES,
                         cb_depth=2, seed=0, out_dir="out"))
    out = tmp_path / "out"
    assert {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()} == RUN_DIGESTS


ABLATION_DIGESTS = {
    "qpmaps/anchor-uniform_qp0/qpmap_0000.csv":
        "e029d88d97a85373e1a120eb3ad5a2d3073e2493301b0cad3993993b7a078119",
    "qpmaps/anchor-uniform_qp0/qpmap_0001.csv":
        "d8b2b48a9a16bb53516abedda7c0fc36c9e0128decc55613fd9ec8a5a6c3f2d3",
    "qpmaps/anchor-uniform_qp0/qpmap_0002.csv":
        "f8db78c98cb11b542b1982c7020106b6b9638fac2da8e1f5bc27f638040b35d3",
    "qpmaps/anchor-uniform_qp51/qpmap_0000.csv":
        "3a899966fd4a443e4025c28604ddfd9b245ea22956e25610ce86536ff9c64ec6",
    "qpmaps/anchor-uniform_qp51/qpmap_0001.csv":
        "034facc94d85531c38c712cef409fe2f1f11a128f012d28ac79106b135e41537",
    "qpmaps/anchor-uniform_qp51/qpmap_0002.csv":
        "4cc0e01a525a3d479a6c2a54bce65984eb62a6760f63a7564098904c3df493f6",
    "qpmaps/spaq_qp0/qpmap_0000.csv":
        "7d59116b03f6fc5d9412d346fac154eef202c808709587d336491e070947c20e",
    "qpmaps/spaq_qp0/qpmap_0001.csv":
        "6e8175275fa1f13c3fd421fcceee8b2d54cdd725f5ec37bdf33b1e36f5041fe7",
    "qpmaps/spaq_qp0/qpmap_0002.csv":
        "6e7da2717b4b441fd6a7f95cce7628dfbb79e1adda5161c421bc33ce44967151",
    "qpmaps/spaq_qp51/qpmap_0000.csv":
        "61b58424bd5aa605b6683030eb1309e2f2615d743e6b95b2e0ba24ba07839abe",
    "qpmaps/spaq_qp51/qpmap_0001.csv":
        "51167d585a9dda2c0c1209c481aa63ac1693873698ad61a6bf3fe47041037ad0",
    "qpmaps/spaq_qp51/qpmap_0002.csv":
        "45009b31ece8304495141f0b642d434ae9d193bb3faa04beabf01b993ac32a4c",
    "qpmaps/spatial-only_qp0/qpmap_0000.csv":
        "7d59116b03f6fc5d9412d346fac154eef202c808709587d336491e070947c20e",
    "qpmaps/spatial-only_qp0/qpmap_0001.csv":
        "abfd6464ade9f13731c7f02c86963be5b2d5412fb2704f7dd1d9e310ca80cf7f",
    "qpmaps/spatial-only_qp0/qpmap_0002.csv":
        "4bab0939b7eb6d3a21d815ab50428d9a608b625fd8ffc1fde16efedc78bd892d",
    "qpmaps/spatial-only_qp51/qpmap_0000.csv":
        "61b58424bd5aa605b6683030eb1309e2f2615d743e6b95b2e0ba24ba07839abe",
    "qpmaps/spatial-only_qp51/qpmap_0001.csv":
        "8ef42c4b65e93d767b311b2b26505cef67712d1b377891a40871581f71faaeb6",
    "qpmaps/spatial-only_qp51/qpmap_0002.csv":
        "6b9cdc764965216b23704d5fdbe2d89fc41102871fb4ec2192a82097f62f1cd5",
    "qpmaps/temporal-only_qp0/qpmap_0000.csv":
        "d4f63fb0f55b2fd7544105ed9659cd4f2261aa570186b2c305e54c86ba10c410",
    "qpmaps/temporal-only_qp0/qpmap_0001.csv":
        "d8bc2a6d33bea86b1e5c2bd1410d888aec165d67acdf9dfbabecb5f7caa7a1e0",
    "qpmaps/temporal-only_qp0/qpmap_0002.csv":
        "7887ce0b4fe919b74fe91f164f0dbd652a322eac6a14d617d6e147753d951f77",
    "qpmaps/temporal-only_qp51/qpmap_0000.csv":
        "54a7642471987ededfb2d0d30d05e4fc3174347cef4addd7dd5a54981d583078",
    "qpmaps/temporal-only_qp51/qpmap_0001.csv":
        "02b8e1b31621528c289d220992272e814982f7dd2bf87b7603a57807cf6a376c",
    "qpmaps/temporal-only_qp51/qpmap_0002.csv":
        "4d5a6a411a5c2e67d2ae0ef8135bbb893148c9c553eb9f5b9ac4c2b3723745a6",
    "rate_points.csv":
        "1f4a0867a7a35893a1301de3a577149d76156e23717af41ee030cacf7705707a",
    "report.csv":
        "373e75868fb445225eb3101b49d496753f5e43fa9e877f2415e74f3632be8270",
    "report.json":
        "2b59011c264e909bb0f2aac18d2be3d9102d9102022f62a1a3c0d18f21c625d2",
}


def test_ablation_run_pinned_byte_for_byte(tmp_path, monkeypatch):
    # every non-default knob at once: a padded 12-bit frame, the QP
    # extremes, all four modes, the "term" clamp, the previous frame's
    # mean magnitude, open-loop ME and a negative shift
    monkeypatch.chdir(tmp_path)
    run(ExperimentConfig(synthetic="moving-texture", width=100, height=70,
                         bit_depth=12, frames=3, qps=(0, 51),
                         modes=experiment.MODES, cb_depth=1,
                         clamp_scope="term", open_loop_me=True,
                         v_source="previous", seed=3, shift=(-2, 5),
                         out_dir="out"))
    out = tmp_path / "out"
    assert {p.relative_to(out).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.rglob("*") if p.is_file()} == ABLATION_DIGESTS


def test_12bit_64px_noise_run_pinned(tmp_path, monkeypatch):
    # full-range 12-bit noise searched densely with 64-px PUs, at both QP
    # extremes; report.csv is pinned to the bytes that int64 SAD sums give
    monkeypatch.chdir(tmp_path)
    run(ExperimentConfig(synthetic="noise", width=128, height=128,
                         bit_depth=12, frames=2, qps=(0, 51),
                         modes=experiment.MODES, cb_depth=0, seed=0,
                         out_dir="out"))
    assert hashlib.sha256(
        (tmp_path / "out" / "report.csv").read_bytes()).hexdigest() == (
        "f67c115164aff753a6f5c89946f5d8086a45b66b5a293789503274813c2ef432")


@pytest.mark.parametrize("bit_depth, frames", [(8, 241), (10, 961)])
def test_long_gradient_saturates(bit_depth, frames):
    # past maxv - maxv // 16 frames the brightening reaches maxv and stays
    seq = gen_synthetic("gradient", 16, 16, frames, bit_depth)
    maxv = (1 << bit_depth) - 1
    tops = [int(f.planes.max()) for f in seq.frames]
    assert tops[-2:] == [maxv, maxv]
    assert all(a <= b for a, b in zip(tops, tops[1:]))


@pytest.mark.parametrize("kind", ["mixed", "noise", "gradient"])
def test_narrow_frames_generate_and_run(kind):
    # below width 13, mixed's moving-patch column is clamped at 0
    for width in range(8, 14):
        seq = gen_synthetic(kind, width, 9, 3, 8, seed=3)
        assert [f.planes.shape for f in seq.frames] == [(3, 9, width)] * 3
        report = run(small_cfg(synthetic=kind, width=width, height=9,
                               qps=(22,), seed=3))
        assert len(report.cells) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gen_synthetic("plasma", 64, 64, 2)
    with pytest.raises(ValueError):
        gen_synthetic("moving-texture", 32, 32, 2)


def test_gradient_activity_is_nearly_uniform():
    seq = gen_synthetic("gradient", 128, 128, 2, 8, seed=0)
    grid = build_grid(128, 128, 1)
    amap = compute_activity_map(seq.frames[0], grid)
    for ch in range(3):
        spread = amap.a[ch].max() - amap.a[ch].min()
        assert spread < 0.02
        # ramps carry little variance next to textured content (g ~ 2700)
        assert amap.g[ch].max() < 100


def test_moving_texture_dominant_magnitude():
    seq = gen_synthetic("moving-texture", 128, 128, 4, 8, seed=0, shift=(3, 4))
    grid = build_grid(128, 128, 1)
    mags = []
    for n in range(1, 4):
        cur = pad_plane(seq.frames[n].planes[G], grid)
        ref = pad_plane(seq.frames[n - 1].planes[G], grid)
        field = estimate_motion_field(cur, ref, grid, 16)
        mags.extend(field.magnitudes.tolist())
    assert 5.0 in mags  # the planted shift is recovered somewhere


def test_static_sequence_report(tmp_path):
    rng = np.random.default_rng(0)
    frame_src = gen_synthetic("mixed", 64, 64, 1, 8, seed=3).frames[0]
    seq = Sequence([frame_src, frame_src])
    raw = tmp_path / "static.rgb"
    write_raw(seq, raw)
    # open-loop ME so the reference really equals the current frame;
    # closed-loop ME sees the quantized reconstruction instead and may
    # lock onto quantization noise
    cfg = ExperimentConfig(
        input_path=str(raw), width=64, height=64, frames=2,
        qps=(22,), modes=(ANCHOR_MODE, "spaq"), cb_depth=2, search_range=4,
        open_loop_me=True,
    )
    report = run(cfg)
    anchor = report.cells[(ANCHOR_MODE, 22)]
    spaq = report.cells[("spaq", 22)]
    # inter frame of a static sequence is cheaper than the intra frame
    assert anchor.frame_bits[1] < anchor.frame_bits[0]
    assert 0.0 < anchor.ssim <= 1.0
    assert spaq.bits <= anchor.bits
    # static content: every temporal offset is zero
    for qmap in spaq.qp_maps:
        assert (qmap.t == 0).all()


def test_spaq_dominance_small():
    cfg = small_cfg()
    report = run(cfg)
    for qp in cfg.qps:
        assert report.cells[("spaq", qp)].bits <= report.cells[(ANCHOR_MODE, qp)].bits


def test_mode_lattice_small():
    cfg = small_cfg(modes=(ANCHOR_MODE, "spaq", "spatial-only", "temporal-only"))
    report = run(cfg)
    for qp in cfg.qps:
        anchor = report.cells[(ANCHOR_MODE, qp)].bits
        full = report.cells[("spaq", qp)].bits
        for mode in ("spatial-only", "temporal-only"):
            part = report.cells[(mode, qp)].bits
            assert full <= part <= anchor


def test_anchor_always_present():
    cfg = small_cfg(modes=("spaq",), qps=(27,))
    report = run(cfg)
    modes = {r.mode for r in report.cells.values()}
    assert modes == {ANCHOR_MODE, "spaq"}
    spaq_rec = next(r for r in report.cells.values() if r.mode == "spaq")
    anchor_rec = next(r for r in report.cells.values()
                      if r.mode == ANCHOR_MODE)
    assert anchor_rec.pct_bits == 0.0
    assert spaq_rec.pct_bits <= 0.0


def test_row_order_follows_modes(tmp_path):
    # rows run qp-major, then in the order cfg.modes lists them, even
    # when the anchor (always coded first) is listed last
    cfg = small_cfg(modes=("spaq", ANCHOR_MODE), out_dir=str(tmp_path))
    report = run(cfg)
    expected = [("spaq", 22), (ANCHOR_MODE, 22), ("spaq", 37),
                (ANCHOR_MODE, 37)]
    assert list(report.cells) == expected
    for name in ("report.csv", "rate_points.csv"):
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["mode"], int(r["qp"])) for r in rows] == expected
    with open(tmp_path / "report.json") as fh:
        records = json.load(fh)["records"]
    assert [(r["mode"], r["qp"]) for r in records] == expected


def watch_codings(monkeypatch, check):
    """Route run()'s pad_frame and encode_frame calls through recorders.

    Each pad_frame call pads the next source frame: sources gets weak
    references to the frame it was given and to the padded store it
    returned. Before each encode_frame, check(n, sources, recons) runs,
    n being the frame coded; recons holds (frame index, weak reference to
    the reconstruction's padded store) for every coding so far. Returns
    (sources, recons).
    """
    sources, recons = [], []
    real_pad, real_encode = experiment.pad_frame, experiment.encode_frame

    def pad_frame(frame, grid):
        padded = real_pad(frame, grid)
        sources.append((weakref.ref(frame.planes), weakref.ref(padded.padded)))
        return padded

    def encode_frame(*args):
        n = len(sources) - 1
        check(n, sources, recons)
        enc = real_encode(*args)
        recons.append((n, weakref.ref(enc.recon.padded)))
        return enc

    monkeypatch.setattr(experiment, "pad_frame", pad_frame)
    monkeypatch.setattr(experiment, "encode_frame", encode_frame)
    return sources, recons


def test_run_holds_reconstructions_of_one_frame_back(monkeypatch):
    # when frame n is coded, no reconstruction of a frame before n - 1 is
    # alive, and none is once run() returns
    for open_loop_me in (False, True):
        stale = []
        with monkeypatch.context() as patch:
            _, recons = watch_codings(
                patch, lambda n, sources, recons: stale.extend(
                    m for m, r in recons if m < n - 1 and r() is not None))
            run(small_cfg(width=72, height=40, frames=6, qps=(22, 27),
                          modes=experiment.MODES, open_loop_me=open_loop_me))
        assert {n for n, _ in recons} == set(range(6))
        assert stale == []
        assert all(r() is None for _, r in recons)


@pytest.mark.parametrize("open_loop_me", [False, True])
@pytest.mark.parametrize("raw", [False, True])
def test_run_holds_sources_of_one_frame_back(tmp_path, monkeypatch,
                                             open_loop_me, raw):
    # the input is read or generated frame by frame and held once: when
    # frame n is coded, no source frame is alive as read (72x40 is padded
    # to a copy), none before n (before n - 1 in open loop) is alive
    # padded, and none is once run() returns
    cfg = small_cfg(width=72, height=40, frames=6, qps=(22, 27),
                    modes=experiment.MODES, open_loop_me=open_loop_me)
    if raw:
        path = tmp_path / "in.rgb"
        write_raw(experiment.load_sequence(cfg), path)
        cfg.synthetic, cfg.input_path = None, str(path)
    stale = []
    keep = 1 if open_loop_me else 0
    sources, _ = watch_codings(
        monkeypatch, lambda n, sources, recons: stale.extend(
            m for m, (read, padded) in enumerate(sources)
            if read() is not None or m < n - keep and padded() is not None))
    run(cfg)
    assert len(sources) == cfg.frames
    assert stale == []
    assert all(r() is None for refs in sources for r in refs)


@pytest.mark.parametrize("width, height", [(72, 40), (100, 70)])
def test_run_pads_each_source_once_and_searches_stored_reconstructions(
        monkeypatch, width, height):
    # one pad per source frame; every closed-loop search reads the padded
    # store of a reconstruction as it is, not a padded copy
    pads, stores, strays = [], [], []
    real_pad, real_encode, real_search = (partitioner.pad_plane,
                                          experiment.encode_frame,
                                          experiment.estimate_motion_field)

    def encode_frame(*args):
        enc = real_encode(*args)
        stores.append(enc.recon.padded)
        return enc

    def estimate_motion_field(cur, ref, *args):
        if not any(ref.base is store for store in stores):
            strays.append(ref)
        return real_search(cur, ref, *args)

    monkeypatch.setattr(partitioner, "pad_plane",
                        lambda *a: pads.append(a) or real_pad(*a))
    monkeypatch.setattr(experiment, "encode_frame", encode_frame)
    monkeypatch.setattr(experiment, "estimate_motion_field",
                        estimate_motion_field)
    cfg = small_cfg(width=width, height=height, frames=4, qps=(22, 27),
                    modes=experiment.MODES)
    run(cfg)
    assert len(pads) == cfg.frames
    assert strays == [] and len(stores) > cfg.frames


@pytest.mark.parametrize("open_loop_me", [False, True])
def test_run_peak_memory_does_not_grow_with_the_frame_count(tmp_path,
                                                            open_loop_me):
    # a padded 10-bit raw input (200x120 pads to 224x128 at CB 32): the
    # traced peak of 8 frames is within one int32 frame of that of 2
    width, height = 200, 120
    path = tmp_path / "in.rgb"
    write_raw(gen_synthetic("moving-texture", width, height, 8, 10), path)

    def peak(frames):
        cfg = ExperimentConfig(input_path=str(path), width=width,
                               height=height, bit_depth=10, frames=frames,
                               qps=(27,), modes=(ANCHOR_MODE, "spaq"),
                               cb_depth=1, open_loop_me=open_loop_me)
        tracemalloc.start()
        try:
            run(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # fills the caches a first run fills
    assert peak(8) - peak(2) < 3 * width * height * 4


def watch_motion_searches(monkeypatch, check):
    """Route run()'s estimate_motion_field calls through check(curs, fields)
    before each search. curs holds a weak reference to the current plane
    of each inter frame so far, the calling frame's last; a call whose plane
    is not the previous call's starts the next frame. fields holds
    (frame, weak reference) for every field returned; it is also returned.
    """
    curs, fields = [], []
    real = experiment.estimate_motion_field

    def estimate_motion_field(cur, *args):
        if not curs or curs[-1]() is not cur:
            curs.append(weakref.ref(cur))
        check(curs, fields)
        fld = real(cur, *args)
        fields.append((len(curs), weakref.ref(fld)))
        return fld

    monkeypatch.setattr(experiment, "estimate_motion_field",
                        estimate_motion_field)
    return fields


@pytest.mark.parametrize("open_loop_me", [False, True])
def test_run_holds_motion_fields_of_one_frame_back(monkeypatch, open_loop_me):
    # when frame n searches, no field returned before frame n - 1 is alive,
    # and none is once run() returns
    stale = []
    fields = watch_motion_searches(
        monkeypatch, lambda curs, fields: stale.extend(
            m for m, r in fields if m < len(curs) - 1 and r() is not None))
    run(small_cfg(frames=5, qps=(22, 27), modes=experiment.MODES,
                  open_loop_me=open_loop_me))
    assert {m for m, _ in fields} == {1, 2, 3, 4}
    assert stale == []
    assert all(r() is None for _, r in fields)


def test_closed_loop_run_keeps_no_earlier_source_plane(monkeypatch):
    # at a padded size every frame's current plane is a fresh view of its
    # padded store, and none outlives its frame: when frame n searches,
    # the plane frame n - 1 searched from is dead
    alive = []
    watch_motion_searches(monkeypatch, lambda curs, fields: alive.extend(
        i for i, r in enumerate(curs[:-1], 1) if r() is not None))
    cfg = small_cfg(width=72, height=40, frames=4, qps=(22, 27),
                    modes=experiment.MODES)
    grid = build_grid(cfg.width, cfg.height, cfg.cb_depth)
    assert (grid.padded_width, grid.padded_height) != (72, 40)
    run(cfg)
    assert alive == []


@st.composite
def run_configs(draw):
    kind = draw(st.sampled_from(experiment.SYNTHETIC_KINDS))
    low = 64 if kind == "moving-texture" else 8
    first_qp = draw(st.integers(QP_MIN, QP_MAX))
    return ExperimentConfig(
        synthetic=kind, width=draw(st.integers(low, 80)),
        height=draw(st.integers(low, 80)),
        bit_depth=draw(st.sampled_from(SUPPORTED_BIT_DEPTHS)),
        frames=draw(st.integers(1, 4)),
        qps=tuple(range(first_qp, min(first_qp + draw(st.integers(1, 3)),
                                      QP_MAX + 1))),
        modes=tuple(draw(st.permutations(experiment.MODES))
                    [:draw(st.integers(1, 4))]),
        cb_depth=draw(st.sampled_from(sorted(CB_SIZE_BY_DEPTH))),
        search_range=draw(st.integers(0, 4)),
        clamp_scope=draw(st.sampled_from(CLAMP_SCOPES)),
        open_loop_me=draw(st.booleans()),
        v_source=draw(st.sampled_from(experiment.V_SOURCES)),
        seed=draw(st.integers(0, 3)),
        shift=(draw(st.integers(-4, 4)), draw(st.integers(-4, 4))))


@settings(deadline=None, max_examples=30)
@given(run_configs())
# closed loop over three frames with two chains: a motion-field memo
# shared by both chains' references hands one of them the wrong field
@example(small_cfg())
def test_run_matches_coding_each_cell_alone(cfg):
    # frame-major coding with shared QP chains, in run() and in run_cell,
    # gives every cell exactly what coding it alone gives
    def assert_same_cell(got, want):
        assert (got.bits, got.channel_bits, got.frame_bits, got.mse,
                got.psnr_db, got.ssim) == (
            want.bits, want.channel_bits, want.frame_bits, want.mse,
            want.psnr_db, want.ssim)
        assert len(got.qp_maps) == len(want.qp_maps)
        for a, b in zip(got.qp_maps, want.qp_maps):
            assert a.base_qp == b.base_qp
            for name in ("raw", "t", "delta", "qp", "qstep"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name

    report = run(cfg)
    seq = experiment.load_sequence(cfg)
    grid = build_grid(cfg.width, cfg.height, cfg.cb_depth)
    for (mode, qp), got in report.cells.items():
        assert_same_cell(got, run_cell_alone(seq, grid, mode, qp, cfg))
    mode, qp = cfg.modes[-1], cfg.qps[-1]
    assert_same_cell(run_cell(seq, grid, mode, qp, cfg),
                     report.cells[mode, qp])


def test_run_codes_each_distinct_qp_chain_once(monkeypatch):
    calls = []
    real_encode_frame = experiment.encode_frame
    monkeypatch.setattr(experiment, "encode_frame",
                        lambda *a: calls.append(a) or real_encode_frame(*a))
    cfg = small_cfg(frames=4, qps=(22, 27, 50, 51), modes=experiment.MODES)
    report = run(cfg)
    cells = report.cells.values()
    prefixes = {tuple(m.qp.tobytes() for m in cell.qp_maps[: n + 1])
                for cell in cells for n in range(cfg.frames)}
    assert len(calls) == len(prefixes) < len(cells) * cfg.frames
    # some cells code one QP array in a frame after differing before it,
    # so the arrays alone would undercount the codings
    assert len({(n, m.qp.tobytes()) for cell in cells
                for n, m in enumerate(cell.qp_maps)}) < len(prefixes)


def test_run_scores_each_frame_once_its_codings_are_made(monkeypatch):
    # per frame: every encode_frame, then one ssim_global whose tests are
    # the frame's distinct codings in store order, the order they were
    # made. run() frees each frame once it is coded, so events keep the
    # frames and codings alive and their ids distinct.
    events = []
    real = {name: getattr(experiment, name)
            for name in ("encode_frame", "ssim_global")}

    def encode_frame(frame, *args):
        enc = real["encode_frame"](frame, *args)
        events.append(("e", frame, [enc.recon]))
        return enc

    def ssim_global(ref, tests):
        events.append(("g", ref, list(tests)))
        return real["ssim_global"](ref, tests)

    for name, fake in (("encode_frame", encode_frame),
                       ("ssim_global", ssim_global)):
        monkeypatch.setattr(experiment, name, fake)
    cfg = small_cfg(frames=4, qps=(22, 27, 50, 51), modes=experiment.MODES)
    run(cfg)
    frames = list(dict.fromkeys(id(frame) for _, frame, _ in events))
    assert len(frames) == cfg.frames
    for frame in frames:
        mine = [e for e in events if id(e[1]) == frame]
        assert re.fullmatch(r"e+g", "".join(kind for kind, _, _ in mine))
        made = [id(recon) for _, _, (recon,) in mine[:-1]]
        assert [id(test) for test in mine[-1][2]] == made
    # frame-major: each frame's events are contiguous
    assert [id(frame) for _, frame, _ in events] == sorted(
        (id(frame) for _, frame, _ in events), key=frames.index)


def test_config_validation():
    with pytest.raises(ValueError, match=r"^QP 60 is not an integer in \[0, 51\]$"):
        small_cfg(qps=(60,)).validate()
    with pytest.raises(ValueError):
        small_cfg(qps=()).validate()
    with pytest.raises(ValueError):
        small_cfg(qps=(27.5,)).validate()
    with pytest.raises(ValueError):
        small_cfg(qps=(22, 22)).validate()
    with pytest.raises(ValueError):
        small_cfg(modes=("spaq", "spaq")).validate()
    with pytest.raises(ValueError):
        small_cfg(modes=("vivid",)).validate()
    with pytest.raises(ValueError, match="^cb_depth must be 0, 1 or 2$"):
        small_cfg(cb_depth=3).validate()
    with pytest.raises(ValueError,
                       match="^clamp_scope must be 'total' or 'term'$"):
        small_cfg(clamp_scope="middle").validate()
    with pytest.raises(ValueError,
                       match="^frames must be at least 8x8 for the SSIM window$"):
        small_cfg(height=7).validate()
    with pytest.raises(ValueError, match="seed -1"):
        small_cfg(seed=-1).validate()
    with pytest.raises(ValueError):
        ExperimentConfig().validate()  # neither input nor synthetic
    with pytest.raises(ValueError):
        ExperimentConfig(input_path="x", synthetic="noise").validate()


@pytest.mark.parametrize("shift", [(1,), (1.5, 2), ("a", 1), (1, 2, 3), 3])
def test_bad_shift_rejected_before_out_dir(tmp_path, shift):
    out = tmp_path / "out"
    with pytest.raises(ValueError,
                       match=r"^shift must be two ints dx, dy, got .*$"):
        run(small_cfg(synthetic="moving-texture", shift=shift,
                      out_dir=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("width", 32.0), ("height", np.int64(32)), ("bit_depth", 8.0),
    ("frames", 2.0), ("cb_depth", True), ("search_range", 2.5),
    ("seed", 1.5), ("qps", (22.0,)), ("qps", (True,)),
    ("qps", (np.int64(22),)),
])
def test_non_int_numbers_rejected_before_out_dir(tmp_path, field, value):
    out = tmp_path / "out"
    cfg = small_cfg(synthetic="gradient", width=32, height=32, frames=2,
                    qps=(22,), out_dir=str(out))
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=(
            r"^(\w+ must be an int, got .+|QP .+ is not an integer in "
            r"\[0, 51\])$")):
        run(cfg)
    assert not out.exists()


def test_gen_synthetic_checks_shift_like_the_config():
    with pytest.raises(ValueError,
                       match=r"^shift must be two ints dx, dy, got \(1,\)$"):
        gen_synthetic("moving-texture", 64, 64, 2, 8, 0, (1,))
    with pytest.raises(ValueError, match="^shift must be two ints"):
        gen_synthetic("noise", 64, 64, 1, 8, 0, (True, 1))


@pytest.mark.parametrize("entry", ["gen_synthetic", "load_sequence"])
@pytest.mark.parametrize("args, message", [
    (dict(bit_depth=8.0), "bit_depth must be an int, got 8.0"),
    (dict(width=64.0), "width must be an int, got 64.0"),
    (dict(frames=2.0), "frames must be an int, got 2.0"),
    (dict(frames=0), "at least one frame is required"),
    (dict(seed=-1), "seed -1 is negative; the generator takes seeds >= 0"),
    (dict(bit_depth=9), "unsupported bit depth 9"),
    (dict(width=4, height=4),
     "frames must be at least 8x8 for the SSIM window"),
])
def test_gen_synthetic_checks_arguments_before_drawing(monkeypatch, args,
                                                       message, entry):
    def no_draw(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    kw = dict(width=64, height=64, frames=2, bit_depth=8, seed=0) | args
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if entry == "gen_synthetic":
            gen_synthetic("gradient", **kw)
        else:
            experiment.load_sequence(
                ExperimentConfig(synthetic="gradient", **kw))


@pytest.mark.parametrize("entry", ["run", "gen_synthetic", "load_sequence"])
def test_a_synthetic_config_is_checked_once(monkeypatch, entry):
    checked = []
    validate = ExperimentConfig.validate
    monkeypatch.setattr(ExperimentConfig, "validate",
                        lambda self: checked.append(self) or validate(self))
    cfg = small_cfg(synthetic="gradient", frames=2, qps=(22,))
    if entry == "run":
        run(cfg)
    elif entry == "gen_synthetic":
        gen_synthetic("gradient", 64, 64, 2)
    else:
        experiment.load_sequence(cfg)
    assert len(checked) == 1


def test_emit_empty_report(tmp_path):
    emit(ExperimentReport("none", {}), tmp_path)
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines == [",".join(REPORT_COLUMNS)]
    lines = (tmp_path / "rate_points.csv").read_text().strip().splitlines()
    assert lines == [",".join(RATE_POINT_COLUMNS)]


def test_rate_points_row_count(tmp_path):
    cfg = small_cfg(qps=(22, 27, 32, 37), out_dir=str(tmp_path))
    run(cfg)
    with open(tmp_path / "rate_points.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RATE_POINT_COLUMNS)
    assert len(rows) - 1 == 2 * 4  # 2 modes x 4 QPs


def test_csv_json_round_trip(tmp_path):
    cfg = small_cfg(out_dir=str(tmp_path))
    run(cfg)
    with open(tmp_path / "report.json") as fh:
        payload = json.load(fh)
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(payload["records"])
    for csv_row, json_rec in zip(rows, payload["records"]):
        for col in REPORT_COLUMNS:
            jv = json_rec[col]
            cv = csv_row[col]
            if jv is None:
                assert cv == ""
            elif isinstance(jv, float):
                assert float(cv) == pytest.approx(jv, abs=5e-7)
            else:
                assert str(jv) == cv


def test_qpmap_dumps_written(tmp_path):
    cfg = small_cfg(qps=(22,), out_dir=str(tmp_path))
    run(cfg)
    sub = tmp_path / "qpmaps" / "spaq_qp22"
    files = sorted(p.name for p in sub.iterdir())
    assert files == ["qpmap_0000.csv", "qpmap_0001.csv", "qpmap_0002.csv"]
    with open(sub / "qpmap_0000.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["frame", "cb_index", "channel", "q", "raw", "t",
                      "delta", "qp", "qstep"]
    # one row per CB per channel
    assert len(rows) - 1 == 3 * build_grid(64, 64, 2).n_blocks


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_rerun_into_out_replaces_qpmaps(tmp_path, monkeypatch, capsys):
    # a second run into the same --out leaves exactly what a fresh run of
    # it leaves: no QP maps of the first run's QPs or frames
    small = ["--synthetic", "mixed", "--width", "32", "--height", "32",
             "--cb-depth", "2", "--search-range", "2", "--out", "o"]
    first = small + ["--qp", "22", "--qp", "27", "--frames", "3"]
    second = small + ["--qp", "22", "--frames", "2"]
    for name, runs in (("reused", (first, second)), ("fresh", (second,))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        for args in runs:
            assert main(args) == 0
    reused = tree_bytes(tmp_path / "reused" / "o")
    assert reused == tree_bytes(tmp_path / "fresh" / "o")
    assert "qpmaps/spaq_qp22/qpmap_0002.csv" not in reused
    assert "qpmaps/spaq_qp22/qpmap_0001.csv" in reused
    capsys.readouterr()
    # rmtree refuses a symlinked qpmaps: exit 1 with one line before any
    # file is written, the link and its target left as they were
    (tmp_path / "elsewhere").mkdir()
    (tmp_path / "elsewhere" / "keep.csv").write_text("kept")
    out = tmp_path / "fresh" / "o"
    shutil.rmtree(out / "qpmaps")
    (out / "qpmaps").symlink_to(tmp_path / "elsewhere")
    (out / "report.csv").unlink()
    assert main(second) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("spaqlab: error:")
    assert (out / "qpmaps").is_symlink()
    assert (tmp_path / "elsewhere" / "keep.csv").read_text() == "kept"
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("scope", CLAMP_SCOPES)
def test_qpmap_csv_equals_the_f_string_oracle(scope):
    # every map of a run at both QP extremes, in all four modes
    cfg = ExperimentConfig(synthetic="moving-texture", width=100, height=70,
                           frames=3, qps=(0, 27, 51), modes=experiment.MODES,
                           cb_depth=2, clamp_scope=scope, seed=3)
    maps = [m for cell in run(cfg).cells.values() for m in cell.qp_maps]
    qps = {q for m in maps for q in m.qp.ravel().tolist()}
    assert {0, 51} <= qps and any((m.raw < 0).any() for m in maps)
    for n, qmap in enumerate(maps):
        assert _qpmap_csv(n, qmap) == qpmap_csv_text(n, qmap)


def test_qpmap_and_histogram_format_pinned(tmp_path):
    # 96x64 at 32x32 CBs: six CBs, so 18 rows per qpmap file; QP 7 gives
    # the anchor a one-digit histogram key
    cfg = small_cfg(width=96, height=64, frames=2, qps=(7, 27), cb_depth=1,
                    out_dir=str(tmp_path))
    run(cfg)
    anchor = (tmp_path / "qpmaps" / "anchor-uniform_qp27" /
              "qpmap_0000.csv").read_bytes()
    assert anchor.startswith(
        b"frame,cb_index,channel,q,raw,t,delta,qp,qstep\r\n"
        b"0,0,G,27.000000,0,0.000000,0.000000,27.000000,14.254379\r\n"
        b"0,0,B,27.000000,0,0.000000,0.000000,27.000000,14.254379\r\n"
        b"0,0,R,27.000000,0,0.000000,0.000000,27.000000,14.254379\r\n"
        b"0,1,G,27.000000,0,0.000000,0.000000,27.000000,14.254379\r\n")
    assert f"{qp_to_qstep(27):.6f}" == "14.254379"
    spaq = (tmp_path / "qpmaps" / "spaq_qp7" / "qpmap_0001.csv").read_bytes()
    assert spaq.startswith(
        b"frame,cb_index,channel,q,raw,t,delta,qp,qstep\r\n"
        b"1,0,G,7.000000,-6,0.000000,3.000000,10.000000,2.000000\r\n"
        b"1,0,B,7.000000,-5,0.000000,6.000000,13.000000,2.828427\r\n"
        b"1,0,R,7.000000,-6,0.000000,6.000000,13.000000,2.828427\r\n"
        b"1,1,G,7.000000,-6,0.000000,3.000000,10.000000,2.000000\r\n"
        b"1,1,B,7.000000,-5,0.000000,6.000000,13.000000,2.828427\r\n"
        b"1,1,R,7.000000,-6,0.000000,6.000000,13.000000,2.828427\r\n"
        b"1,2,G,7.000000,4,3.000000,6.000000,13.000000,2.828427\r\n"
        b"1,2,B,7.000000,4,6.000000,10.000000,17.000000,4.489848\r\n")
    for body in (anchor, spaq):
        assert body.endswith(b"\r\n") and b"\r\n\r\n" not in body
        rows = list(csv.reader(io.StringIO(body.decode(), newline="")))[1:]
        assert len(rows) == 18
        # CB-major: the three channels of a CB are adjacent
        assert [(r[1], r[2]) for r in rows] == [
            (str(cb), ch) for cb in range(6) for ch in "GBR"]
        assert any(int(r[4]) < 0 for r in rows) == (body is spaq)

    with open(tmp_path / "report.json") as fh:
        records = json.load(fh)["records"]
    hists = {(r["mode"], r["qp"]): r["qp_histograms"] for r in records}
    assert hists[ANCHOR_MODE, 7] == [{"G": {"7": 6}, "B": {"7": 6},
                                      "R": {"7": 6}}] * 2
    for frames in hists.values():
        assert len(frames) == 2
        for frame in frames:
            assert sorted(frame) == ["B", "G", "R"]
            assert all(sum(h.values()) == 6 for h in frame.values())
            assert all(k == f"{float(k):g}" for h in frame.values() for k in h)


def test_report_determinism_small(tmp_path):
    # literally identical config (including out_dir): run, snapshot, rerun
    d1 = tmp_path / "a"
    cfg = small_cfg(out_dir=str(d1))
    run(cfg)
    csv_first = (d1 / "report.csv").read_bytes()
    json_first = (d1 / "report.json").read_bytes()
    run(small_cfg(out_dir=str(d1)))
    assert (d1 / "report.csv").read_bytes() == csv_first
    assert (d1 / "report.json").read_bytes() == json_first
    # across output directories every file but report.json is byte-stable,
    # and report.json differs only in the echoed out_dir
    d2 = tmp_path / "b"
    run(small_cfg(out_dir=str(d2)))
    assert (d2 / "report.csv").read_bytes() == csv_first
    names = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(d2) for p in d2.rglob("*")
                           if p.is_file())
    for name in names:
        if str(name) != "report.json":
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    j1, j2 = (json.loads((d / "report.json").read_text()) for d in (d1, d2))
    assert j1["config"].pop("out_dir") == str(d1)
    assert j2["config"].pop("out_dir") == str(d2)
    assert j1 == j2
    # the fixed coding constants are echoed next to the config fields
    assert {k: j1["config"][k] for k in (
        "activity_scale", "intra_deadzone", "inter_deadzone",
        "channel_qp_offsets")} == {
        "activity_scale": 2.0, "intra_deadzone": 1 / 3,
        "inter_deadzone": 1 / 6, "channel_qp_offsets": [0, 0, 0]}


def test_cli_defaults_come_from_the_config():
    args = build_parser().parse_args(["--synthetic", "noise", "--out", "o"])
    assert config_from_args(args) == ExperimentConfig(synthetic="noise",
                                                      out_dir="o")


def test_cli_negative_shift_needs_the_equals_form(tmp_path, capsys):
    # argparse reads a separate "-2,5" as an option, not as --shift's value
    args = build_parser().parse_args(
        ["--synthetic", "moving-texture", "--shift=-2,5", "--out", "o"])
    assert config_from_args(args).shift == (-2, 5)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--synthetic", "moving-texture", "--shift", "-2,5",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert not out.exists()


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = main([
        "--synthetic", "noise", "--width", "64", "--height", "64",
        "--frames", "2", "--qp", "27", "--mode", "spaq",
        "--cb-depth", "2", "--search-range", "2", "--out", str(out),
    ])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "rate_points.csv").exists()


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--synthetic", "noise", "--qp", "60", "--out", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)])  # no input source
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--synthetic", "lava", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_bad_input_file(tmp_path):
    bad = tmp_path / "x.rgb"
    bad.write_bytes(b"abc")
    code = main([
        "--input", str(bad), "--width", "64", "--height", "64",
        "--frames", "2", "--qp", "22", "--out", str(tmp_path / "o"),
    ])
    assert code == 1


@pytest.mark.parametrize("args, code, message", [
    (["--input", "empty.rgb"], 1, "file size 0 is not a positive multiple"),
    (["--synthetic", "noise", "--width", "4"], 2, "at least 8x8"),
    (["--synthetic", "noise", "--shift", "1,x"], 2,
     "--shift expects 'dx,dy', got '1,x'"),
    (["--synthetic", "noise", "--search-range", "-1"], 2,
     "search_range must be >= 0"),
    (["--synthetic", "noise", "--shift=1,2,3"], 2,
     "shift must be two ints dx, dy, got (1, 2, 3)"),
])
def test_cli_failure_modes_exit_with_one_line(tmp_path, monkeypatch, capsys,
                                              args, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.rgb").write_bytes(b"")
    try:
        got = main(args + ["--frames", "2", "--qp", "22", "--out", "o"])
    except SystemExit as exc:  # usage errors exit through argparse
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    *usage, last = err.splitlines()
    assert last.startswith("spaqlab: error:") and message in last
    # exit 2 prefixes argparse's usage block; a run error prints nothing else
    assert all(line.startswith(("usage:", " ")) for line in usage)
    assert bool(usage) == (code == 2)


def test_cli_out_of_memory_exits_with_one_line(tmp_path, monkeypatch, capsys):
    def run_out_of_memory(cfg):
        raise MemoryError("Unable to allocate 10.9 TiB for an array with "
                          "shape (3, 1000000, 1000000) and data type int32")

    monkeypatch.setattr("spaqlab.cli.run", run_out_of_memory)
    code = main(["--synthetic", "noise", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "spaqlab: error: Unable to allocate 10.9 TiB for an array with "
        "shape (3, 1000000, 1000000) and data type int32"]


def test_cli_negative_seed_rejected_before_work(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["--synthetic", "noise", "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert "seed -1" in capsys.readouterr().err


def test_cli_directory_input_rejected(tmp_path, capsys):
    code = main([
        "--input", str(tmp_path), "--width", "64", "--height", "64",
        "--frames", "2", "--qp", "22", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "is not a regular file" in err


def test_cli_unwritable_out_fails_before_coding(tmp_path, monkeypatch, capsys):
    calls = []
    real_encode_frame = experiment.encode_frame
    monkeypatch.setattr(experiment, "encode_frame",
                        lambda *a: calls.append(a) or real_encode_frame(*a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([
        "--synthetic", "noise", "--width", "64", "--height", "64",
        "--frames", "2", "--qp", "27", "--cb-depth", "2",
        "--search-range", "2", "--out", str(blocker / "out"),
    ])
    assert code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("spaqlab: error:")


CLI_PATHS = ("clip.rgb", "empty.rgb", "missing.rgb", "out", "blocker/out")


@st.composite
def cli_argvs(draw):
    """argv from the CLI's flag grammar with valid and invalid values, in
    any flag order; sizes, frame counts and search ranges stay small. Paths
    are names from CLI_PATHS, under a directory the test makes."""
    def one(*values):
        return draw(st.sampled_from(values))

    def value(good, *bad):
        # few values are bad, so that many argvs get as far as a run
        return one(*bad) if draw(st.integers(0, 15)) == 0 else str(draw(good))

    size = st.one_of(st.just(16), st.integers(8, 72))
    groups = [["--width", value(size, "-1", "4", "x", "")],
              ["--height", value(size, "0", "7", "8.0")],
              ["--frames", value(st.integers(1, 3), "0", "-1", "x")]]
    groups += [["--qp", value(st.integers(0, 51), "-1", "52", "q")]
               for _ in range(draw(st.integers(1, 2)))]
    source = value(st.sampled_from(("synthetic", "input")), "both", "neither")
    if source in ("synthetic", "both"):
        groups.append(["--synthetic", value(
            st.sampled_from(experiment.SYNTHETIC_KINDS), "lava")])
    if source in ("input", "both"):
        groups.append(["--input", value(st.just("clip.rgb"), "empty.rgb",
                                        "missing.rgb")])
    optional = [
        ["--bit-depth", value(st.sampled_from((8, 10, 12)), "9")],
        ["--cb-depth", value(st.sampled_from(sorted(CB_SIZE_BY_DEPTH)), "3")],
        ["--search-range", value(st.integers(0, 40), "-1", "r")],
        ["--clamp-scope", value(st.sampled_from(CLAMP_SCOPES), "all")],
        ["--open-loop-me"],
        ["--v-source", value(st.sampled_from(experiment.V_SOURCES), "next")],
        ["--seed", value(st.integers(0, 3), "-1")],
        ["--shift" + value(st.sampled_from(("=-2,5", "=1,2", " 3,4")),
                           "=1,x", "=1,2,3", " -2,5")],
    ] + [["--mode", value(st.sampled_from(experiment.MODES), "fast")]
         for _ in range(2)]
    groups += [g for g in optional if draw(st.booleans())]
    out = value(st.just("out"), "blocker/out", "")
    groups += [["--out", out]] if out else []
    return [token for g in draw(st.permutations(groups))
            for token in " ".join(g).split(" ")]


@settings(deadline=None, max_examples=60)
@given(cli_argvs())
def test_cli_failure_contract_property(argv):
    # exit 0, 1 or 2; a failure prints one "spaqlab: error:" line and no
    # traceback; exit 2 leaves --out uncreated; exit 0 writes report.csv
    with tempfile.TemporaryDirectory() as tmp:
        write_raw(gen_synthetic("gradient", 16, 16, 3, 8),
                  os.path.join(tmp, "clip.rgb"))
        open(os.path.join(tmp, "empty.rgb"), "w").close()
        open(os.path.join(tmp, "blocker"), "w").close()
        argv = [os.path.join(tmp, a) if a in CLI_PATHS else a for a in argv]
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # usage errors exit through argparse
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert os.path.isfile(os.path.join(out, "report.csv"))
        else:
            assert "Traceback" not in err
            lines = err.splitlines()
            assert lines[-1].startswith("spaqlab: error:")
            assert sum(ln.startswith("spaqlab: error:") for ln in lines) == 1
        if code == 2 and out is not None:
            assert not os.path.exists(out)


def test_cli_short_raw_file_rejected(tmp_path, capsys):
    raw = tmp_path / "one.rgb"
    write_raw(gen_synthetic("noise", 64, 64, 1, 8, seed=0), raw)
    out = tmp_path / "o"
    code = main([
        "--input", str(raw), "--width", "64", "--height", "64",
        "--frames", "16", "--qp", "22", "--out", str(out),
    ])
    assert code == 1
    assert not (out / "report.csv").exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "fewer than the 16" in err


def test_cli_sample_above_the_bit_depth_rejected(tmp_path, capsys):
    # one 0x0400 word in a 10-bit file: bit 10 set, as a big-endian or
    # 11-bit sample would have it
    raw = tmp_path / "two.rgb"
    write_raw(gen_synthetic("noise", 64, 64, 2, 10, seed=0), raw)
    data = bytearray(raw.read_bytes())
    data[-2:] = (0x0400).to_bytes(2, "little")
    raw.write_bytes(bytes(data))
    out = tmp_path / "o"
    code = main([
        "--input", str(raw), "--width", "64", "--height", "64",
        "--bit-depth", "10", "--frames", "2", "--qp", "22",
        "--out", str(out),
    ])
    assert code == 1
    assert list(out.iterdir()) == []  # no report file
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.endswith("frame 1 holds sample 1024, above the 10-bit "
                        "maximum 1023\n")


@pytest.mark.parametrize("open_loop_me", [False, True])
def test_cli_late_sample_above_the_bit_depth_rejected(tmp_path, capsys,
                                                      open_loop_me):
    # frames are read as they are coded, so a bad sample in frame 3 of 5
    # is caught when frame 3 is read: exit 1, one error line naming the
    # frame, the sample and the depth, and no report file
    raw = tmp_path / "five.rgb"
    write_raw(gen_synthetic("noise", 64, 64, 5, 10, seed=0), raw)
    data = bytearray(raw.read_bytes())
    at = 3 * frame_byte_size(64, 64, 10) + 2 * (64 * 10 + 20)
    data[at: at + 2] = (0x0400).to_bytes(2, "little")
    raw.write_bytes(bytes(data))
    out = tmp_path / "o"
    code = main([
        "--input", str(raw), "--width", "64", "--height", "64",
        "--bit-depth", "10", "--frames", "5", "--qp", "22",
        "--out", str(out)] + ["--open-loop-me"] * open_loop_me)
    assert code == 1
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("spaqlab: error:")
    assert err.endswith("frame 3 holds sample 1024, above the 10-bit "
                        "maximum 1023\n")


def test_run_rejects_a_short_raw_file_before_reading_it(tmp_path,
                                                        monkeypatch):
    raw = tmp_path / "five.rgb"
    write_raw(gen_synthetic("noise", 16, 16, 5, 8, seed=0), raw)
    reads = []
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda *a, **kw: reads.append(
        kw["count"]) or fromfile(*a, **kw))
    out = tmp_path / "out"
    cfg = ExperimentConfig(input_path=str(raw), width=16, height=16,
                           frames=6, qps=(22,), modes=(ANCHOR_MODE,),
                           out_dir=str(out))
    with pytest.raises(RawFormatError,
                       match="holds 5 frames, fewer than the 6 requested$"):
        run(cfg)
    assert reads == []
    assert not out.exists()
    cfg.frames = 5
    run(cfg)
    assert reads == [3 * 16 * 16] * 5


def test_open_loop_and_v_source_paths():
    cfg = small_cfg(open_loop_me=True, v_source="previous", qps=(27,))
    report = run(cfg)
    assert report.cells[("spaq", 27)].bits <= report.cells[(ANCHOR_MODE, 27)].bits


def test_open_loop_run_searches_each_frame_pair_once(searched):
    cfg = small_cfg(open_loop_me=True, modes=experiment.MODES)
    report = run(cfg)
    assert len(report.cells) == 4 * 2
    grid = build_grid(cfg.width, cfg.height, cfg.cb_depth)
    assert len(searched) == (cfg.frames - 1) * grid.n_blocks


def test_closed_loop_sharing_keeps_every_file(tmp_path, monkeypatch,
                                              searched):
    out = tmp_path / "o"
    cfg = dict(synthetic="moving-texture", frames=4, qps=(22, 27, 32),
               modes=experiment.MODES, out_dir=str(out))

    def snapshot():
        searched.clear()
        run(small_cfg(**cfg))
        return {p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    shared = snapshot()
    shared_searches = len(searched)
    real = experiment.estimate_motion_field
    monkeypatch.setattr(
        experiment, "estimate_motion_field",
        lambda cur, ref, grid, search_range, fields=None:
            real(cur, ref, grid, search_range))
    assert snapshot() == shared
    # cells that predict from one coding of the previous frame share its
    # search, so sharing skipped searches
    assert shared_searches < len(searched)


def test_each_coding_is_searched_from_once(monkeypatch):
    # frame n runs one search per distinct coding of frame n - 1: a memo
    # shared by every reference would search less, one per cell more.
    # Frame n's codings and searches all come before its ssim_global.
    codings, searches = [0], [0]

    def count(calls, real):
        def wrapped(*args):
            calls[-1] += 1
            return real(*args)
        return wrapped

    def next_frame(real):
        def wrapped(*args):
            codings.append(0)
            searches.append(0)
            return real(*args)
        return wrapped

    monkeypatch.setattr(experiment, "encode_frame",
                        count(codings, experiment.encode_frame))
    monkeypatch.setattr(motion_model, "motion_field",
                        count(searches, motion_model.motion_field))
    monkeypatch.setattr(experiment, "ssim_global",
                        next_frame(experiment.ssim_global))
    qps = (22, 27, 32)
    run(small_cfg(synthetic="moving-texture", frames=4, qps=qps,
                  modes=experiment.MODES))
    codings, searches = codings[:-1], searches[:-1]
    assert len(codings) == 4 and searches[0] == 0
    assert searches[1:] == codings[:-1]
    # the count tells the two wrong memos apart: some frame searched from
    # has more than one coding, and some fewer than one per cell
    assert max(codings[:-1]) > 1
    assert min(codings[:-1]) < len(qps) * len(experiment.MODES)


def test_clamp_scope_term_runs():
    cfg = small_cfg(clamp_scope="term", qps=(22,))
    report = run(cfg)
    spaq = report.cells[("spaq", 22)]
    # under the term scope B/R adjustments may exceed the window top
    assert spaq.bits <= report.cells[(ANCHOR_MODE, 22)].bits
