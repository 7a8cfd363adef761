"""Anchor-vs-SPAQ experiment runner.

Runs one sequence through the codec in every (mode, QP) cell and collects
bit cost, per-channel PSNR and global SSIM per cell, plus percentage
deltas against the uniform-QP anchor at the same QP. GOP structure is
IPPP: the first frame is intra, every later frame predicts from the
previous reconstruction (closed loop). The cells are coded frame-major,
frame n of every cell before frame n + 1 of any, and cells whose QP
arrays agree on every frame so far share one coding of the frame.

Modes:
  anchor-uniform  every CB uses the frame-level QP unchanged
  spaq            spatial + temporal + color masking offsets
  spatial-only    ablation: temporal offsets forced to zero
  temporal-only   ablation: activity forced to 1 (offsets from motion only)
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from .codec_sim import INTER_DEADZONE, INTRA_DEADZONE, encode_frame
from .motion_model import DEFAULT_SEARCH_RANGE, estimate_motion_field
from .partitioner import CB_SIZE_BY_DEPTH, build_grid, pad_frame
from .qp_model import (CLAMP_SCOPES, QP_MAX, QP_MIN, build_qp_map, qp_to_qstep,
                       uniform_qp_map)
from .quality_metrics import SSIM_WINDOW, mse_to_psnr, pct_delta, ssim_global
from .spatial_activity import DEFAULT_SCALE, compute_activity_map
from .video_io import (CHANNELS, G, SUPPORTED_BIT_DEPTHS, Frame, Sequence,
                       check_ints, is_int, raw_frames)
# not called here: perfbench/tracer.py wraps experiment.load_raw by name
from .video_io import load_raw  # noqa: F401

MODES = ("anchor-uniform", "spaq", "spatial-only", "temporal-only")
SYNTHETIC_KINDS = ("noise", "gradient", "moving-texture", "mixed")
DEFAULT_QPS = (22, 27, 32, 37)
ANCHOR_MODE = "anchor-uniform"
V_SOURCES = ("current", "previous")

REPORT_COLUMNS = (
    "sequence", "mode", "qp", "bits", "bits_g", "bits_b", "bits_r",
    "psnr_g_db", "psnr_b_db", "psnr_r_db", "ssim",
    "pct_bits", "pct_psnr_g_db", "pct_psnr_b_db", "pct_psnr_r_db",
    "pct_psnr_g_mse", "pct_psnr_b_mse", "pct_psnr_r_mse",
)
RATE_POINT_COLUMNS = ("qp", "mode", "bits", "ssim")
QPMAP_COLUMNS = ("frame", "cb_index", "channel", "q", "raw", "t", "delta",
                 "qp", "qstep")
_QSTEP_TEXT = tuple(f"{qp_to_qstep(q):.6f}" for q in range(QP_MIN, QP_MAX + 1))


@dataclass
class ExperimentConfig:
    input_path: str | None = None
    synthetic: str | None = None
    width: int = 128
    height: int = 128
    bit_depth: int = 8
    frames: int = 16
    qps: tuple = DEFAULT_QPS
    modes: tuple = (ANCHOR_MODE, "spaq")
    cb_depth: int = 1
    search_range: int = DEFAULT_SEARCH_RANGE
    clamp_scope: str = CLAMP_SCOPES[0]
    open_loop_me: bool = False
    v_source: str = "current"
    seed: int = 0
    shift: tuple = (3, 4)
    out_dir: str | None = None
    label: str | None = None

    def validate(self):
        if (self.input_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of input_path and synthetic is required")
        if self.synthetic is not None and self.synthetic not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic kind {self.synthetic!r}")
        check_ints(**{name: getattr(self, name) for name in (
            "width", "height", "bit_depth", "frames", "cb_depth",
            "search_range", "seed")})
        if self.bit_depth not in SUPPORTED_BIT_DEPTHS:
            raise ValueError(f"unsupported bit depth {self.bit_depth}")
        if self.width < SSIM_WINDOW or self.height < SSIM_WINDOW:
            raise ValueError(f"frames must be at least {SSIM_WINDOW}x"
                             f"{SSIM_WINDOW} for the SSIM window")
        if self.synthetic == "moving-texture" and (self.width < 64 or self.height < 64):
            raise ValueError("moving-texture needs at least 64x64 frames")
        if self.frames < 1:
            raise ValueError("at least one frame is required")
        if not self.qps:
            raise ValueError("at least one QP is required")
        for qp in self.qps:
            if not is_int(qp) or not QP_MIN <= qp <= QP_MAX:
                raise ValueError(f"QP {qp!r} is not an integer in [{QP_MIN}, {QP_MAX}]")
        if not self.modes:
            raise ValueError("at least one mode is required")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
        if (len(set(self.qps)) < len(self.qps)
                or len(set(self.modes)) < len(self.modes)):
            raise ValueError("a QP or mode is listed twice")
        if self.cb_depth not in CB_SIZE_BY_DEPTH:
            raise ValueError(f"cb_depth must be {_either(map(str, CB_SIZE_BY_DEPTH))}")
        if self.search_range < 0:
            raise ValueError("search_range must be >= 0")
        if self.clamp_scope not in CLAMP_SCOPES:
            raise ValueError(f"clamp_scope must be {_either(map(repr, CLAMP_SCOPES))}")
        if self.v_source not in V_SOURCES:
            raise ValueError(f"v_source must be {_either(map(repr, V_SOURCES))}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative; the generator "
                             "takes seeds >= 0")
        if not (isinstance(self.shift, (tuple, list)) and len(self.shift) == 2
                and all(map(is_int, self.shift))):
            raise ValueError(f"shift must be two ints dx, dy, got {self.shift!r}")


def _either(names) -> str:
    """'a, b or c' for the names a, b, c."""
    *head, last = names
    return f"{', '.join(head)} or {last}"


def _ramps(width, height, low, span):
    """G, B, R ramps along x, y and the diagonal, rising from low by span:
    an int16 (3, height, width) array filled from three 1-D tables."""
    def ramp(n):  # low + k * span // (n - 1) at k = 0 .. n - 1
        return (low + np.arange(n) * span // max(n - 1, 1)).astype(np.int16)
    # R at (y, x) is step (x + y) // 2 of the diagonal: row y of R reads
    # the table, each step repeated twice, from entry y on
    diagonal = ramp((width + height) // 2)[np.arange(width + height - 1) // 2]
    r = np.lib.stride_tricks.sliding_window_view(diagonal, width)
    return np.stack(np.broadcast_arrays(ramp(width)[None, :],
                                        ramp(height)[:, None], r))


def moving_patch_rect(width, height, frames, shift, n):
    """Placement (x, y, side) of the moving-texture patch at frame n.

    Published so tests and analyses can locate the planted texture
    without re-deriving the generator's geometry.
    """
    patch = min(64, min(width, height) // 2)
    sx, sy = shift
    x0 = max(0, (width - patch - abs(sx) * (frames - 1)) // 2)
    y0 = max(0, (height - patch - abs(sy) * (frames - 1)) // 2)
    px = min(max(x0 + n * sx, 0), width - patch)
    py = min(max(y0 + n * sy, 0), height - patch)
    return px, py, patch


def gen_synthetic(kind: str, width: int = 128, height: int = 128,
                  frames: int = 16, bit_depth: int = 8, seed: int = 0,
                  shift=(3, 4)) -> Sequence:
    """Deterministic test content; same (kind, dims, seed) -> same samples.

    The arguments pass a synthetic config's checks before a sample is drawn.
    """
    return load_sequence(ExperimentConfig(
        synthetic=kind, width=width, height=height, frames=frames,
        bit_depth=bit_depth, seed=seed, shift=shift))


def _draw_frames(kind, width, height, frames, bit_depth, seed, shift):
    rng = np.random.default_rng(seed)
    maxv = (1 << bit_depth) - 1
    mid = 1 << (bit_depth - 1)
    amp = int(0.35 * maxv)
    low = maxv // 16

    def uniform(lo, hi, h, w):
        # the same samples as three (h, w) draws in G, B, R order: these
        # ranges draw 32 bits per sample and PCG64 keeps the unused half
        # of a 64-bit output across calls
        return rng.integers(lo, hi + 1, (3, h, w), dtype=np.int64
                            ).astype(np.int16)

    def texture(h, w):
        return uniform(mid - amp, mid + amp, h, w)

    def frame(planes, *pastes):
        # a Frame of planes with each (content, y, x) pasted over; the
        # generator binds no frame's samples, so none outlives its frame
        for content, y, x in pastes:
            _, h, w = content.shape
            planes[:, y: y + h, x: x + w] = content
        return Frame(width, height, bit_depth, planes)

    if kind == "noise":
        for _ in range(frames):
            yield frame(uniform(0, maxv, height, width))
    elif kind == "gradient":
        bases = _ramps(width, height, low, max(1, maxv - 2 * low - frames))
        for n in range(frames):
            # the brightening saturates once a long run reaches maxv;
            # bases lie in [0, maxv], so int16 holds every sum
            yield frame(np.minimum(bases + min(n, maxv), maxv))
    elif kind == "moving-texture":
        bgs = _ramps(width, height, low, maxv // 4)
        patch = moving_patch_rect(width, height, frames, shift, 0)[2]
        patches = texture(patch, patch)
        for n in range(frames):
            px, py, _ = moving_patch_rect(width, height, frames, shift, n)
            yield frame(bgs.copy(), (patches, py, px))
    else:  # mixed
        hh, hw = height // 2, width // 2
        patch = max(8, min(24, min(hh, hw) // 2))
        patches = texture(patch, patch)
        base = _ramps(width, height, low, maxv // 3)
        for n in range(frames):
            px = max(0, min(hw // 4 + n, width - hw + hw // 4 - patch))
            py = min(hh + hh // 4 + 2 * n, height - patch)
            # top-right quadrant: dense texture, refreshed every frame
            yield frame(base.copy(), (texture(hh, width - hw), 0, hw),
                        (patches, py, px))


@dataclass
class CellResult:
    """One (mode, QP) cell: the coded outcome and its deltas vs the anchor.

    The frame loop fills in everything but the pct_* fields, which run()
    sets once the anchor cell at the same QP is known. psnr_db, mse and the
    pct_psnr_* tuples are per channel (G, B, R); mse is pooled over frames.
    """

    mode: str
    qp: int
    bits: int
    channel_bits: tuple
    mse: tuple
    psnr_db: tuple
    ssim: float
    frame_bits: list
    qp_maps: list
    pct_bits: float | None = None
    pct_psnr_db: tuple = ()
    pct_psnr_mse: tuple = ()

    def set_deltas(self, anchor: "CellResult") -> None:
        """Signed percentage changes against the anchor cell.

        PSNR deltas are reported both on dB values and on the underlying
        MSE, since the two conventions tell different stories.
        """
        self.pct_bits = pct_delta(anchor.bits, self.bits)
        self.pct_psnr_db = tuple(map(pct_delta, anchor.psnr_db, self.psnr_db))
        self.pct_psnr_mse = tuple(map(pct_delta, anchor.mse, self.mse))


class _Chain:
    """One cell partway through its frames: the reconstruction its next
    frame predicts from, that coding's index in its frame's store (cells
    with one index, or all cells in open loop, share a search; two equal
    codings are searched twice), its last field's mean magnitude and sums."""

    def __init__(self, mode: str, base_qp: int):
        self.mode, self.base_qp = mode, base_qp
        self.use_spatial = mode in ("spaq", "spatial-only")
        self.use_temporal = mode in ("spaq", "temporal-only")
        self.ref = self.key = self.prev_mean_mag = None
        self.channel_bits = np.zeros(3, dtype=np.int64)
        self.sse = np.zeros(3, dtype=np.int64)
        self.ssim_sum = 0.0
        self.frame_bits, self.qp_maps = [], []

    def qp_map(self, activity, fld, n_blocks: int, cfg: ExperimentConfig):
        """This frame's QP map from the frame's activity and the cell's field.

        With cfg.v_source "previous", the temporal offsets of frame n are
        thresholded against the mean magnitude of frame n-1; frame 1 has
        no earlier motion field, so it falls back to its own mean.
        """
        if self.mode == ANCHOR_MODE:
            return uniform_qp_map(self.base_qp, n_blocks)
        if self.use_temporal and fld is not None:
            mags = fld.magnitudes
            if cfg.v_source == "previous" and self.prev_mean_mag is not None:
                vmean = self.prev_mean_mag
            else:
                vmean = fld.mean_magnitude
        else:
            mags, vmean = None, 0.0
        return build_qp_map(self.base_qp, n_blocks,
                            activity=activity if self.use_spatial else None,
                            magnitudes=mags, mean_magnitude=vmean,
                            scope=cfg.clamp_scope)

    def add(self, enc, qmap, fld) -> None:
        self.ref = enc.recon
        self.channel_bits += enc.channel_bits
        self.frame_bits.append(enc.bits)
        self.sse += enc.sse
        self.qp_maps.append(qmap)
        if fld is not None:
            self.prev_mean_mag = fld.mean_magnitude

    def result(self, samples: int, bit_depth: int) -> CellResult:
        """The cell's result over its frames of samples samples each."""
        frames = len(self.frame_bits)
        mse = tuple(float(s) / (frames * samples) for s in self.sse)
        return CellResult(self.mode, self.base_qp, sum(self.frame_bits),
                          tuple(int(b) for b in self.channel_bits), mse,
                          tuple(mse_to_psnr(m, bit_depth) for m in mse),
                          self.ssim_sum / frames, self.frame_bits,
                          self.qp_maps)


def _run_cells(frames, grid, cells, cfg: ExperimentConfig) -> list:
    """Code cells, a list of (mode, base QP), frame-major over the frames
    an iterable yields: frame n of every cell before frame n + 1 of any.
    Returns their CellResults in order.

    Each source frame is padded once (pad_frame), and its activity map,
    if any cell is spatial, is made once. encode_frame reads only the
    frame, the cell's reference, its QP array and its motion field, and
    the field follows from the frame and the reference (or the previous
    source). So cells whose QP arrays agree on frames 0..n hold the same
    reconstruction of frame n: each distinct chain of QP arrays is coded
    and scored once per frame. Cells that predict from one coding of frame
    n - 1 share a search, all cells do in open loop, and two codings with
    equal reconstructions are searched twice. Frame n - 1's source is
    kept while frame n is coded only in open loop, for its search.
    """
    chains = [_Chain(mode, base_qp) for mode, base_qp in cells]
    spatial = any(ch.use_spatial for ch in chains)
    prev = None
    for frame in frames:
        frame = pad_frame(frame, grid)
        cur = frame.padded[G]
        act = compute_activity_map(frame, grid).a if spatial else None
        # store: (index, EncodedFrame) per (index predicted from, QP array);
        # fields: a search memo per index predicted from (one in open loop)
        store, fields = {}, {}
        for ch in chains:
            fld = None if ch.ref is None else estimate_motion_field(
                cur, (prev if cfg.open_loop_me else ch.ref).padded[G], grid,
                cfg.search_range,
                fields.setdefault(None if cfg.open_loop_me else ch.key, {}))
            qmap = ch.qp_map(act, fld, grid.n_blocks, cfg)
            key = (ch.key, qmap.qp.tobytes())
            if key not in store:
                store[key] = len(store), encode_frame(frame, ch.ref, qmap,
                                                      grid, fld)
            ch.key, enc = store[key]
            ch.add(enc, qmap, fld)
        scores = ssim_global(frame, [enc.recon for _, enc in store.values()])
        # without cur, frame n's padded store is freed once frame n + 1 is
        # read (in closed loop)
        del cur
        for ch in chains:
            ch.ssim_sum += scores[ch.key]
        prev = frame if cfg.open_loop_me else None
    return [ch.result(grid.width * grid.height, frame.bit_depth)
            for ch in chains]


def run_cell(seq: Sequence, grid, mode: str, base_qp: int,
             cfg: ExperimentConfig) -> CellResult:
    """Code a whole sequence in one mode at one base QP: run()'s
    frame-major loop over this one cell."""
    return _run_cells(seq.frames, grid, [(mode, base_qp)], cfg)[0]


@dataclass
class ExperimentReport:
    sequence: str
    config: dict
    # (mode, qp) -> CellResult in report row order: qp-major, then modes
    cells: dict = field(default_factory=dict)


def input_frames(cfg: ExperimentConfig):
    """The config's input frames, read or generated one at a time as they
    are taken. The config, and a raw file's size and frame count, are
    checked here, before any sample is read or drawn; a sample above the
    bit depth raises when its frame is read."""
    cfg.validate()
    if cfg.synthetic is not None:
        return _draw_frames(cfg.synthetic, cfg.width, cfg.height, cfg.frames,
                            cfg.bit_depth, cfg.seed, cfg.shift)
    return raw_frames(cfg.input_path, cfg.width, cfg.height, cfg.bit_depth,
                      cfg.frames)


def load_sequence(cfg: ExperimentConfig) -> Sequence:
    """Every input frame of the config, held at once."""
    return Sequence(list(input_frames(cfg)))


def run(cfg: ExperimentConfig) -> ExperimentReport:
    """Run every (mode, QP) cell of the config and assemble the report.

    The uniform anchor always runs (it is the reference every percentage column
    is computed against) even when absent from cfg.modes. Writes report files
    to cfg.out_dir, if set, made once input_frames has checked the config and a
    raw file's size, before a sample is read. The cells are coded frame-major,
    and cells whose QP arrays agree on frames 0..n share one encode and one
    SSIM of frame n. The input is read or generated one frame at a time. While
    frame n is coded, the run holds frame n (padded once) and, in open loop,
    frame n - 1; the reconstructions of frame n - 1 (one per distinct chain of
    QP arrays, at most one per cell) and those of frame n; and the motion
    fields of frame n. None is kept once run returns. Cells predicting from one
    coding of frame n - 1 share a search, all do in open loop, and two codings
    that reconstruct alike search twice.
    """
    frames = input_frames(cfg)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
    label = cfg.label or cfg.synthetic or os.path.basename(cfg.input_path)
    grid = build_grid(cfg.width, cfg.height, cfg.cb_depth)

    modes = list(cfg.modes)
    if ANCHOR_MODE not in modes:
        modes.insert(0, ANCHOR_MODE)

    # The echo keeps the fixed scale, deadzones and (zero) per-channel QP
    # offsets that used to be config fields, so report.json stays the same
    # bytes for the same run (sort_keys fixes the key order).
    echo = dataclasses.asdict(cfg) | {
        "activity_scale": DEFAULT_SCALE, "intra_deadzone": INTRA_DEADZONE,
        "inter_deadzone": INTER_DEADZONE, "channel_qp_offsets": (0, 0, 0)}
    report = ExperimentReport(label, echo)
    cells = [(mode, qp) for qp in cfg.qps for mode in modes]
    report.cells = dict(zip(cells, _run_cells(frames, grid, cells, cfg)))
    for (mode, qp), cell in report.cells.items():
        cell.set_deltas(report.cells[ANCHOR_MODE, qp])
    if cfg.out_dir is not None:
        emit(report, cfg.out_dir)
    return report


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _round6(value):
    return None if value is None else round(value, 6)


def _row(sequence: str, r: CellResult) -> list:
    return [
        sequence, r.mode, r.qp, r.bits,
        r.channel_bits[0], r.channel_bits[1], r.channel_bits[2],
        _round6(r.psnr_db[0]), _round6(r.psnr_db[1]), _round6(r.psnr_db[2]),
        _round6(r.ssim),
        _round6(r.pct_bits),
        _round6(r.pct_psnr_db[0]), _round6(r.pct_psnr_db[1]),
        _round6(r.pct_psnr_db[2]),
        _round6(r.pct_psnr_mse[0]), _round6(r.pct_psnr_mse[1]),
        _round6(r.pct_psnr_mse[2]),
    ]


def _histogram(qps) -> dict:
    """{QP as %g: number of CBs} over one channel's QPs."""
    values, counts = np.unique(qps, return_counts=True)
    return {f"{q:g}": c for q, c in zip(values.tolist(), counts.tolist())}


def _qpmap_csv(frame: int, qmap) -> str:
    """Frame frame's QP map as CSV text: a row per (CB, channel), CB-major,
    CRLF line ends; raw is an int, every other number has 6 decimals.
    t, delta and qp are int64, so each is an int and a literal .000000."""
    base = f"{qmap.base_qp:.6f}"
    cols = (a.T.ravel().tolist()
            for a in (qmap.raw, qmap.t, qmap.delta, qmap.qp))
    rows = (f"{frame},{i // 3},{CHANNELS[i % 3]},{base},"
            f"{raw},{t}.000000,{delta}.000000,{qp}.000000,{_QSTEP_TEXT[qp]}"
            for i, (raw, t, delta, qp) in enumerate(zip(*cols)))
    return "\r\n".join([",".join(QPMAP_COLUMNS), *rows, ""])


def emit(report: ExperimentReport, out_dir) -> None:
    """Write report.csv, report.json, rate_points.csv and QP map dumps.

    An earlier run's qpmaps/ tree is removed before any file is written,
    so none of its maps sit beside this run's; rmtree refuses a symlinked
    qpmaps with an OSError.
    """
    os.makedirs(out_dir, exist_ok=True)
    qpmaps = os.path.join(out_dir, "qpmaps")
    if os.path.lexists(qpmaps):
        shutil.rmtree(qpmaps)

    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.cells.values():
            writer.writerow(_fmt(v) for v in _row(report.sequence, r))

    payload = {
        "sequence": report.sequence,
        "config": report.config,
        "records": [
            dict(zip(REPORT_COLUMNS, _row(report.sequence, r)))
            | {"qp_histograms": [dict(zip(CHANNELS, map(_histogram, m.qp)))
                                 for m in r.qp_maps]}
            for r in report.cells.values()
        ],
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(os.path.join(out_dir, "rate_points.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RATE_POINT_COLUMNS)
        for r in report.cells.values():
            writer.writerow([r.qp, r.mode, r.bits, _fmt(_round6(r.ssim))])

    for (mode, qp), cell in report.cells.items():
        sub = os.path.join(qpmaps, f"{mode}_qp{qp}")
        os.makedirs(sub, exist_ok=True)
        for n, qmap in enumerate(cell.qp_maps):
            path = os.path.join(sub, f"qpmap_{n:04d}.csv")
            with open(path, "w", newline="") as fh:
                fh.write(_qpmap_csv(n, qmap))
