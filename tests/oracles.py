"""Scalar reference implementations of SPAQ's activity, QP and codec steps.

One CB, one channel, one value at a time, written straight from the
equations. The array paths in spaqlab.spatial_activity and
spaqlab.qp_model must reproduce them entry for entry; encode_frame_by_cb
codes one CB at a time in raster order, and spaqlab.codec_sim's
anti-diagonal stacks (intra frames) and raster passes (inter frames)
must give its bits and reconstruction exactly.
run_cell_alone codes one whole cell after another, padding every
reference afresh, and spaqlab.experiment.run's frame-major loop, which
shares the coding of equal QP chains and predicts from each coding's
padded store, must give every cell's figures and QP maps exactly.
qpmap_csv_text formats every number of a QP map with its own f-string,
and spaqlab.experiment._qpmap_csv's table-driven rows must equal it.
"""

import numpy as np

from spaqlab.codec_sim import (
    INTER_DEADZONE,
    INTRA_DEADZONE,
    EncodedFrame,
    bit_cost,
    dct2,
    dequantize,
    encode_frame,
    idct2,
    quantize,
)
from spaqlab.experiment import ANCHOR_MODE, QPMAP_COLUMNS, CellResult
from spaqlab.motion_model import MotionField, estimate_motion_field
from spaqlab.partitioner import BlockGrid, BlockRef, pad_plane
from spaqlab.qp_model import (MEAN_OFFSET, QP_MAX, QP_MIN, build_qp_map,
                              spatial_offset, uniform_qp_map)
from spaqlab.quality_metrics import mse_to_psnr, ssim_global
from spaqlab.spatial_activity import DEFAULT_SCALE, compute_activity_map
from spaqlab.video_io import CHANNELS, G, Frame


def sub_blocks(b: BlockRef):
    """Four quadrants of a CB in the order top-left, top-right,
    bottom-left, bottom-right."""
    n = b.size // 2
    return (
        BlockRef(b.x, b.y, n),
        BlockRef(b.x + n, b.y, n),
        BlockRef(b.x, b.y + n, n),
        BlockRef(b.x + n, b.y + n, n),
    )


def sub_block_variance(plane: np.ndarray, sb: BlockRef) -> float:
    """Population variance of the samples inside one sub-block."""
    samples = plane[sb.y: sb.y + sb.size, sb.x: sb.x + sb.size]
    n = samples.size
    s1 = int(samples.sum(dtype=np.int64))
    s2 = int((samples.astype(np.int64) ** 2).sum(dtype=np.int64))
    # var = E[x^2] - E[x]^2 = (n*s2 - s1^2) / n^2, kept integral until here
    return float(n * s2 - s1 * s1) / (n * n)


def cb_activity(plane: np.ndarray, cb: BlockRef) -> float:
    """Non-normalized activity: 1 + the minimum sub-block variance."""
    return 1.0 + min(sub_block_variance(plane, sb) for sb in sub_blocks(cb))


def normalized_activity(g: float, m: float, s: float = DEFAULT_SCALE) -> float:
    """Normalize CB activity g against the frame mean m.

    Strictly increasing in g for fixed m, equal to 1 at g == m, and
    bounded by [1/s, s].
    """
    return (s * g + m) / (g + s * m)


def temporal_offset_g(magnitude: float, mean_magnitude: float) -> float:
    """G-channel temporal QP offset: o/2 above the frame mean magnitude."""
    return MEAN_OFFSET / 2.0 if magnitude > mean_magnitude else 0.0


def temporal_offset_br(magnitude: float, mean_magnitude: float) -> float:
    """B/R-channel temporal QP offset: o above the frame mean magnitude."""
    return MEAN_OFFSET if magnitude > mean_magnitude else 0.0


def perceptual_offset(activity: float, temporal: float, lo: float, hi: float,
                      scope: str = "total") -> float:
    """Clamped perceptual QP adjustment for one CB and channel."""
    raw = spatial_offset(activity)
    if scope == "total":
        return min(max(temporal + raw, lo), hi)
    return temporal + min(max(float(raw), lo), hi)


def cb_qp(q_base: float, delta: float) -> float:
    """Final CB-level QP: base plus adjustment, clamped to the legal range."""
    return min(max(q_base + delta, QP_MIN), QP_MAX)


def _intra_dc(recon: np.ndarray, x: int, y: int, size: int, mid: int):
    """DC predictor per leading index from already-reconstructed top/left
    neighbor samples, shaped to broadcast against a block."""
    neighbors = []
    if y > 0:
        neighbors.append(recon[..., y - 1, x: x + size])
    if x > 0:
        neighbors.append(recon[..., y: y + size, x - 1])
    if not neighbors:
        return mid
    samples = np.concatenate(neighbors, axis=-1)
    return np.rint(samples.mean(axis=-1)).astype(np.int64)[..., None, None]


def encode_frame_by_cb(frame: Frame, ref: Frame | None, qp_map,
                       grid: BlockGrid,
                       motion: MotionField | None = None) -> EncodedFrame:
    """spaqlab.codec_sim.encode_frame, one CB at a time in raster order."""
    if qp_map.n_blocks != grid.n_blocks:
        raise ValueError(
            f"qp map covers {qp_map.n_blocks} CBs, grid has {grid.n_blocks}"
        )
    intra = ref is None
    if not intra and (motion is None or len(motion.vectors) != grid.n_blocks):
        raise ValueError("an inter frame needs a motion field matching the grid")
    vectors = None if intra else motion.vectors.tolist()
    deadzone = INTRA_DEADZONE if intra else INTER_DEADZONE
    mid = 1 << (frame.bit_depth - 1)
    qsteps = qp_map.qstep.T[:, :, None, None]  # (n_blocks, 3, 1, 1)

    src = pad_plane(frame.planes, grid)
    ref_planes = None if intra else pad_plane(ref.planes, grid)
    recon = np.empty_like(src)
    channel_bits = np.zeros(3, dtype=np.int64)
    for idx, blk in enumerate(grid.blocks):
        x, y, size = blk.x, blk.y, blk.size
        if intra:
            pred = _intra_dc(recon, x, y, size, mid)
        else:
            mvx, mvy = vectors[idx]
            ry, rx = y - mvy, x - mvx
            if not (0 <= ry <= ref_planes.shape[1] - size
                    and 0 <= rx <= ref_planes.shape[2] - size):
                raise ValueError(
                    f"motion vector ({mvx}, {mvy}) leaves the reference")
            pred = ref_planes[:, ry: ry + size, rx: rx + size]
        residual = src[:, y: y + size, x: x + size] - pred
        qstep = qsteps[idx]
        levels = quantize(dct2(residual), qstep, deadzone)
        channel_bits += bit_cost(levels)
        rec_res = idct2(dequantize(levels, qstep))
        recon[:, y: y + size, x: x + size] = np.clip(
            np.rint(pred + rec_res), 0, frame.max_value)
    cropped = recon[:, : frame.height, : frame.width]
    diff = (frame.planes - cropped).astype(np.int64)
    sse = (diff * diff).sum(axis=(1, 2))

    recon_frame = Frame(frame.width, frame.height, frame.bit_depth, cropped)
    return EncodedFrame(recon_frame, int(channel_bits.sum()),
                        tuple(channel_bits.tolist()), tuple(sse.tolist()))


def run_cell_alone(seq, grid, mode: str, base_qp: int, cfg) -> CellResult:
    """spaqlab.experiment.run_cell, one cell alone and frame after frame,
    with nothing shared with any other cell."""
    use_spatial = mode in ("spaq", "spatial-only")
    use_temporal = mode in ("spaq", "temporal-only")

    recon_prev = None
    prev_mean_mag = None
    total_bits = 0
    channel_bits = np.zeros(3, dtype=np.int64)
    frame_bits = []
    sse = np.zeros(3, dtype=np.int64)
    ssim_sum = 0.0
    qp_maps = []

    for n, frame in enumerate(seq.frames):
        if recon_prev is None:
            fld = None
        else:
            me_ref = seq.frames[n - 1] if cfg.open_loop_me else recon_prev
            fld = estimate_motion_field(
                pad_plane(frame.planes[G], grid),
                pad_plane(me_ref.planes[G], grid),
                grid, cfg.search_range,
            )
        if mode == ANCHOR_MODE:
            qmap = uniform_qp_map(base_qp, grid.n_blocks)
        else:
            act = compute_activity_map(frame, grid).a if use_spatial else None
            if use_temporal and fld is not None:
                mags = fld.magnitudes
                if cfg.v_source == "previous" and prev_mean_mag is not None:
                    vmean = prev_mean_mag
                else:
                    vmean = fld.mean_magnitude
            else:
                mags, vmean = None, 0.0
            qmap = build_qp_map(base_qp, grid.n_blocks, activity=act,
                                magnitudes=mags, mean_magnitude=vmean,
                                scope=cfg.clamp_scope)
        enc = encode_frame(frame, recon_prev, qmap, grid, fld)
        total_bits += enc.bits
        channel_bits += np.asarray(enc.channel_bits)
        frame_bits.append(enc.bits)
        sse += np.asarray(enc.sse)
        ssim_sum += ssim_global(frame, [enc.recon])[0]
        qp_maps.append(qmap)
        # an unpadded copy, so the next frame pads its reference afresh
        recon_prev = Frame(enc.recon.width, enc.recon.height,
                           enc.recon.bit_depth, enc.recon.planes)
        if fld is not None:
            prev_mean_mag = fld.mean_magnitude

    samples = len(seq.frames) * seq.width * seq.height
    mse = tuple(float(s) / samples for s in sse)
    return CellResult(mode, base_qp, int(total_bits),
                      tuple(int(b) for b in channel_bits), mse,
                      tuple(mse_to_psnr(m, seq.bit_depth) for m in mse),
                      ssim_sum / len(seq.frames), frame_bits, qp_maps)


def qpmap_csv_text(frame: int, qmap) -> str:
    """Frame frame's QP map as CSV text: a row per (CB, channel), CB-major,
    CRLF line ends; raw is an int, every other number has 6 decimals."""
    base = f"{qmap.base_qp:.6f}"
    cols = (a.T.ravel().tolist()
            for a in (qmap.raw, qmap.t, qmap.delta, qmap.qp, qmap.qstep))
    rows = (f"{frame},{i // 3},{CHANNELS[i % 3]},{base},"
            f"{raw},{t:.6f},{delta:.6f},{qp:.6f},{qstep:.6f}"
            for i, (raw, t, delta, qp, qstep) in enumerate(zip(*cols)))
    return "\r\n".join([",".join(QPMAP_COLUMNS), *rows, ""])
