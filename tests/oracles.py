"""Scalar reference implementations of SPAQ's activity, QP and codec steps.

One CB, one channel, one value at a time, written straight from the
equations. The array paths in spaqlab.spatial_activity and
spaqlab.qp_model must reproduce them entry for entry; encode_frame_by_cb
codes one CB at a time in raster order, and spaqlab.codec_sim's
anti-diagonal stacks must give its bits and reconstruction exactly.
"""

import numpy as np

from spaqlab.codec_sim import (
    INTER_DEADZONE,
    INTRA_DEADZONE,
    EncodedFrame,
    bit_cost,
    dct2,
    dequantize,
    idct2,
    quantize,
)
from spaqlab.motion_model import MotionField
from spaqlab.partitioner import BlockGrid, BlockRef, pad_plane
from spaqlab.qp_model import MEAN_OFFSET, QP_MAX, QP_MIN, spatial_offset
from spaqlab.spatial_activity import DEFAULT_SCALE
from spaqlab.video_io import Frame


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
