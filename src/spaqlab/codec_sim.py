"""Minimal transform-coding loop for A/B-testing QP allocations.

Per CB, for G, B and R at once: predict (DC from reconstructed neighbors
on intra frames, motion-compensated copy on inter frames), transform the
residual with an orthonormal 2-D DCT, quantize with each channel's step
size and a deadzone, count proxy bits, then reconstruct. Everything that
would be symmetric between two QP allocations (entropy coder, loop
filters, rich prediction) is deliberately left out; the proxy bit cost is
deterministic and monotone in level magnitude but not comparable to a
real bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .motion_model import MotionField
from .partitioner import BlockGrid, pad_plane
from .qp_model import QpMap
from .video_io import Frame

INTRA_DEADZONE = 1.0 / 3.0
INTER_DEADZONE = 1.0 / 6.0


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    m[0, :] = np.sqrt(1.0 / n)
    m.setflags(write=False)
    return m


def dct2(block: np.ndarray) -> np.ndarray:
    """Orthonormal forward 2-D DCT over the last two axes (matrix form,
    energy preserving); leading axes index independent blocks."""
    h, w = block.shape[-2:]
    return _dct_matrix(h) @ np.asarray(block, dtype=np.float64) @ _dct_matrix(w).T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct2."""
    h, w = coeffs.shape[-2:]
    return _dct_matrix(h).T @ np.asarray(coeffs, dtype=np.float64) @ _dct_matrix(w)


def quantize(coeffs: np.ndarray, qstep, deadzone: float) -> np.ndarray:
    """Deadzone scalar quantizer: level = sign(c) * floor(|c|/qstep + deadzone).

    qstep is a scalar or an array that broadcasts against coeffs, such as
    one step per channel of shape (3, 1, 1).
    """
    if np.any(np.asarray(qstep) <= 0):
        raise ValueError("qstep must be positive")
    if not 0.0 <= deadzone <= 0.5:
        raise ValueError("deadzone must lie in [0, 0.5]")
    c = np.asarray(coeffs, dtype=np.float64)
    return (np.sign(c) * np.floor(np.abs(c) / qstep + deadzone)).astype(np.int64)


def dequantize(levels: np.ndarray, qstep) -> np.ndarray:
    """Uniform reconstruction: coefficient = level * qstep."""
    return np.asarray(levels, dtype=np.float64) * qstep


def bit_cost(levels: np.ndarray):
    """Proxy bit count of a quantized block, summed over its last two axes.

    One significance bit per coefficient plus the signed order-0
    exp-Golomb code length of every nonzero level. A block (or a 1-D
    array) gives an int; a stack of blocks gives one count per leading
    index.
    """
    lv = np.asarray(levels, dtype=np.int64)
    # signed mapping: k>0 -> 2k-1, k<0 -> 2|k|; ue(n) takes
    # 2*floor(log2(n+1)) + 1 bits. ue(0) is one bit, so adding the
    # significance bit of the nonzero levels gives each level's cost.
    n = 2 * np.abs(lv) - (lv > 0)
    bits = 2 * np.floor(np.log2(n + 1.0)).astype(np.int64) + 1 + (lv != 0)
    summed = bits.sum(axis=tuple(range(max(lv.ndim - 2, 0), lv.ndim)))
    return int(summed) if lv.ndim <= 2 else summed


@dataclass
class EncodedFrame:
    recon: Frame
    bits: int
    channel_bits: tuple
    sse: tuple  # per-channel squared error over the true WxH region


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


def encode_frame(frame: Frame, ref: Frame | None, qp_map: QpMap,
                 grid: BlockGrid,
                 motion: MotionField | None = None) -> EncodedFrame:
    """Encode one frame against an optional reconstructed reference.

    ref None selects the intra path (neighbor-DC prediction, intra
    deadzone); otherwise every PU is motion-compensated from ref at its
    vector from `motion`, which an inter frame requires. Each CB is coded
    as one (3, S, S) block of G, B and R with the channels' own QSteps.
    """
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
