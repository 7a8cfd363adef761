"""Minimal transform-coding loop for A/B-testing QP allocations.

Per CB and channel: predict (DC from reconstructed neighbors on intra
frames, motion-compensated copy on inter frames), transform the residual
with an orthonormal 2-D DCT, quantize with the CB's step size and a
deadzone, count proxy bits, then reconstruct. Everything that would be
symmetric between two QP allocations (entropy coder, loop filters, rich
prediction) is deliberately left out; the proxy bit cost is deterministic
and monotone in level magnitude but not comparable to a real bitstream.
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
    """Orthonormal forward 2-D DCT (matrix form, energy preserving)."""
    h, w = block.shape
    return _dct_matrix(h) @ np.asarray(block, dtype=np.float64) @ _dct_matrix(w).T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of dct2."""
    h, w = coeffs.shape
    return _dct_matrix(h).T @ np.asarray(coeffs, dtype=np.float64) @ _dct_matrix(w)


def quantize(coeffs: np.ndarray, qstep: float, deadzone: float) -> np.ndarray:
    """Deadzone scalar quantizer: level = sign(c) * floor(|c|/qstep + deadzone)."""
    if qstep <= 0:
        raise ValueError("qstep must be positive")
    if not 0.0 <= deadzone <= 0.5:
        raise ValueError("deadzone must lie in [0, 0.5]")
    c = np.asarray(coeffs, dtype=np.float64)
    return (np.sign(c) * np.floor(np.abs(c) / qstep + deadzone)).astype(np.int64)


def dequantize(levels: np.ndarray, qstep: float) -> np.ndarray:
    """Uniform reconstruction: coefficient = level * qstep."""
    return np.asarray(levels, dtype=np.float64) * qstep


def bit_cost(levels: np.ndarray) -> int:
    """Proxy bit count for a quantized block.

    One significance bit per coefficient plus the signed order-0
    exp-Golomb code length of every nonzero level.
    """
    lv = np.asarray(levels)
    bits = lv.size
    nz = lv[lv != 0]
    if nz.size:
        # signed mapping: k>0 -> 2k-1, k<0 -> 2|k|; ue(n) takes
        # 2*floor(log2(n+1)) + 1 bits
        n = 2 * np.abs(nz.astype(np.int64)) - (nz > 0)
        bits += int(np.sum(2 * np.floor(np.log2(n + 1.0)).astype(np.int64) + 1))
    return int(bits)


@dataclass
class EncodedFrame:
    recon: Frame
    bits: int
    channel_bits: tuple
    sse: tuple  # per-channel squared error over the true WxH region


def _intra_dc(recon_plane: np.ndarray, x: int, y: int, size: int,
              mid: int) -> int:
    """DC predictor from already-reconstructed top/left neighbor samples."""
    neighbors = []
    if y > 0:
        neighbors.append(recon_plane[y - 1, x: x + size])
    if x > 0:
        neighbors.append(recon_plane[y: y + size, x - 1])
    if not neighbors:
        return mid
    samples = np.concatenate(neighbors)
    return int(np.rint(samples.mean()))


def encode_frame(frame: Frame, ref: Frame | None, qp_map: QpMap,
                 grid: BlockGrid, motion: MotionField | None = None,
                 intra_deadzone: float = INTRA_DEADZONE,
                 inter_deadzone: float = INTER_DEADZONE) -> EncodedFrame:
    """Encode one frame against an optional reconstructed reference.

    ref None selects the intra path (neighbor-DC prediction, intra
    deadzone); otherwise every PU is motion-compensated from ref at its
    vector from `motion`, which an inter frame requires.
    """
    if qp_map.n_blocks != grid.n_blocks:
        raise ValueError(
            f"qp map covers {qp_map.n_blocks} CBs, grid has {grid.n_blocks}"
        )
    intra = ref is None
    if not intra and (motion is None or len(motion.vectors) != grid.n_blocks):
        raise ValueError("an inter frame needs a motion field matching the grid")
    vectors = None if intra else motion.vectors.tolist()
    deadzone = intra_deadzone if intra else inter_deadzone
    mid = 1 << (frame.bit_depth - 1)

    recon_planes = []
    channel_bits = []
    sse = []
    for ch in range(3):
        src = pad_plane(frame.planes[ch], grid)
        ref_plane = None if intra else pad_plane(ref.planes[ch], grid)
        recon = np.empty_like(src)
        bits_ch = 0
        for idx, blk in enumerate(grid.blocks):
            x, y, size = blk.x, blk.y, blk.size
            if intra:
                pred = np.full((size, size),
                               _intra_dc(recon, x, y, size, mid),
                               dtype=np.int32)
            else:
                mvx, mvy = vectors[idx]
                ry, rx = y - mvy, x - mvx
                if not (0 <= ry <= ref_plane.shape[0] - size
                        and 0 <= rx <= ref_plane.shape[1] - size):
                    raise ValueError(
                        f"motion vector ({mvx}, {mvy}) leaves the reference")
                pred = ref_plane[ry: ry + size, rx: rx + size]
            residual = src[y: y + size, x: x + size] - pred
            qstep = float(qp_map.qstep[ch, idx])
            levels = quantize(dct2(residual), qstep, deadzone)
            bits_ch += bit_cost(levels)
            rec_res = idct2(dequantize(levels, qstep))
            recon[y: y + size, x: x + size] = np.clip(
                np.rint(pred + rec_res), 0, frame.max_value
            ).astype(np.int32)
        cropped = recon[: frame.height, : frame.width]
        diff = (frame.planes[ch] - cropped).astype(np.int64)
        sse.append(int((diff * diff).sum()))
        channel_bits.append(bits_ch)
        recon_planes.append(cropped)

    recon_frame = Frame(frame.width, frame.height, frame.bit_depth,
                        tuple(recon_planes))
    return EncodedFrame(recon_frame, sum(channel_bits), tuple(channel_bits),
                        tuple(sse))
