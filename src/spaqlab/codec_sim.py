"""Minimal transform-coding loop for A/B-testing QP allocations.

Per CB, for G, B and R at once: predict (DC from reconstructed neighbors
on intra frames, motion-compensated copy on inter frames), transform the
residual with an orthonormal 2-D DCT, quantize with each channel's step
size and a deadzone, count proxy bits, then reconstruct. CBs go through
these steps in stacks, with the same bits as raster order: one
anti-diagonal of the grid at a time on intra frames, whose DC predictors
read earlier CBs, and raster passes of at most INTER_PASS samples on
inter frames, whose CBs read none of their frame. On a plane of at least
partitioner.SPLIT_SAMPLES samples, a worker thread codes the second half
of an inter frame's CBs (partitioner.run_parts): each CB writes only
itself, and the bit counts are exact integer sums. Intra frames stay on
one thread: each anti-diagonal reads the one before it, and halving
every diagonal between two threads made a 960x540 frame slower (40 to
59-66 ms). Everything that would be symmetric between two QP
allocations (entropy coder, loop filters, rich prediction) is
deliberately left out; the proxy bit cost is deterministic and monotone
in level magnitude but not comparable to a real bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .motion_model import MotionField
from .partitioner import BlockGrid, pad_frame, run_parts
from .qp_model import QpMap
from .video_io import Frame

INTRA_DEADZONE = 1.0 / 3.0
INTER_DEADZONE = 1.0 / 6.0
INTER_PASS = 2**15  # samples (3 channels) per stack of an inter frame


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

    Returns the levels as integer-valued float64, in coeffs' shape. qstep
    is a scalar or an array that broadcasts to coeffs' shape, such as one
    step per channel of shape (3, 1, 1).
    """
    if np.any(np.asarray(qstep) <= 0):
        raise ValueError("qstep must be positive")
    if not 0.0 <= deadzone <= 0.5:
        raise ValueError("deadzone must lie in [0, 0.5]")
    c = np.asarray(coeffs, dtype=np.float64)
    levels = np.abs(c)
    levels /= qstep
    levels += deadzone
    np.floor(levels, out=levels)
    return np.copysign(levels, c, out=levels)


def dequantize(levels: np.ndarray, qstep) -> np.ndarray:
    """Uniform reconstruction: coefficient = level * qstep."""
    return np.asarray(levels, dtype=np.float64) * qstep


def bit_cost(levels: np.ndarray) -> np.ndarray:
    """Proxy bit count of quantized blocks, one per leading index.

    Over the last two axes: one significance bit per coefficient plus the
    signed order-0 exp-Golomb code length of every nonzero level.
    """
    lv = np.asarray(levels)
    # signed mapping: k>0 -> 2k-1, k<0 -> 2|k|; ue(n) takes
    # 2*floor(log2(n+1)) + 1 bits. For k != 0, n+1 is 2|k| or 2|k| + 1, so
    # floor(log2(n+1)) = floor(log2|k|) + 1, which is exactly frexp(k)'s
    # exponent e, and with its significance bit the level costs 2e + 2
    # bits. frexp(0)'s exponent is 0, so only the nonzero levels add to
    # the exponent sum and a zero level costs its one bit.
    return (2 * np.frexp(lv)[1].sum(axis=(-2, -1), dtype=np.int64)
            + lv.shape[-2] * lv.shape[-1] + np.count_nonzero(lv, axis=(-2, -1)))


@dataclass
class EncodedFrame:
    recon: Frame  # padded to the grid
    bits: int
    channel_bits: tuple
    sse: tuple  # per-channel squared error over the true WxH region


def _intra_dc(recon: np.ndarray, rows, cols, mid: int) -> np.ndarray:
    """(k, 3, 1, 1) DC predictors of CBs (rows, cols) from the reconstructed
    top/left neighbor samples in recon, a (rows, cols, 3, S, S) CB view."""
    top, left = np.sign(rows)[:, None], np.sign(cols)[:, None]  # 0 or 1
    total = (recon[rows - 1, cols, :, -1].sum(-1, dtype=np.int64) * top
             + recon[rows, cols - 1, :, :, -1].sum(-1, dtype=np.int64) * left)
    count = recon.shape[-1] * (top + left)
    dc = np.rint(total / np.maximum(count, 1)).astype(np.int64)
    return np.where(count > 0, dc, mid)[..., None, None]


def encode_frame(frame: Frame, ref: Frame | None, qp_map: QpMap,
                 grid: BlockGrid,
                 motion: MotionField | None = None) -> EncodedFrame:
    """Encode one frame against an optional reconstructed reference.

    ref None selects the intra path (neighbor-DC prediction, intra
    deadzone); otherwise every PU is motion-compensated from ref at its
    vector from `motion`, which an inter frame requires. Each CB is coded
    as one (3, S, S) block of G, B and R with the channels' own QSteps,
    in stacks of anti-diagonals (intra) or raster passes (inter).

    frame and ref are read through their padded stores (pad_frame), so
    a frame padded once serves every coding of it. The reconstruction is
    coded into a zeroed padded store (a CB no stack codes stays 0), whose
    padding is then overwritten by edge replication: it is pad_plane of
    the cropped samples, and the next frame predicts and searches from it.
    """
    if qp_map.n_blocks != grid.n_blocks:
        raise ValueError(
            f"qp map covers {qp_map.n_blocks} CBs, grid has {grid.n_blocks}"
        )
    intra = ref is None
    if not intra and (motion is None or len(motion.vectors) != grid.n_blocks):
        raise ValueError("an inter frame needs a motion field matching the grid")
    size, n_rows, n_cols = grid.cb_size, grid.rows, grid.cols
    deadzone = INTRA_DEADZONE if intra else INTER_DEADZONE
    mid = 1 << (frame.bit_depth - 1)
    qsteps = qp_map.qstep.T.reshape(n_rows, n_cols, 3, 1, 1)

    frame = pad_frame(frame, grid)
    recon_planes = np.zeros_like(frame.padded)
    # (rows, cols, 3, S, S) views of the C-contiguous padded planes
    src, recon = (p.reshape(3, n_rows, size, n_cols, size)
                  .transpose(1, 3, 0, 2, 4) for p in (frame.padded, recon_planes))
    if not intra:
        # every SxS block of the padded reference, (3, H-S+1, W-S+1, S, S)
        windows = np.lib.stride_tricks.sliding_window_view(
            pad_frame(ref, grid).padded, (size, size), axis=(1, 2))
        # each CB's prediction corner (y, x) in the padded reference
        ry, rx = (np.indices((n_rows, n_cols)) * size
                  - motion.vectors.T[::-1].reshape(2, n_rows, n_cols))
        bad = ((ry < 0) | (ry >= windows.shape[1])
               | (rx < 0) | (rx >= windows.shape[2]))
        if bad.any():
            mvx, mvy = motion.vectors[np.argmax(bad)].tolist()
            raise ValueError(
                f"motion vector ({mvx}, {mvy}) leaves the reference")

    def code(rows, cols):
        """Codes the stack of CBs (rows, cols); returns its channel bits."""
        if intra:
            pred = _intra_dc(recon, rows, cols, mid)
        else:
            pred = windows[:, ry[rows, cols], rx[rows, cols]].swapaxes(0, 1)
        qstep = qsteps[rows, cols]
        levels = quantize(dct2(src[rows, cols] - pred), qstep, deadzone)
        rec = np.rint(pred + idct2(dequantize(levels, qstep)))
        recon[rows, cols] = np.clip(rec, 0, frame.max_value)
        return bit_cost(levels).sum(axis=0)

    if intra:  # a DC predictor reads earlier anti-diagonals only
        bits = [code(rows, d - rows) for d in range(n_rows + n_cols - 1)
                for rows in [np.arange(max(0, d - n_cols + 1),
                                       min(d, n_rows - 1) + 1)]]
    else:  # an inter CB reads no other CB of its frame
        step = INTER_PASS // (3 * size * size)
        bits = run_parts(lambda lo, hi: [
            code(*np.divmod(np.arange(k, min(k + step, hi)), n_cols))
            for k in range(lo, hi, step)], grid.n_blocks, frame.padded[0].size)
    channel_bits = np.sum(bits, axis=0, dtype=np.int64)
    h, w = frame.height, frame.width
    recon_planes[:, :h, w:] = recon_planes[:, :h, w - 1: w]
    recon_planes[:, h:] = recon_planes[:, h - 1: h]
    recon_frame = Frame(w, h, frame.bit_depth, None, recon_planes)
    # in strips of CB rows; |diff| <= 4095 at 12 bits, so each difference
    # is taken in int32, where its square is exact (in int16 it would wrap)
    sse = np.zeros(3, dtype=np.int64)
    for y in range(0, h, size):
        diff = np.subtract(frame.planes[:, y: y + size],
                           recon_frame.planes[:, y: y + size], dtype=np.int32)
        sse += np.square(diff, out=diff).sum(axis=(1, 2), dtype=np.int64)
    return EncodedFrame(recon_frame, int(channel_bits.sum()),
                        tuple(channel_bits.tolist()), tuple(sse.tolist()))
