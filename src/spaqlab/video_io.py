"""Raw planar RGB 4:4:4 sequence I/O.

File layout (bit-exact contract, no container):
  frame 0 G plane, frame 0 B plane, frame 0 R plane, frame 1 G plane, ...
  Each plane is height rows of width samples, row-major.
  8-bit: 1 byte per sample. 10/12-bit: 2 bytes per sample, little-endian,
  upper bits zero.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass, field

import numpy as np

CHANNELS = ("G", "B", "R")
G, B, R = 0, 1, 2

SUPPORTED_BIT_DEPTHS = (8, 10, 12)


class RawFormatError(ValueError):
    """Raised when a raw file does not match the declared geometry."""


def is_int(value) -> bool:
    """True for a Python int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_ints(**values) -> None:
    """Raise ValueError naming the first of values that is not an int."""
    for name, value in values.items():
        if not is_int(value):
            raise ValueError(f"{name} must be an int, got {value!r}")


def sample_dtype(bit_depth: int) -> np.dtype:
    """A raw file's sample type: uint8 at 8 bits, else little-endian uint16."""
    return np.dtype(np.uint8 if bit_depth == 8 else "<u2")


@dataclass(frozen=True)
class Frame:
    """One picture: its G, B and R samples as one (3, height, width) array.

    planes is int32, indexed channel first (planes[G] is the G plane); a
    sequence of three (height, width) planes is stacked into one
    C-contiguous array. Other dtypes are rejected, since the codec subtracts
    samples and a narrow unsigned type would wrap, and so is any sample
    outside the bit depth. A padded frame (pad_frame, every reconstruction)
    is made from padded alone, not rescanned: a C-contiguous int32 (3, H, W)
    pad_plane of a checked frame, or clipped samples, at a grid's padded
    size, with planes its top-left (height, width) corner, a view.
    """

    width: int
    height: int
    bit_depth: int
    planes: np.ndarray
    padded: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        check_ints(width=self.width, height=self.height,
                   bit_depth=self.bit_depth)
        if self.bit_depth not in SUPPORTED_BIT_DEPTHS:
            raise ValueError(f"unsupported bit depth {self.bit_depth}")
        if self.padded is not None and self.planes is not None:
            raise ValueError("a frame is made from planes or padded, not both")
        planes = (np.ascontiguousarray(self.planes) if self.padded is None
                  else self.padded[:, : self.height, : self.width])
        object.__setattr__(self, "planes", planes)
        if planes.dtype != np.int32:
            raise ValueError(f"samples must be int32, got {planes.dtype}")
        if planes.shape != (3, self.height, self.width):
            raise ValueError(
                f"planes shape {planes.shape} != (3, {self.height}, {self.width})"
            )
        if self.padded is None and planes.size and (
                int(planes.min()) < 0 or int(planes.max()) > self.max_value):
            raise ValueError("sample outside [0, 2^bit_depth - 1]")

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1


@dataclass
class Sequence:
    """Ordered frames sharing width, height and bit depth."""

    frames: list

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a sequence holds at least one frame")
        first = self.frames[0]
        for f in self.frames:
            if (f.width, f.height, f.bit_depth) != (
                first.width,
                first.height,
                first.bit_depth,
            ):
                raise ValueError("all frames must share width, height, bit depth")

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def bit_depth(self) -> int:
        return self.frames[0].bit_depth


def frame_byte_size(width: int, height: int, bit_depth: int) -> int:
    return 3 * width * height * sample_dtype(bit_depth).itemsize


def raw_frames(path, width: int, height: int, bit_depth: int,
               frames: int | None = None):
    """Check a raw planar G,B,R file, then return an iterator that reads
    its frames one at a time.

    The iterator yields exactly the frames count from the start of the
    file, or every frame when frames is None. Raises RawFormatError here,
    before a byte is read, when path is not a regular file, when the file
    size is not a positive whole number of frames or when it holds fewer
    frames than asked for; the iterator raises it, naming the frame, when
    a sample of that frame exceeds bit_depth bits (a big-endian file, or
    a 12-bit file read as 10-bit).
    """
    check_ints(width=width, height=height, bit_depth=bit_depth)
    if bit_depth not in SUPPORTED_BIT_DEPTHS:
        raise ValueError(f"unsupported bit depth {bit_depth}")
    if width < 1 or height < 1:
        raise ValueError("frame dimensions must be at least 1x1")
    if frames is not None:
        check_ints(frames=frames)
        if frames < 1:
            raise ValueError("frames must be at least 1")

    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise RawFormatError(f"{path} is not a regular file")
    fsize = info.st_size
    fbytes = frame_byte_size(width, height, bit_depth)
    if fsize == 0 or fsize % fbytes != 0:
        raise RawFormatError(
            f"file size {fsize} is not a positive multiple of the "
            f"{fbytes}-byte frame size for {width}x{height}@{bit_depth}bit"
        )
    available = fsize // fbytes
    frames = available if frames is None else frames
    if frames > available:
        raise RawFormatError(f"{path} holds {available} frames, fewer than "
                             f"the {frames} requested")
    return _read_frames(path, width, height, bit_depth, frames)


def _read_frames(path, width, height, bit_depth, frames):
    # the generator binds no frame or sample array of its own, so none
    # outlives the frame its consumer holds
    with open(path, "rb") as fh:
        for n in range(frames):
            yield _read_frame(fh, path, n, width, height, bit_depth)


def _read_frame(fh, path, n, width, height, bit_depth) -> Frame:
    raw = np.fromfile(fh, dtype=sample_dtype(bit_depth),
                      count=3 * width * height)
    planes = raw.astype(np.int32).reshape(3, height, width)
    try:  # Frame checks every sample against the bit depth
        return Frame(width, height, bit_depth, planes)
    except ValueError:
        raise RawFormatError(
            f"{path}: frame {n} holds sample {int(planes.max())}, above "
            f"the {bit_depth}-bit maximum {(1 << bit_depth) - 1}") from None


def load_raw(path, width: int, height: int, bit_depth: int,
             frames: int | None = None) -> Sequence:
    """Read a raw planar G,B,R file into a Sequence: every frame that
    raw_frames yields, with its checks."""
    return Sequence(list(raw_frames(path, width, height, bit_depth, frames)))


def write_raw(seq: Sequence, path) -> None:
    """Write a Sequence in the raw planar layout; load_raw round-trips it."""
    dtype = sample_dtype(seq.bit_depth)
    with open(path, "wb") as fh:
        for frame in seq.frames:
            frame.planes.astype(dtype).tofile(fh)
