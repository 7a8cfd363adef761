import re

import numpy as np
import pytest

from spaqlab.partitioner import build_grid
from spaqlab.video_io import (
    Frame,
    RawFormatError,
    Sequence,
    frame_byte_size,
    load_raw,
    sample_dtype,
    write_raw,
)


def make_frame(width, height, bit_depth, rng=None, fill=None):
    if fill is not None:
        planes = tuple(
            np.full((height, width), fill, dtype=np.int32) for _ in range(3)
        )
    else:
        planes = tuple(
            rng.integers(0, (1 << bit_depth), (height, width), dtype=np.int64
                         ).astype(np.int32)
            for _ in range(3)
        )
    return Frame(width, height, bit_depth, planes)


def test_all_zero_8bit_file(tmp_path):
    path = tmp_path / "z.rgb"
    path.write_bytes(bytes(12))  # one 2x2 8-bit frame
    seq = load_raw(path, 2, 2, 8)
    assert len(seq.frames) == 1
    for plane in seq.frames[0].planes:
        assert (plane == 0).all()


def test_10bit_first_word_is_g_sample(tmp_path):
    path = tmp_path / "w.rgb"
    data = bytearray(frame_byte_size(2, 2, 10))
    data[0:2] = (0x03FF).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    seq = load_raw(path, 2, 2, 10)
    assert seq.frames[0].planes[0][0, 0] == 1023


@pytest.mark.parametrize("bit_depth", [10, 12])
def test_sample_above_the_bit_depth_rejected(tmp_path, bit_depth):
    # the same frame written big-endian: 0x03FF reads as 0xFF03
    path = tmp_path / "be.rgb"
    data = bytearray(frame_byte_size(2, 2, bit_depth) * 2)
    data[-2:] = (0x03FF).to_bytes(2, "big")
    path.write_bytes(bytes(data))
    with pytest.raises(RawFormatError, match=(
            f"frame 1 holds sample 65283, above the {bit_depth}-bit "
            f"maximum {(1 << bit_depth) - 1}$")):
        load_raw(path, 2, 2, bit_depth)
    # a 12-bit file read as 10-bit
    seq = Sequence([make_frame(4, 2, 12, fill=4095)])
    write_raw(seq, path)
    with pytest.raises(RawFormatError, match="frame 0 holds sample 4095"):
        load_raw(path, 4, 2, 10)
    assert load_raw(path, 4, 2, 12).frames[0].planes.max() == 4095


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.rgb"
    path.write_bytes(bytes(13))
    with pytest.raises(RawFormatError):
        load_raw(path, 2, 2, 8)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "e.rgb"
    path.write_bytes(b"")
    with pytest.raises(RawFormatError):
        load_raw(path, 2, 2, 8)


def test_directory_rejected(tmp_path):
    with pytest.raises(RawFormatError, match="is not a regular file"):
        load_raw(tmp_path, 2, 2, 8)


@pytest.mark.parametrize("bit_depth", [8, 10, 12])
@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (7, 5), (16, 9)])
def test_round_trip(tmp_path, bit_depth, dims):
    rng = np.random.default_rng(42)
    w, h = dims
    seq = Sequence([make_frame(w, h, bit_depth, rng) for _ in range(3)])
    path = tmp_path / "rt.rgb"
    write_raw(seq, path)
    back = load_raw(path, w, h, bit_depth)
    assert len(back.frames) == 3
    for f1, f2 in zip(seq.frames, back.frames):
        assert f2.planes.shape == (3, h, w)
        assert f2.planes.dtype == np.int32 and f2.planes.flags.c_contiguous
        for p1, p2 in zip(f1.planes, f2.planes):
            assert np.array_equal(p1, p2)


def test_written_byte_length(tmp_path):
    # gradient content; length must be frames * 3 * W * H * bytes/sample
    w, h, n = 6, 4, 3
    frames = []
    for i in range(n):
        g = (np.arange(w * h, dtype=np.int32).reshape(h, w) + i) % 256
        frames.append(Frame(w, h, 8, (g, g.copy(), g.copy())))
    path = tmp_path / "g.rgb"
    write_raw(Sequence(frames), path)
    assert path.stat().st_size == n * 3 * w * h * sample_dtype(8).itemsize


def test_max_frames_limits_read(tmp_path):
    rng = np.random.default_rng(0)
    seq = Sequence([make_frame(4, 4, 8, rng) for _ in range(5)])
    path = tmp_path / "m.rgb"
    write_raw(seq, path)
    assert len(load_raw(path, 4, 4, 8, frames=2).frames) == 2
    with pytest.raises(RawFormatError, match=(
            f"^{re.escape(str(path))} holds 5 frames, fewer than the 99 "
            "requested$")):
        load_raw(path, 4, 4, 8, frames=99)
    with pytest.raises(ValueError):
        load_raw(path, 4, 4, 8, frames=0)


@pytest.mark.parametrize("func, args, message", [
    ("load_raw", (16.0, 16, 8), "width must be an int, got 16.0"),
    ("load_raw", (16, True, 8), "height must be an int, got True"),
    ("load_raw", (16, 16, 8.0), "bit_depth must be an int, got 8.0"),
    ("load_raw", (16, 16, 8, 1.5), "frames must be an int, got 1.5"),
    ("build_grid", (64.0, 64, 1), "width must be an int, got 64.0"),
    ("build_grid", (64, 64, 1.0), "depth must be an int, got 1.0"),
    ("Frame", (2.0, 2, 8, np.zeros((3, 2, 2), np.int32)),
     "width must be an int, got 2.0"),
    ("Frame", (2, 2, 8.0, np.zeros((3, 2, 2), np.int32)),
     "bit_depth must be an int, got 8.0"),
])
def test_non_int_sizes_rejected_with_one_line(tmp_path, func, args, message):
    path = tmp_path / "two.rgb"
    path.write_bytes(bytes(2 * frame_byte_size(16, 16, 8)))
    call = {"load_raw": lambda *a: load_raw(path, *a),
            "build_grid": build_grid, "Frame": Frame}[func]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_unwritable_path_propagates_io_error(tmp_path):
    seq = Sequence([make_frame(2, 2, 8, fill=0)])
    with pytest.raises(OSError):
        write_raw(seq, tmp_path / "no" / "such" / "dir.rgb")


def test_plane_permutation_round_trips_identically(tmp_path):
    rng = np.random.default_rng(7)
    f = make_frame(8, 8, 10, rng)
    permuted = Frame(8, 8, 10, (f.planes[2], f.planes[0], f.planes[1]))
    p1, p2 = tmp_path / "a.rgb", tmp_path / "b.rgb"
    write_raw(Sequence([f]), p1)
    write_raw(Sequence([permuted]), p2)
    b1, b2 = load_raw(p1, 8, 8, 10), load_raw(p2, 8, 8, 10)
    assert np.array_equal(b1.frames[0].planes[2], b2.frames[0].planes[0])
    assert np.array_equal(b1.frames[0].planes[0], b2.frames[0].planes[1])
    assert np.array_equal(b1.frames[0].planes[1], b2.frames[0].planes[2])


def test_frame_validation():
    good = np.zeros((2, 2), dtype=np.int32)
    with pytest.raises(ValueError):
        Frame(2, 2, 9, (good, good, good))
    with pytest.raises(ValueError):
        Frame(2, 2, 8, (good, good))
    with pytest.raises(ValueError):
        Frame(2, 2, 8, (good, good, np.full((2, 2), 256, dtype=np.int32)))
    with pytest.raises(ValueError, match="^a frame is made from planes or "
                       "padded, not both$"):
        Frame(2, 2, 8, (good, good, good), np.zeros((3, 2, 2), np.int32))
    # any dtype but int32: uint8 samples would wrap in the codec's src - pred
    for dtype in (np.uint8, np.uint16, np.int64):
        with pytest.raises(ValueError, match="int32"):
            Frame(2, 2, 8, np.zeros((3, 2, 2), dtype=dtype))
    with pytest.raises(ValueError):
        Sequence([])
