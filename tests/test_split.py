"""The two-thread split of a large plane's layer work (partitioner.run_parts).

Each layer that splits (motion search, inter coding, SSIM) must give with
the split forced on, at small odd sizes, exactly what it gives serially.
The tests force it by lowering partitioner.SPLIT_SAMPLES and by reporting
two CPUs, and count the threads started through a spy on threading.Thread.
"""

import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from spaqlab import cli, codec_sim, experiment, partitioner, quality_metrics
from spaqlab.codec_sim import encode_frame
from spaqlab.motion_model import estimate_motion_field
from spaqlab.partitioner import build_grid, pad_frame, run_parts
from spaqlab.qp_model import uniform_qp_map
from spaqlab.quality_metrics import ssim_global
from spaqlab.video_io import G, Frame

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer, check_spans, traced  # noqa: E402

SIZES = [(37, 21), (72, 40)]
DEPTHS = [8, 10, 12]


@pytest.fixture
def started(monkeypatch):
    """Threads started while the test runs, on a process allowed two CPUs."""
    threads = []

    class Spy(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return threads


def serial_and_split(monkeypatch, started, layer):
    """layer() below the gate, then with every plane above it."""
    serial = layer()
    assert started == []
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    split = layer()
    assert started, "the split path started no thread"
    return serial, split


def moving_frames(w, h, depth, seed=0):
    """Padded (ref, cur, grid): noise, and the noise with each band of 16
    rows moved one more sample to the right than the band above, so the
    PU rows of a 16-px grid get different vectors."""
    rng = np.random.default_rng(seed)
    ref = rng.integers(0, 1 << depth, (3, h, w), dtype=np.int32)
    cur = np.concatenate([np.roll(ref[:, y: y + 16], 1 + y // 16, axis=-1)
                          for y in range(0, h, 16)], axis=1)
    grid = build_grid(w, h, 2)
    return (pad_frame(Frame(w, h, depth, ref), grid),
            pad_frame(Frame(w, h, depth, cur), grid), grid)


def field_of(ref, cur, grid):
    return estimate_motion_field(cur.padded[G], ref.padded[G], grid, 4)


def test_run_parts_splits_into_two_halves(monkeypatch, started):
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    caller = threading.current_thread()
    for n in range(6):
        calls = []

        def body(lo, hi):
            calls.append((lo, hi, threading.current_thread()))
            return [i * i for i in range(lo, hi)]

        got = run_parts(body, n, 1)
        assert got == [i * i for i in range(n)]
        m = -(-n // 2)
        if n < 2:  # one item or none runs on the caller alone
            assert calls == [(0, n, caller)]
        else:
            assert sorted(calls, key=lambda c: c[0]) == [
                (0, m, caller), (m, n, started[-1])]
    assert len(started) == 4


@pytest.mark.parametrize("bad", [0, 1, 3])
def test_a_failing_part_reaches_the_caller(monkeypatch, started, bad):
    # of 5 items the caller runs 0..2 and the worker 3..4
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    before = threading.active_count()

    def body(lo, hi):
        if lo <= bad < hi:
            raise KeyError(bad)
        return list(range(lo, hi))

    with pytest.raises(KeyError, match=str(bad)):
        run_parts(body, 5, 1)
    assert len(started) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("size", SIZES)
def test_split_motion_field_equals_serial(monkeypatch, started, size, depth):
    ref, cur, grid = moving_frames(*size, depth)
    serial, split = serial_and_split(
        monkeypatch, started, lambda: field_of(ref, cur, grid))
    # PU rows differ, so groups handed back in the wrong order show
    assert len({tuple(v) for v in serial.vectors.tolist()}) > 1
    assert split.vectors.tolist() == serial.vectors.tolist()
    assert split.mean_magnitude == serial.mean_magnitude


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("size", SIZES)
def test_split_inter_coding_equals_serial(monkeypatch, started, size, depth):
    ref, cur, grid = moving_frames(*size, depth)
    field, qmap = field_of(ref, cur, grid), uniform_qp_map(22, grid.n_blocks)
    # one CB per raster pass, so a small frame has many passes to split
    monkeypatch.setattr(codec_sim, "INTER_PASS", 3 * grid.cb_size ** 2)
    serial, split = serial_and_split(
        monkeypatch, started, lambda: encode_frame(cur, ref, qmap, grid, field))
    assert np.array_equal(split.recon.padded, serial.recon.padded)
    assert (split.bits, split.channel_bits, split.sse) == (
        serial.bits, serial.channel_bits, serial.sse)


def test_intra_coding_stays_serial(monkeypatch, started):
    ref, _, grid = moving_frames(72, 40, 10)
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    encode_frame(ref, None, uniform_qp_map(22, grid.n_blocks), grid)
    assert started == []


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("size", SIZES)
def test_split_ssim_equals_serial(monkeypatch, started, size, depth):
    ref, cur, _ = moving_frames(*size, depth)
    half = Frame(ref.width, ref.height, depth, ref.planes // 2)
    # three window rows per strip, so a small plane has several strips
    monkeypatch.setattr(quality_metrics, "SSIM_STRIP", 3 * size[0])
    serial, split = serial_and_split(
        monkeypatch, started, lambda: ssim_global(ref, [cur, half, ref]))
    assert split == serial
    assert serial[2] == 1.0


def test_one_cpu_starts_no_thread(monkeypatch, started):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    monkeypatch.setattr(codec_sim, "INTER_PASS", 3 * 16 * 16)
    monkeypatch.setattr(quality_metrics, "SSIM_STRIP", 3 * 72)
    ref, cur, grid = moving_frames(72, 40, 10)
    field = field_of(ref, cur, grid)
    enc = encode_frame(cur, ref, uniform_qp_map(22, grid.n_blocks), grid, field)
    ssim_global(cur, [enc.recon])
    assert run_parts(lambda lo, hi: list(range(lo, hi)), 4, 1) == [0, 1, 2, 3]
    assert started == []


@pytest.mark.parametrize("cpus", [None, 1, 2])
def test_cpu_count_stands_in_where_there_is_no_affinity(monkeypatch, started,
                                                         cpus):
    # os.sched_getaffinity exists on Linux only; elsewhere the split
    # follows os.cpu_count(), and None counts as one CPU
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(partitioner, "SPLIT_SAMPLES", 0)
    monkeypatch.setattr(quality_metrics, "SSIM_STRIP", 3 * 72)
    ref, cur, grid = moving_frames(72, 40, 10)

    def layers():
        field = field_of(ref, cur, grid)
        enc = encode_frame(cur, ref, uniform_qp_map(22, grid.n_blocks), grid,
                           field)
        return (field.vectors.tolist(), enc.bits, enc.sse,
                ssim_global(cur, [enc.recon]))

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = layers()
    assert started == []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert layers() == serial
    # on two CPUs, one thread each for ME, inter coding and 3 SSIM channels
    assert len(started) == (5 if cpus == 2 else 0)


def test_cli_runs_where_there_is_no_affinity(monkeypatch, started, tmp_path):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert cli.main(["--synthetic", "mixed", "--width", "256", "--height",
                     "256", "--frames", "2", "--qp", "22",
                     "--out", str(tmp_path / "out")]) == 0
    assert started, "a 256x256 run on two CPUs split no layer"


def test_128px_run_starts_no_thread(started, tmp_path):
    # the benchmark's small workloads code 128x128 planes, below the gate
    experiment.run(experiment.ExperimentConfig(
        synthetic="moving-texture", width=128, height=128, frames=2,
        qps=(27,), modes=(experiment.ANCHOR_MODE, "spaq"), cb_depth=2,
        out_dir=str(tmp_path)))
    assert started == []


def test_traced_split_run_keeps_spans_and_counts(monkeypatch, started,
                                                  tmp_path):
    # perfbench's tracer keeps one stack of open spans: a worker that
    # entered a traced layer would give spans the wrong parents
    def traced_run(name):
        tracer = Tracer()
        with traced(experiment, tracer):
            experiment.run(experiment.ExperimentConfig(
                synthetic="moving-texture", width=72, height=64, frames=3,
                qps=(27,), modes=(experiment.ANCHOR_MODE, "spaq"),
                cb_depth=2, search_range=4, out_dir=str(tmp_path / name)))
        return tracer

    monkeypatch.setattr(codec_sim, "INTER_PASS", 3 * 16 * 16)
    monkeypatch.setattr(quality_metrics, "SSIM_STRIP", 3 * 72)
    names = iter(("serial", "split"))
    serial, split = serial_and_split(
        monkeypatch, started, lambda: traced_run(next(names)))
    assert check_spans(split.spans, split.self_times()) == []
    assert split.counts == serial.counts
    assert split.me_inputs == serial.me_inputs
    assert [s[0] for s in split.spans] == [s[0] for s in serial.spans]
    assert ((tmp_path / "split" / "report.csv").read_bytes()
            == (tmp_path / "serial" / "report.csv").read_bytes())
