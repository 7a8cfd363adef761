"""Workload definitions, input set-up and output digests for the benchmark.

A workload is a list of ExperimentConfig objects; one repetition runs each
of them through ``spaqlab.experiment.run``. Sizes are scaled down from the
probed sizes (see README.md) so that one repetition takes a few seconds and
a run can report a median over several. ``tiny=True`` gives the smoke-test
sizes of the same workload shape.

Every path written into a config is relative to the repository root, so the
``out_dir``/``input_path`` echoed into report.json, and therefore the digests,
are the same in every checkout.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from spaqlab import experiment
from spaqlab.video_io import write_raw

from tracer import traced

WORK_DIR = os.path.join("perfbench", "_work")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
# The --seed of a run selects one of this many input seeds, each of which
# has stored reference digests, so every run is checked against a reference.
# Seed 0 is the default; seed 1 is held out for confirming a tuned change.
N_INPUT_SEEDS = 10
DEFAULT_SEED = 0

ALL_QPS = (22, 27, 32, 37)
SWEEP_KINDS = ("noise", "gradient", "moving-texture", "mixed")
SWEEP_MODES = (experiment.ANCHOR_MODE, "spaq", "spatial-only")


@dataclass(frozen=True)
class Workload:
    name: str
    # (input_seed, work_dir, tiny) -> configs of one repetition
    configs: Callable
    # (input_seed, work_dir, tiny) -> None; writes any input files
    prepare: Callable


def _out(work_dir, workload, label):
    return os.path.join(work_dir, "out", workload, label)


def _sweep128(seed, work_dir, tiny):
    size, frames = (64, 2) if tiny else (128, 4)
    return [experiment.ExperimentConfig(
        synthetic=kind, width=size, height=size, frames=frames, qps=ALL_QPS,
        modes=SWEEP_MODES, cb_depth=1, seed=seed,
        out_dir=_out(work_dir, "sweep128", kind))
        for kind in SWEEP_KINDS]


def _openloop_cb16(seed, work_dir, tiny):
    size, frames = (64, 3) if tiny else (128, 4)
    return [experiment.ExperimentConfig(
        synthetic="mixed", width=size, height=size, frames=frames, qps=ALL_QPS,
        modes=experiment.MODES, cb_depth=2, open_loop_me=True, seed=seed,
        out_dir=_out(work_dir, "openloop-cb16", "mixed"))]


def _raw_dims(tiny):
    return (128, 72, 2) if tiny else (960, 540, 2)


def _raw_path(work_dir):
    return os.path.join(work_dir, "raw540p10.rgb")


def _raw540p10(seed, work_dir, tiny):
    width, height, frames = _raw_dims(tiny)
    return [experiment.ExperimentConfig(
        input_path=_raw_path(work_dir), width=width, height=height,
        bit_depth=10, frames=frames, qps=(27,),
        modes=(experiment.ANCHOR_MODE, "spaq"), cb_depth=1,
        out_dir=_out(work_dir, "raw540p10", "raw"))]


def _write_raw_input(seed, work_dir, tiny):
    width, height, frames = _raw_dims(tiny)
    os.makedirs(work_dir, exist_ok=True)
    seq = experiment.gen_synthetic("moving-texture", width, height, frames,
                                   10, seed)
    write_raw(seq, _raw_path(work_dir))


def _generate_inputs(configs_fn):
    """Set-up of a synthetic workload: generate each input sequence once."""
    def prepare(seed, work_dir, tiny):
        os.makedirs(work_dir, exist_ok=True)
        for cfg in configs_fn(seed, work_dir, tiny):
            experiment.load_sequence(cfg)
    return prepare


# Why each workload is in the benchmark: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("sweep128", _sweep128, _generate_inputs(_sweep128)),
    Workload("raw540p10", _raw540p10, _write_raw_input),
    Workload("openloop-cb16", _openloop_cb16, _generate_inputs(_openloop_cb16)),
)}


def expected_cells(cfg) -> int:
    modes = set(cfg.modes) | {experiment.ANCHOR_MODE}
    return len(modes) * len(cfg.qps)


def coded_pixels(cfg) -> int:
    """W x H x frames x cells coded by one run of cfg."""
    return cfg.width * cfg.height * cfg.frames * expected_cells(cfg)


def cell_digests(out_dir) -> tuple[dict, int, int]:
    """Digest of everything emitted about each cell, plus file and byte counts.

    A cell's digest covers the report.csv header and its row, the whole of
    rate_points.csv and report.json (config echo included), and every file of
    the cell's qpmap directory. Returns
    ({"<sequence>/<mode>/<qp>": hex}, files, bytes) over the whole out_dir.
    """
    files = n_bytes = 0
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            n_bytes += os.path.getsize(os.path.join(dirpath, name))

    shared = hashlib.sha256()
    for name in ("rate_points.csv", "report.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            shared.update(fh.read())
    with open(os.path.join(out_dir, "report.csv"), newline="") as fh:
        header, *lines = fh.readlines()

    digests = {}
    for line in lines:
        sequence, mode, qp = next(csv.reader([line]))[:3]
        h = shared.copy()
        h.update((header + line).encode())
        qdir = os.path.join(out_dir, "qpmaps", f"{mode}_qp{qp}")
        for name in sorted(os.listdir(qdir)) if os.path.isdir(qdir) else ():
            h.update(name.encode() + b"\0")
            with open(os.path.join(qdir, name), "rb") as fh:
                h.update(fh.read())
        digests[f"{sequence}/{mode}/{qp}"] = h.hexdigest()[:32]
    return digests, files, n_bytes


class Repetition:
    """One timed pass over a workload's configs, checked against reference.

    reference maps "<sequence>/<mode>/<qp>" to the cell's digest. A cell is
    attempted once per pass and fails if run() raises or its digest differs.
    With a tracer, the pass runs with the layer wrappers installed.
    """

    def __init__(self, configs, reference, tracer=None):
        self.wall_s = 0.0
        self.digests = {}
        self.attempted = self.failed = 0
        self.files = self.bytes = 0
        self.tracer = tracer
        for cfg in configs:
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
            with traced(experiment, tracer) if tracer else nullcontext():
                t0 = time.perf_counter()
                try:
                    experiment.run(cfg)
                    raised = False
                except Exception:  # a failing cell is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    raised = True
                self.wall_s += time.perf_counter() - t0
            self._check(cfg, reference, raised)
        if tracer is not None:
            tracer.counts["emit.files"] = self.files
            tracer.counts["emit.bytes"] = self.bytes

    def _check(self, cfg, reference, raised):
        got = {}
        if not raised:
            try:
                got, files, n_bytes = cell_digests(cfg.out_dir)
                self.files += files
                self.bytes += n_bytes
            except (OSError, ValueError):
                traceback.print_exc(file=sys.stderr)
        label = cfg.label or cfg.synthetic or os.path.basename(cfg.input_path)
        expected = {k: v for k, v in reference.items()
                    if k.startswith(label + "/")}
        cells = max(expected_cells(cfg), len(got))
        self.attempted += cells
        self.failed += cells - sum(got.get(k) == v for k, v in expected.items())
        self.digests.update(got)


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)
