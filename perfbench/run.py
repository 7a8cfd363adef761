"""Run one spaqlab benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep128 --seed 0 --seconds 35 --trace 0

The run prepares the workload's input (timed as set-up), then repeats the
workload through ``spaqlab.experiment.run`` until --seconds would be
exceeded, checking every cell's outputs against the stored reference
digests. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced repetitions and reports the per-layer
metrics. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's provenance. Both are also written to perfbench/_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import spaqlab.experiment; "
                "print(time.perf_counter() - t)")


def _import_seconds() -> float:
    """Import time of spaqlab.experiment in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip())


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "spaqlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _provenance(args, input_seed, numpy_version):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Pin BLAS/OpenMP pools before numpy is imported here or in the
    # import-timing children, which inherit the environment.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "spaqlab", "experiment.py")):
        print(f"perfbench: no spaqlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    import numpy
    from spaqlab import experiment

    import workloads
    from tracer import COUNTS, UNITS, Tracer, check_spans

    if not os.path.abspath(experiment.__file__).startswith(SRC + os.sep):
        print(f"perfbench: spaqlab imported from {experiment.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    input_seed = args.seed % workloads.N_INPUT_SEEDS
    reference = workloads.load_references()[args.workload][str(input_seed)]
    provenance = _provenance(args, input_seed, numpy.__version__)

    work_dir = workloads.WORK_DIR
    setups = []
    for _ in range(SETUP_ROUNDS):
        import_s = _import_seconds()
        t0 = time.perf_counter()
        workload.prepare(input_seed, work_dir, False)
        setups.append(import_s + time.perf_counter() - t0)
    configs = workload.configs(input_seed, work_dir, False)

    reps = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(reps) % 2 == 0 else None
        t0 = time.perf_counter()
        reps.append(workloads.Repetition(configs, reference, tracer))
        now = time.perf_counter()
        # stop when a further repetition as long as the last would overrun
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and now - start + (now - t0) > args.seconds:
            break

    repetitions = {"setup_s": setups, "wall_s": [r.wall_s for r in reps],
                   "traced": [r.tracer is not None for r in reps]}
    problems = []
    if any(r.digests != reps[0].digests for r in reps):
        problems.append("outputs differ between repetitions")
    plain = [r for r in reps if r.tracer is None]
    wall_s = statistics.median(r.wall_s for r in plain)

    if args.trace:
        traced_reps = [r for r in reps if r.tracer is not None]
        layer = [r.tracer.metrics() for r in traced_reps]
        for name in COUNTS + ("me.unique_ratio",):
            if any(m[name] != layer[0][name] for m in layer):
                problems.append(f"count {name} differs between repetitions")
        for r in traced_reps:
            problems += check_spans(r.tracer.spans, r.tracer.self_times())
        # counts were checked equal above; times are medians over repetitions
        values = {name: statistics.median(m[name] for m in layer)
                  if UNITS[name] == "s" else layer[0][name]
                  for name in layer[0]}
        values["trace.overhead_s"] = statistics.median(
            r.tracer.overhead_s for r in traced_reps)
        repetitions["traced_minus_untraced_wall_s"] = (
            statistics.median(r.wall_s for r in traced_reps) - wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        pixels = sum(workloads.coded_pixels(cfg) for cfg in configs)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "mpix_per_s": {"value": pixels / wall_s / 1e6, "unit": "Mpx/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    out_dir = os.path.join(work_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({"provenance": provenance, "repetitions": repetitions,
                   "result": result}, fh, indent=2)
    if args.trace:
        with open(os.path.join(out_dir, stem + "-spans.json"), "w") as fh:
            json.dump([{"repetition": i, "spans": r.tracer.spans}
                       for i, r in enumerate(reps) if r.tracer is not None],
                      fh)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
