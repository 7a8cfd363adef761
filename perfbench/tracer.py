"""In-memory span tracer around the layer functions ``spaqlab.experiment`` calls.

``traced(experiment)`` replaces, for the duration of a ``with`` block, the
layer functions in the ``spaqlab.experiment`` namespace with wrappers that
record a span (name, start, end, parent) per call and the layer's work
counts. The program's code is not changed: ``run`` and ``run_cell`` look
these names up in their module at call time, so they call the wrappers.

Counts marked "computed" are derived from call arguments and results, not
measured: they repeat exactly for the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import time
from collections import Counter

# span name -> per-layer time metric; "run" and "run_cell" both feed the
# orchestration residual run.self_s.
LAYER_TIMES = {
    "me": "me.s",
    "encode.intra": "encode.intra_s",
    "encode.inter": "encode.inter_s",
    "ssim": "ssim.s",
    "qpmap": "qpmap.s",
    "activity": "activity.s",
    "load": "load.s",
    "gen": "gen.s",
    "emit": "emit.s",
    "run": "run.self_s",
    "run_cell": "run.self_s",
}
# Every per-layer metric with its unit. Metrics in unit "s" are measured;
# the others are computed counts and ratios.
UNITS = {
    "me.s": "s", "me.calls": "count", "me.sad_px": "px",
    "me.unique_ratio": "ratio",
    "encode.intra_s": "s", "encode.inter_s": "s", "encode.blocks": "count",
    "ssim.s": "s", "ssim.px": "px",
    "qpmap.s": "s", "qpmap.entries": "count", "activity.s": "s",
    "load.s": "s", "load.bytes": "B", "gen.s": "s",
    "emit.s": "s", "emit.files": "count", "emit.bytes": "B",
    "run.self_s": "s", "trace.overhead_s": "s",
}
COUNTS = tuple(name for name, unit in UNITS.items()
               if unit not in ("s", "ratio"))


class Tracer:
    """Spans and counts of one repetition; spans are [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = Counter({name: 0 for name in COUNTS})
        self.me_inputs = set()
        # time spent in the wrappers outside the calls they wrap
        self.overhead_s = 0.0
        self._sad_px = {}

    def wrap(self, orig, name, count=None):
        """Traced stand-in for orig.

        name is the span name, or a function of the bound arguments that
        returns it; count(tracer, arguments, result) adds to the counts.
        """
        signature = inspect.signature(orig)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = [name(bound.arguments) if callable(name) else name, 0.0, 0.0,
                    self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self, bound.arguments, result)
            self.overhead_s += time.perf_counter() - entered - (span[2] - span[1])
            return result
        return wrapper

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        selfs = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                selfs[parent] -= end - start
        return selfs

    def layer_times(self) -> dict:
        out = dict.fromkeys(LAYER_TIMES.values(), 0.0)
        for span, own in zip(self.spans, self.self_times()):
            out[LAYER_TIMES[span[0]]] += own
        return out

    def sad_px(self, shape, grid, search_range) -> int:
        """Computed SAD work of one ME call: candidates x block pixels per PU.

        Mirrors block_match's search window, clipped at the plane edges.
        """
        key = (shape, grid.width, grid.height, grid.depth, search_range)
        if key not in self._sad_px:
            h, w = shape
            total = 0
            for pu in grid.blocks:
                bh, bw = min(pu.size, h - pu.y), min(pu.size, w - pu.x)
                ny = (min(search_range, h - pu.y - bh)
                      - max(-search_range, -pu.y) + 1)
                nx = (min(search_range, w - pu.x - bw)
                      - max(-search_range, -pu.x) + 1)
                total += ny * nx * bh * bw
            self._sad_px[key] = total
        return self._sad_px[key]

    def metrics(self) -> dict:
        """Per-layer metrics of this repetition, all but trace.overhead_s."""
        out = self.layer_times()
        out.update(self.counts)
        calls = self.counts["me.calls"]
        out["me.unique_ratio"] = len(self.me_inputs) / calls if calls else 0.0
        return out


def _count_me(tracer, a, field):
    cur, ref, grid, sr = a["cur"], a["ref"], a["grid"], a["search_range"]
    key = hashlib.blake2b(digest_size=16)
    key.update(repr((cur.shape, cur.dtype.str, ref.dtype.str, sr,
                     grid.depth)).encode())
    key.update(cur.tobytes())
    key.update(ref.tobytes())
    tracer.me_inputs.add(key.digest())
    tracer.counts["me.calls"] += 1
    tracer.counts["me.sad_px"] += tracer.sad_px(cur.shape, grid, sr)


def _adds(counter, amount):
    def count(tracer, a, result):
        tracer.counts[counter] += amount(a, result)
    return count


def _encode_span(a):
    return "encode.intra" if a["ref"] is None else "encode.inter"


# experiment attribute -> (span name, count); every per-layer count is
# computed from the call's arguments and result.
LAYERS = {
    "run": ("run", None),
    "run_cell": ("run_cell", None),
    "gen_synthetic": ("gen", None),
    "load_raw": ("load", _adds("load.bytes", lambda a, seq: len(seq.frames)
                               * 3 * seq.width * seq.height
                               * (1 if seq.bit_depth == 8 else 2))),
    "estimate_motion_field": ("me", _count_me),
    "compute_activity_map": ("activity", None),
    "uniform_qp_map": ("qpmap", _adds("qpmap.entries", lambda a, q: q.qp.size)),
    "build_qp_map": ("qpmap", _adds("qpmap.entries", lambda a, q: q.qp.size)),
    "encode_frame": (_encode_span, _adds(
        "encode.blocks", lambda a, enc: 3 * a["grid"].n_blocks)),
    "ssim_global": ("ssim", _adds(
        "ssim.px", lambda a, score: 3 * a["ref"].width * a["ref"].height)),
    "emit": ("emit", None),
}


@contextlib.contextmanager
def traced(experiment, tracer: Tracer):
    """Route experiment's layer calls through tracer inside the block."""
    originals = {}
    try:
        for attr, (name, count) in LAYERS.items():
            originals[attr] = getattr(experiment, attr)
            setattr(experiment, attr, tracer.wrap(originals[attr], name, count))
        yield tracer
    finally:
        for attr, orig in originals.items():
            setattr(experiment, attr, orig)


def check_spans(spans, selfs, tol=1e-9) -> list:
    """Violations of the span invariants; an empty list means they hold.

    Every span ends after it starts, lies inside its parent's interval and
    has self time >= 0; children's durations plus self time give the
    parent's duration.
    """
    problems = []
    children = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent is not None:
            children[parent] += end - start
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} {name} leaves its parent {parent}")
    for i, (name, start, end, _) in enumerate(spans):
        if selfs[i] < -tol:
            problems.append(f"span {i} {name} has self time {selfs[i]:.3g}")
        if abs(children[i] + selfs[i] - (end - start)) > tol:
            problems.append(f"span {i} {name}: children + self != duration")
    return problems
