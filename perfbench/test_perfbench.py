"""Self-tests of the benchmark harness at smoke-test sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from spaqlab import experiment  # noqa: E402
from spaqlab.partitioner import build_grid  # noqa: E402

import workloads  # noqa: E402
from tracer import COUNTS, UNITS, Tracer, check_spans  # noqa: E402


def _repetition(workload, work_dir, tracer=None, reference=None):
    workload.prepare(workloads.DEFAULT_SEED, work_dir, True)
    configs = workload.configs(workloads.DEFAULT_SEED, work_dir, True)
    return workloads.Repetition(configs, reference or {}, tracer)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def smoke(request, tmp_path_factory):
    """An untraced and two traced smoke-size repetitions of one workload."""
    workload = workloads.WORKLOADS[request.param]
    work_dir = str(tmp_path_factory.mktemp(request.param))
    plain = _repetition(workload, work_dir)
    reference = plain.digests
    checked = _repetition(workload, work_dir, reference=reference)
    traced_reps = [_repetition(workload, work_dir, Tracer(), reference)
                   for _ in range(2)]
    return workload, plain, checked, traced_reps


def test_smoke_run_codes_every_cell(smoke):
    workload, plain, checked, _ = smoke
    configs = workload.configs(workloads.DEFAULT_SEED, "unused", True)
    assert len(plain.digests) == sum(map(workloads.expected_cells, configs))
    assert checked.failed == 0
    assert checked.attempted == len(plain.digests)
    assert plain.files > 0 and plain.bytes > 0


def test_traced_digests_equal_untraced(smoke):
    _, plain, _, traced_reps = smoke
    for rep in traced_reps:
        assert rep.digests == plain.digests
        assert rep.failed == 0


def test_span_self_times_add_up(smoke):
    _, _, _, traced_reps = smoke
    for rep in traced_reps:
        spans, selfs = rep.tracer.spans, rep.tracer.self_times()
        assert spans and all(s >= 0 for s in selfs)
        assert check_spans(spans, selfs) == []
        top = [i for i, span in enumerate(spans) if span[3] is None]
        assert {spans[i][0] for i in top} == {"run"}
        total = sum(spans[i][2] - spans[i][1] for i in top)
        assert sum(rep.tracer.layer_times().values()) == pytest.approx(total)


def test_counts_repeat_exactly(smoke):
    _, _, _, (first, second) = smoke
    m1, m2 = first.tracer.metrics(), second.tracer.metrics()
    for name in COUNTS + ("me.unique_ratio",):
        assert m1[name] == m2[name], name
    assert m1["me.calls"] > 0 and m1["encode.blocks"] > 0
    assert set(m1) | {"trace.overhead_s"} == set(UNITS)


def test_open_loop_me_inputs_repeat_across_cells(tmp_path):
    tracer = Tracer()
    _repetition(workloads.WORKLOADS["openloop-cb16"], str(tmp_path), tracer)
    cfg, = workloads.WORKLOADS["openloop-cb16"].configs(0, "unused", True)
    cells = workloads.expected_cells(cfg)
    assert tracer.counts["me.calls"] == cells * (cfg.frames - 1)
    assert len(tracer.me_inputs) == cfg.frames - 1


def test_sad_px_matches_block_match_window():
    grid = build_grid(64, 32, 1)
    # Two 32x32 PUs in a 64x32 plane, range 16: each sees dy 0..0 and
    # dx 0..16 (left PU) or -16..0 (right PU).
    assert Tracer().sad_px((32, 64), grid, 16) == 2 * 17 * 32 * 32


def test_missing_reference_counts_as_failure(tmp_path):
    rep = _repetition(workloads.WORKLOADS["raw540p10"], str(tmp_path))
    assert rep.attempted == 2 and rep.failed == 2
