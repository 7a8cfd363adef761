"""Mutants the tests must kill, and a runner that checks that they do.

Each row of MUTANTS changes one exact text of one module in src/spaqlab
and names the tests that must fail under the change. The runner copies
src/, tests/, perfbench/ and pyproject.toml to a temporary directory outside the
checkout and imports spaqlab from that copy. It first requires every
named test to pass on the unmutated copy, then applies each mutant in
turn and requires every test of its row to fail. Run it from anywhere:

    python tests/mutants.py

It prints one line per mutant and exits 1 if any named test survives its
mutant (or fails unmutated). tests/test_mutants.py checks, in tier-1,
that each old text occurs exactly once in src/spaqlab, so a refactor
that moves a line cannot leave its row silently testing nothing.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # a candidate whose bound equals the best SAD is pruned
    Mutant(
        "motion_model",
        "survive = bounds <= upper[:, None, None]",
        "survive = bounds < upper[:, None, None]",
        ("tests/test_motion_model.py::test_64px_field_matches_exhaustive_oracle_at_12_bits",
         "tests/test_motion_model.py::test_constant_planes_tie_break_to_zero",
         "tests/test_motion_model.py::test_field_matches_exhaustive_oracle_on_prunable_content",
         "tests/test_motion_model.py::test_field_matches_exhaustive_oracle_property",
         "tests/test_motion_model.py::test_field_mean_recomputable",
         "tests/test_motion_model.py::test_full_sads_only_for_candidates_within_the_upper_bound",
         "tests/test_motion_model.py::test_grouped_field_matches_single_pu_searches",
         "tests/test_motion_model.py::test_grouped_field_matches_single_pu_searches_at_540p",
         "tests/test_motion_model.py::test_identical_planes_give_zero_vector",
         "tests/test_motion_model.py::test_planted_right_shift_recovered",
         "tests/test_motion_model.py::test_pu_leaving_the_plane_rejected",
         "tests/test_motion_model.py::test_search_range_past_the_plane_changes_nothing_property",
         "tests/test_motion_model.py::test_static_sequence_yields_zero_offsets")),
    # one motion-field memo shared by every reference of a frame
    Mutant(
        "experiment",
        "fields.setdefault(None if cfg.open_loop_me else ch.key, {})",
        "fields.setdefault(None, {})",
        ("tests/test_acceptance.py::test_perceptual_floor",
         "tests/test_experiment.py::test_12bit_64px_noise_run_pinned",
         "tests/test_experiment.py::test_closed_loop_sharing_keeps_every_file",
         "tests/test_experiment.py::test_each_coding_is_searched_from_once",
         "tests/test_experiment.py::test_run_matches_coding_each_cell_alone",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte")),
    # a motion-field memo per cell: open-loop searches are repeated
    Mutant(
        "experiment",
        "fields.setdefault(None if cfg.open_loop_me else ch.key, {})",
        "{}",
        ("tests/test_experiment.py::test_closed_loop_sharing_keeps_every_file",
         "tests/test_experiment.py::test_each_coding_is_searched_from_once",
         "tests/test_experiment.py::test_open_loop_run_searches_each_frame_pair_once")),
    # the QStep text table shifted by one QP
    Mutant(
        "experiment",
        "{_QSTEP_TEXT[qp]}",
        "{_QSTEP_TEXT[qp - 1]}",
        ("tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_qpmap_and_histogram_format_pinned",
         "tests/test_experiment.py::test_qpmap_csv_equals_the_f_string_oracle",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte")),
    # SSIM means over 63 samples instead of 64
    Mutant(
        "quality_metrics",
        "inv = 1 / (win * win)",
        "inv = 1 / 63",
        ("tests/test_experiment.py::test_12bit_64px_noise_run_pinned",
         "tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte",
         "tests/test_quality_metrics.py::test_channel_replaced_by_its_mean",
         "tests/test_quality_metrics.py::test_constant_offset_drops_luminance_only",
         "tests/test_quality_metrics.py::test_ssim_matches_brute_force_oracle",
         "tests/test_quality_metrics.py::test_ssim_plane_equals_integral_image_expression_property",
         "tests/test_quality_metrics.py::test_ssim_plane_exact_at_near_max_12bit_samples")),
    # build_qp_map clips an out-of-range base QP instead of rejecting it
    Mutant(
        "qp_model",
        "    qp_to_qstep(base_qp)  # rejects a base QP that is not an "
        "integer in range\n",
        "",
        ("tests/test_qp_model.py::test_uniform_map_is_flat",)),
    # a reconstruction's bottom padding repeats the row above its last
    Mutant(
        "codec_sim",
        "recon_planes[:, h:] = recon_planes[:, h - 1: h]",
        "recon_planes[:, h:] = recon_planes[:, h - 2: h - 1]",
        ("tests/test_codec_sim.py::test_reconstruction_store_is_the_padded_reference",
         "tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_run_matches_coding_each_cell_alone")),
    # input_frames hands a config on unchecked
    Mutant(
        "experiment",
        "    cfg.validate()\n    if cfg.synthetic is not None:\n",
        "    if cfg.synthetic is not None:\n",
        ("tests/test_experiment.py::test_a_synthetic_config_is_checked_once",
         "tests/test_experiment.py::test_bad_shift_rejected_before_out_dir",
         "tests/test_experiment.py::test_gen_synthetic_checks_arguments_before_drawing",
         "tests/test_experiment.py::test_gen_synthetic_checks_shift_like_the_config",
         "tests/test_experiment.py::test_non_int_numbers_rejected_before_out_dir",
         "tests/test_experiment.py::test_unknown_kind_rejected")),
    # a frame made from planes is not checked against its bit depth
    Mutant(
        "video_io",
        "if self.padded is None and planes.size and (",
        "if False and (",
        ("tests/test_experiment.py::test_cli_late_sample_above_the_bit_depth_rejected",
         "tests/test_experiment.py::test_cli_sample_above_the_bit_depth_rejected",
         "tests/test_video_io.py::test_frame_validation",
         "tests/test_video_io.py::test_sample_above_the_bit_depth_rejected")),
    # each intra anti-diagonal loses its lowest CB, so the left column and
    # bottom row go uncoded and stay 0
    Mutant(
        "codec_sim",
        "min(d, n_rows - 1) + 1",
        "min(d, n_rows - 1)",
        ("tests/test_codec_sim.py::test_intra_diagonals_and_inter_passes_match_raster_oracle",
         "tests/test_codec_sim.py::test_near_lossless_at_qp4_on_smooth_content",
         "tests/test_codec_sim.py::test_static_sequence_inter_cheaper_than_intra",
         "tests/test_experiment.py::test_12bit_64px_noise_run_pinned",
         "tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_qpmap_and_histogram_format_pinned",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte")),
    # B and R are scored against G's source window sums
    Mutant(
        "quality_metrics",
        "_plane_sums(plane)",
        "_plane_sums(ref.planes[0])",
        ("tests/test_experiment.py::test_12bit_64px_noise_run_pinned",
         "tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_static_sequence_report",
         "tests/test_quality_metrics.py::test_channel_replaced_by_its_mean",
         "tests/test_quality_metrics.py::test_ssim_global_equals_the_channel_mean_of_each_test",
         "tests/test_quality_metrics.py::test_ssim_identical_frames_is_exactly_one",
         "tests/test_quality_metrics.py::test_ssim_symmetry")),
    # SSIM's float stage reads window sums through float32, which is exact
    # only below 2^24: 8-bit sums of squares stay exact, near-max 12-bit
    # ones do not
    Mutant(
        "quality_metrics",
        "out[...] = x\n        return np.multiply(out, inv",
        "out[...] = x.astype(np.float32)\n        return np.multiply(out, inv",
        ("tests/test_quality_metrics.py::test_ssim_matches_brute_force_oracle",
         "tests/test_quality_metrics.py::test_ssim_plane_equals_integral_image_expression_property",
         "tests/test_quality_metrics.py::test_ssim_plane_exact_at_near_max_12bit_samples")),
    # run_parts joins the worker's half before the caller's
    Mutant(
        "partitioner",
        "return first + second",
        "return second + first",
        ("tests/test_split.py::test_run_parts_splits_into_two_halves",
         "tests/test_split.py::test_split_motion_field_equals_serial",
         "tests/test_split.py::test_traced_split_run_keeps_spans_and_counts")),
    # every perceptual QP offset is doubled, past the paper's windows
    Mutant(
        "qp_model",
        "int(base_qp) + delta,",
        "int(base_qp) + 2 * delta,",
        ("tests/test_acceptance.py::test_perceptual_floor",
         "tests/test_experiment.py::test_12bit_64px_noise_run_pinned",
         "tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_qpmap_and_histogram_format_pinned",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte",
         "tests/test_qp_model.py::test_build_qp_map_ablations",
         "tests/test_qp_model.py::test_build_qp_map_matches_scalar_oracle")),
    # a CB's activity takes its busiest sub-block, not its flattest
    Mutant(
        "spatial_activity",
        "quads.min(axis=(2, 4))",
        "quads.max(axis=(2, 4))",
        ("tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_qpmap_and_histogram_format_pinned",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte",
         "tests/test_spatial_activity.py::test_activity_map_matches_per_block_path_exactly")),
    # report.json is indented by one space: every value is kept, so only
    # the runs pinned byte for byte see it
    Mutant(
        "experiment",
        "json.dump(payload, fh, indent=2, sort_keys=True)",
        "json.dump(payload, fh, indent=1, sort_keys=True)",
        ("tests/test_experiment.py::test_ablation_run_pinned_byte_for_byte",
         "tests/test_experiment.py::test_small_run_pinned_byte_for_byte")),
)

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS) (\S+)",
                      re.MULTILINE)


def _env(root: Path) -> dict:
    # no bytecode cache: a mutant of the same size written within the
    # second of its module's cached bytecode would otherwise not be seen
    return dict(os.environ, PYTHONPATH=str(root / "src"),
                PYTHONDONTWRITEBYTECODE="1")


def run_tests(root: Path, ids) -> dict:
    """Run pytest on ids inside root, importing spaqlab from root/src.
    Returns {test id: outcome}, an id of a parametrized test standing for
    its worst case (a failed case counts as the test failing)."""
    # a fixed hypothesis seed draws the same examples on every pass, so a
    # row's outcome does not change from one pass to the next
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no",
         "-p", "no:cacheprovider", "--hypothesis-seed=0", *ids],
        cwd=root, env=_env(root), capture_output=True, text=True).stdout
    outcomes = {}
    for outcome, node in _OUTCOME.findall(out):
        for test in ids:
            if node == test or node.startswith(test + "["):
                if outcomes.get(test) not in ("FAILED", "ERROR"):
                    outcomes[test] = outcome
    return outcomes


def imported_from(root: Path) -> str:
    """spaqlab.__file__ as a test run inside root sees it."""
    return subprocess.run(
        [sys.executable, "-c", "import spaqlab; print(spaqlab.__file__)"],
        cwd=root, env=_env(root), capture_output=True, text=True,
        check=True).stdout.strip()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="spaqlab-mutants-") as tmp:
        root = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", root / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", root / "tests", ignore=skip)
        # tests/test_split.py imports perfbench's tracer
        shutil.copytree(ROOT / "perfbench", root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
        shutil.copy(ROOT / "pyproject.toml", root)
        found = Path(imported_from(root)).resolve()
        if root.resolve() not in found.parents:
            print(f"spaqlab imports from {found}, not from the copy")
            return 1
        ids = sorted({t for m in MUTANTS for t in m.tests})
        outcomes = run_tests(root, ids)
        bad = [t for t in ids if outcomes.get(t) != "PASSED"]
        for t in bad:
            print(f"unmutated: {t} {outcomes.get(t, 'not run')}")
        if bad:
            return 1
        survivors = 0
        for m in MUTANTS:
            path = root / "src" / "spaqlab" / f"{m.module}.py"
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new, 1))
            try:
                outcomes = run_tests(root, m.tests)
            finally:
                path.write_text(text)
            alive = [t for t in m.tests
                     if outcomes.get(t) not in ("FAILED", "ERROR")]
            survivors += len(alive)
            print(f"{m.module}: {m.new.strip() or 'deleted line'!r}: "
                  f"{len(m.tests) - len(alive)}/{len(m.tests)} tests fail")
            for t in alive:
                print(f"  survives: {t} {outcomes.get(t, 'not run')}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
