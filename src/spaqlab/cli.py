"""Command-line front end for anchor-vs-SPAQ experiments."""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    DEFAULT_QPS,
    MODES,
    SYNTHETIC_KINDS,
    ANCHOR_MODE,
    ExperimentConfig,
    run,
)
from .video_io import RawFormatError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spaqlab",
        description="Run perceptual-QP experiments against a uniform-QP "
                    "anchor on raw planar RGB 4:4:4 input or synthetic "
                    "sequences.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="raw planar G,B,R file")
    src.add_argument("--synthetic", choices=SYNTHETIC_KINDS,
                     help="generate test content instead of reading a file")
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--bit-depth", type=int, default=8, choices=(8, 10, 12))
    p.add_argument("--frames", type=int, default=16,
                   help="frame count to read or generate")
    p.add_argument("--qp", type=int, action="append", default=None,
                   help=f"base QP, repeatable (default {list(DEFAULT_QPS)})")
    p.add_argument("--mode", action="append", default=None, choices=MODES,
                   help=f"coding mode, repeatable (default {ANCHOR_MODE} "
                        "and spaq)")
    p.add_argument("--cb-depth", type=int, default=1, choices=(0, 1, 2),
                   help="quadtree level: 0=64x64, 1=32x32, 2=16x16 CBs")
    p.add_argument("--search-range", type=int, default=16)
    p.add_argument("--clamp-scope", default="total", choices=("total", "term"),
                   help="apply the offset window to the total adjustment or "
                        "to the spatial term only")
    p.add_argument("--open-loop-me", action="store_true",
                   help="estimate motion against the previous original frame "
                        "instead of its reconstruction")
    p.add_argument("--v-source", default="current",
                   choices=("current", "previous"),
                   help="frame whose mean magnitude thresholds the offsets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", default="3,4",
                   help="per-frame dx,dy of the moving-texture patch")
    p.add_argument("--out", required=True, help="report output directory")
    return p


def config_from_args(args) -> ExperimentConfig:
    try:
        shift = tuple(int(s) for s in args.shift.split(","))
        if len(shift) != 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"--shift expects 'dx,dy', got {args.shift!r}")
    return ExperimentConfig(
        input_path=args.input,
        synthetic=args.synthetic,
        width=args.width,
        height=args.height,
        bit_depth=args.bit_depth,
        frames=args.frames,
        qps=tuple(args.qp) if args.qp else DEFAULT_QPS,
        modes=tuple(args.mode) if args.mode else (ANCHOR_MODE, "spaq"),
        cb_depth=args.cb_depth,
        search_range=args.search_range,
        clamp_scope=args.clamp_scope,
        open_loop_me=args.open_loop_me,
        v_source=args.v_source,
        seed=args.seed,
        shift=shift,
        out_dir=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))  # exits 2 before any work
    try:
        report = run(cfg)
    except (RawFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"spaqlab: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(report.cells)} records to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
