"""Command-line front end for anchor-vs-SPAQ experiments."""

from __future__ import annotations

import argparse
import sys

from .experiment import (
    MODES,
    SYNTHETIC_KINDS,
    V_SOURCES,
    ExperimentConfig,
    run,
)
from .partitioner import CB_SIZE_BY_DEPTH
from .qp_model import CLAMP_SCOPES
from .video_io import SUPPORTED_BIT_DEPTHS


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser. An option left out is absent from the parsed
    namespace, so ExperimentConfig supplies every default."""
    default = ExperimentConfig()
    p = argparse.ArgumentParser(
        prog="spaqlab",
        description="Run perceptual-QP experiments against a uniform-QP "
                    "anchor on raw planar RGB 4:4:4 input or synthetic "
                    "sequences.",
        argument_default=argparse.SUPPRESS,
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", dest="input_path", metavar="INPUT",
                     help="raw planar G,B,R file")
    src.add_argument("--synthetic", choices=SYNTHETIC_KINDS,
                     help="generate test content instead of reading a file")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--bit-depth", type=int, choices=SUPPORTED_BIT_DEPTHS)
    p.add_argument("--frames", type=int,
                   help="frame count to read or generate")
    p.add_argument("--qp", dest="qps", metavar="QP", type=int,
                   action="append",
                   help=f"base QP, repeatable (default {list(default.qps)})")
    p.add_argument("--mode", dest="modes", action="append", choices=MODES,
                   help="coding mode, repeatable (default "
                        f"{' and '.join(default.modes)})")
    p.add_argument("--cb-depth", type=int, choices=tuple(CB_SIZE_BY_DEPTH),
                   help="quadtree level: " + ", ".join(
                       f"{d}={s}x{s}" for d, s in CB_SIZE_BY_DEPTH.items())
                   + " CBs")
    p.add_argument("--search-range", type=int)
    p.add_argument("--clamp-scope", choices=CLAMP_SCOPES,
                   help="apply the offset window to the total adjustment or "
                        "to the spatial term only")
    p.add_argument("--open-loop-me", action="store_true",
                   help="estimate motion against the previous original frame "
                        "instead of its reconstruction")
    p.add_argument("--v-source", choices=V_SOURCES,
                   help="frame whose mean magnitude thresholds the offsets")
    p.add_argument("--seed", type=int)
    p.add_argument("--shift",
                   help="per-frame dx,dy of the moving-texture patch; "
                        "write a negative dx as --shift=-2,5")
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True,
                   help="report output directory")
    return p


def config_from_args(args) -> ExperimentConfig:
    kw = dict(vars(args))
    for name in ("qps", "modes"):
        if name in kw:
            kw[name] = tuple(kw[name])
    if "shift" in kw:
        try:
            kw["shift"] = tuple(int(s) for s in args.shift.split(","))
        except ValueError:
            raise ValueError(f"--shift expects 'dx,dy', got {args.shift!r}")
    return ExperimentConfig(**kw)


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
    except (OSError, ValueError, MemoryError) as exc:
        print(f"spaqlab: error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(report.cells)} records to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
