"""Regenerate references.json: reference cell digests for every input seed.

Usage, from the repository root, at a commit whose outputs are known good:

    python3 perfbench/make_references.py

The digests pin the program's emitted reports byte for byte; regenerate
them only when a change to the reports is intended, and say so.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        refs[name] = {}
        for seed in range(workloads.N_INPUT_SEEDS):
            workload.prepare(seed, workloads.WORK_DIR, False)
            configs = workload.configs(seed, workloads.WORK_DIR, False)
            digests = workloads.Repetition(configs, {}).digests
            refs[name][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} cells", file=sys.stderr)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
