"""Record the exit code and stdout sha256 of every command, per seed.

    python3 bench/record.py [--workload NAME ...]

Runs one pass of each workload for every seed in workloads.DEFAULT_SEEDS
and writes the results into expected.json next to this file, which
run.py then checks every command against.  A pass whose outputs fail any
invariant check is not recorded: the script stops instead.  Re-record
only when a change is meant to alter the CLI's stdout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads
from run import BENCH, run_pass

EXPECTED = BENCH / "expected.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="workload to record (default: all)")
    args = parser.parse_args()
    eaqecc = workloads.import_eaqecc()
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    workdir = workloads.WORK / "record"
    try:
        for workload in args.workload or workloads.WORKLOADS:
            by_seed = {}
            for seed in workloads.DEFAULT_SEEDS:
                texts, meta = workloads.generate(eaqecc, workload, seed)
                workdir.mkdir(parents=True, exist_ok=True)
                files = {}
                for name, text in texts.items():
                    files[name] = str(workdir / f"{name}.txt")
                    Path(files[name]).write_text(text)
                records = run_pass(eaqecc.cli.main, workloads.steps(workload, meta),
                                   files, None, None, 0)
                if not all(r["ok"] for r in records):
                    raise SystemExit(f"{workload} seed {seed}: a check failed")
                by_seed[str(seed)] = [[r["rc"], r["digest"]] for r in records]
                print(workload, seed, flush=True)
            recorded[workload] = by_seed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
