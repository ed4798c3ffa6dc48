"""Set-up step of one benchmark run, in a process of its own.

    python3 bench/gen.py --workload NAME --seed N --out DIR

Imports eaqecc, generates the workload's seeded code files, writes them
and a `meta.json` into DIR, and prints one JSON line with the set-up time
(import plus generation plus writing), the sha256 of each file and the
slices that `speed.py` timed during and right after the set-up.
The time starts just before `import eaqecc`, so interpreter start-up is
not in it; a fresh process per set-up keeps in-process caches from
carrying over.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import speed
import workloads

SAMPLE_S = 0.5  # busy seconds after the set-up in which slices are timed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workloads.pin_threads()

    sampler = speed.SAMPLER
    start = time.perf_counter()
    eaqecc = workloads.import_eaqecc()
    # The slice needs numpy, which is part of the timed import, so the
    # host's slowdown is sampled from here on, and for SAMPLE_S after the
    # set-up; it drifts over minutes.
    with sampler.running():
        texts, meta = workloads.generate(eaqecc, args.workload, args.seed)
        args.out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (args.out / f"{name}.txt").write_text(text)
        (args.out / "meta.json").write_text(json.dumps(meta, sort_keys=True))
        setup_s = time.perf_counter() - start - sampler.spent
    sampler.sample_busy(SAMPLE_S)

    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in texts.items()}
    print(json.dumps({"setup_s": setup_s, "files": digests, "slices": sampler.times}))


if __name__ == "__main__":
    main()
