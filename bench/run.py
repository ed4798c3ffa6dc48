"""Benchmark of the eaqecc command line, one seeded workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the workload's code
files from the seed in fresh processes (`gen.py`), several times; then one
closed-loop client runs the workload's command list through
`eaqecc.cli.main([...])` in this process: one untimed pass, then timed
passes for about S seconds.  Every command's exit code and stdout are
checked.  Times are divided by the host's slowdown, sampled while they
run (`speed.py`).  With `--trace 1`, untraced and traced passes alternate and
the traced ones give per-layer metrics.  The last line of stdout is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

README.md next to this file says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

workloads.pin_threads()  # before numpy is imported, here or in gen.py

from spans import LAYERS, Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, out: Path) -> tuple[list[dict], bool]:
    """Generate the inputs SETUP_REPS times; (gen.py's records, whether all
    wrote identical files)."""
    records = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=150, cwd=workloads.ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed:\n{proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    return records, all(r["files"] == records[0]["files"] for r in records)


def run_command(main, argv: list[str]) -> tuple[float, int | None, str, str]:
    """Run one CLI command in-process: (latency, exit code, stdout, stderr).

    The exit code is None when the command raised instead of returning.
    The time the slice sampler spent inside the command is not in its
    latency.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent = speed.SAMPLER.spent
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command, not a crash
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        latency = time.perf_counter() - start - (speed.SAMPLER.spent - spent)
    return latency, rc, out.getvalue(), err.getvalue()


def run_pass(main, steps, files, expected, tracer, first_request):
    """One pass over the command list; a list of per-command records."""
    outputs, records = {}, []
    for index, step in enumerate(steps):
        argv = step.argv(files, outputs)
        first_slice = len(speed.SAMPLER.times)
        request = (tracer.request(first_request + index) if tracer
                   else contextlib.nullcontext())
        with request:
            latency, rc, out, err = run_command(main, argv)
        outputs[step.name] = out
        digest = hashlib.sha256(out.encode()).hexdigest()
        problems = step.check(rc, out)
        if expected is not None and [rc, digest] != expected[index]:
            problems.append(f"exit code {rc} and stdout sha256 {digest} differ "
                            f"from the recorded {expected[index]}")
        for problem in problems:
            print(f"bench: {step.name}: {problem}", file=sys.stderr)
        if problems and err:
            print(f"bench: {step.name} stderr: {err.strip()}", file=sys.stderr)
        records.append({"step": step.name, "latency": latency, "rc": rc,
                        "digest": digest, "ok": not problems,
                        "slices": speed.SAMPLER.times[first_slice:]})
    return records


def load_expected(workload: str, seed: int):
    """Recorded [exit code, stdout sha256] per step, or None for a seed
    outside the recorded ones."""
    recorded = json.loads((BENCH / "expected.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


MIN_SLICES = 4  # fewer slices during a command: use its pass's slowdown


def pass_slowdown(records) -> float:
    return speed.slowdown([t for r in records for t in r["slices"]])


def normalized(records) -> list[float]:
    """Each command's latency divided by the slowdown while it ran, or by
    its pass's slowdown when it ran too briefly to be sampled."""
    whole = pass_slowdown(records)
    return [r["latency"] / (speed.slowdown(r["slices"])
                            if len(r["slices"]) >= MIN_SLICES else whole)
            for r in records]


def pass_times(passes) -> list[float]:
    return [sum(normalized(p)) for p in passes]


def end_to_end(passes, setups, ok_ratio: float) -> dict[str, float]:
    by_step: dict[str, list[float]] = {}
    for p in passes:
        for r, latency in zip(p, normalized(p)):
            by_step.setdefault(r["step"], []).append(latency)
    step_times = [statistics.median(v) for v in by_step.values()]
    return {
        "run_s": statistics.median(pass_times(passes)),
        "op_p50_s": statistics.median(step_times),
        "op_max_s": max(step_times),
        "setup_s": statistics.median(
            s["setup_s"] / speed.slowdown(s["slices"]) for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": ok_ratio,
    }


UNITS = {"run_s": "s", "op_p50_s": "s", "op_max_s": "s", "setup_s": "s",
         "peak_rss_mb": "MiB", "ok_ratio": "ok/attempted"}


def layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "host.slowdown":
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def environment(args, eaqecc) -> dict:
    import numpy
    src = workloads.SRC / "eaqecc"
    tree = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        tree.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha, "src_sha256": tree.hexdigest(),
        "eaqecc": eaqecc.__version__, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in workloads.THREAD_VARS},
    }


def run_passes(cli_main, steps, files, expected, args):
    """The untimed first pass, then timed passes for about args.seconds;
    with --trace 1 untraced and traced passes alternate.

    Returns (warm-up pass, untraced passes, traced passes, spans of each
    traced pass).
    """
    # One checked but untimed pass first, so allocator growth and any
    # lazy state of a fresh process fall outside the timed passes.
    warmup = run_pass(cli_main, steps, files, expected, None, 0)
    tracer = Tracer() if args.trace else None
    plain, traced, traced_spans = [], [], []
    start = time.perf_counter()
    pass_walls = []
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        t0 = time.perf_counter()
        if use_tracer:
            first_span = len(tracer.spans)
            with tracer.installed():
                traced.append(run_pass(cli_main, steps, files, expected, tracer,
                                       (len(plain) + len(traced)) * len(steps)))
            traced_spans.append(tracer.spans[first_span:])
        else:
            plain.append(run_pass(cli_main, steps, files, expected, None, 0))
        pass_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = plain and (tracer is None or traced)
        if enough and elapsed + statistics.median(pass_walls) > args.seconds:
            break
    if tracer is not None:
        tracer.write(workloads.WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    return warmup, plain, traced, traced_spans


def main(argv=None) -> int:
    args = parse_args(argv)
    eaqecc = workloads.import_eaqecc()
    cli_main = eaqecc.cli.main
    workdir = workloads.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, deterministic = set_up(args.workload, args.seed, workdir)
        if not deterministic:
            print("bench: set-up gave different files for one seed", file=sys.stderr)
        meta = json.loads((workdir / "meta.json").read_text())
        files = {name: str(workdir / f"{name}.txt") for name in meta}
        steps = workloads.steps(args.workload, meta)
        expected = load_expected(args.workload, args.seed)

        with speed.SAMPLER.running():
            warmup, plain, traced, traced_spans = run_passes(
                cli_main, steps, files, expected, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in [warmup] + plain + traced for r in p]
    failed = sum(not r["ok"] for r in records)
    e2e = end_to_end(plain, setups, 1 - failed / len(records))
    print("env " + json.dumps(environment(args, eaqecc), sort_keys=True))
    print(f"passes: 1 warm-up, {len(plain)} untraced, {len(traced)} traced; "
          f"commands: {len(records)} attempted, {failed} failed "
          f"(fail_ratio {failed / len(records):.4f}); setup samples: {len(setups)}")
    slowdowns = [pass_slowdown(p) for p in plain]
    print("pass slowdown: " + " ".join(f"{x:.3f}" for x in slowdowns))
    print("pass wall s: " + " ".join(f"{sum(r['latency'] for r in p):.4f}" for p in plain))
    print("pass run_s:  " + " ".join(f"{x:.4f}" for x in pass_times(plain)))
    print("setup wall s: " + " ".join(f"{s['setup_s']:.4f}" for s in setups))
    print("setup slowdown: " + " ".join(f"{speed.slowdown(s['slices']):.3f}"
                                        for s in setups))
    for step in steps:
        values = sorted(r["latency"] for p in plain for r in p if r["step"] == step.name)
        print(f"  {step.name:<18} n={len(values):<3} wall median "
              f"{statistics.median(values):.4f} s  max {values[-1]:.4f} s")

    if not args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}
    else:
        per_pass = [layer_metrics(spans) for spans in traced_spans]
        layer = {key: statistics.median(m[key] for m in per_pass)
                 for key in per_pass[0]}
        layer["trace.run_s"] = statistics.median(pass_times(traced))
        layer["trace.overhead_s"] = layer["trace.run_s"] - e2e["run_s"]
        layer["wall.run_s"] = statistics.median(
            sum(r["latency"] for r in p) for p in plain)
        layer["host.slowdown"] = statistics.median(slowdowns)
        traced_runs = [sum(r["latency"] for r in p) for p in traced]

        def share(name):
            return statistics.median(m[f"{name}.self_s"] / run
                                     for m, run in zip(per_pass, traced_runs))
        shares = ", ".join(f"{name} {100 * share(name):.1f}%" for name in LAYERS)
        print(f"share of traced wall time by layer self time: {shares}")
        metrics = {name: {"value": value, "unit": layer_units(name)}
                   for name, value in layer.items()}

    print(json.dumps({"correct": failed == 0 and deterministic,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
