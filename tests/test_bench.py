"""The traced benchmark run hooks the package by dotted paths; each must
resolve, or `bench/run.py --trace 1` breaks."""

import importlib.util
from pathlib import Path

import eaqecc
import eaqecc.cli  # not imported by the package itself

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = _load_spans()
    paths = [path for _, path in spans.ENTRY_POINTS + spans.COUNTERS]
    for path in paths:
        owner, attr = spans._resolve(path)
        assert callable(getattr(owner, attr, None)), path


def test_tracer_restores_the_package():
    spans = _load_spans()
    before = {path: getattr(*spans._resolve(path))
              for _, path in spans.ENTRY_POINTS + spans.COUNTERS}
    with spans.Tracer().installed():
        assert eaqecc.GfMatrix.rref is not before["matrix.GfMatrix.rref"]
    for path, original in before.items():
        assert getattr(*spans._resolve(path)) is original, path
