"""Span recorder for the traced run.

`Tracer.installed()` wraps the public entry points of each eaqecc layer
with span recorders and restores the originals on exit, so untraced
passes run the program unchanged.  Nothing is added inside `src/`.

A span is (id, parent id, request id, name, start, end, counts), kept in
memory and written out once by `Tracer.write`.  A span's self time is its
duration minus the durations of its direct children; per-layer metrics
are sums of self times and counts over the spans of one pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (span name, dotted path of the entry point).  Names are layer.operation,
# and the layer is a module of eaqecc.
ENTRY_POINTS = (
    ("field.build", "field.GF.__init__"),
    ("matrix.rref", "matrix.GfMatrix.rref"),
    ("matrix.matmul", "matrix.GfMatrix.__matmul__"),
    ("matrix.nullspace", "matrix.GfMatrix.nullspace"),
    ("matrix.contains", "matrix.GfMatrix.row_space_contains"),
    ("matrix.intersect", "matrix.row_space_intersect"),
    ("symplectic.min_weight", "symplectic.LinearCode.min_symplectic_weight"),
    ("symplectic.min_weight", "symplectic.LinearCode.min_hamming_weight"),
    ("symplectic.dual", "symplectic.LinearCode.dual"),
    ("symplectic.structural", "symplectic.LinearCode.structural_params"),
    ("transform.puncture", "transform.puncture"),
    ("transform.shorten", "transform.shorten"),
    ("transform.construct", "transform.construct_eaqecc"),
    ("transform.search", "transform.search_positions"),
    ("transform.verify_lemmas", "transform.verify_lemmas"),
    ("cli.parse", "cli.parse_code_file"),
    ("cli.emit", "cli.serialize_code"),
    ("cli.emit", "cli.emit_report"),
)

# (counter, dotted path): hooks that record no span of their own but add
# to a counter of the innermost open span.  LinearCode._codeword_chunks is
# where an exhaustive enumeration starts, after the enumeration cap and any
# memoized answer, so it sees only enumerations that really run.
COUNTERS = (
    ("words_planned", "symplectic.LinearCode._codeword_chunks"),
)

LAYERS = ("field", "matrix", "symplectic", "transform", "cli")


def _planned_words(code) -> int:
    return code.field.q ** code.dim


def _counts(name: str, args: tuple, result) -> dict:
    """Work counters of one call, taken at the layer boundary."""
    if name == "matrix.contains":
        vectors = args[1]
        return {"vectors": 1 if getattr(vectors, "ndim", 2) == 1 else len(vectors)}
    if name == "cli.parse":
        return {"bytes": len(args[0].encode())}
    if name == "transform.search":
        return {"sets": len(result)}
    return {}


def _resolve(path: str):
    """(owner, attribute) of a dotted path below the eaqecc package."""
    parts = path.split(".")
    owner = sys.modules["eaqecc." + parts[0]]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans of the calls made while `installed()` is active."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, dict]] = []  # open spans: (id, counts)
        self._request = -1

    @contextmanager
    def _span(self, name: str, counts: dict):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # reserve the slot: ids follow call order
        self._stack.append((span_id, counts))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self._request, name,
                                   start, end, counts)

    def _wrap(self, name: str, fn):
        tracer = self
        CapExceededError = sys.modules["eaqecc.errors"].CapExceededError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {}
            with tracer._span(name, counts):
                try:
                    result = fn(*args, **kwargs)
                except CapExceededError:
                    counts["refused"] = 1
                    raise
                counts.update(_counts(name, args, result))
                return result

        return traced

    def _count(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(code, *args, **kwargs):
            if tracer._stack:
                counts = tracer._stack[-1][1]
                counts[counter] = counts.get(counter, 0) + _planned_words(code)
            return fn(code, *args, **kwargs)

        return counted

    @contextmanager
    def request(self, request_id: int):
        """Groups the spans of one CLI command under a request id; the
        command itself is a `cli.main` span."""
        self._request = request_id
        with self._span("cli.main", {}):
            yield

    @contextmanager
    def installed(self):
        """Wrap every entry point in all eaqecc modules that bind it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "eaqecc" or key.startswith("eaqecc."))]
        patches = []  # (owner, attribute, original)
        hooks = [(path, functools.partial(self._wrap, name))
                 for name, path in ENTRY_POINTS]
        hooks += [(path, functools.partial(self._count, counter))
                  for counter, path in COUNTERS]
        for path, wrap in hooks:
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            wrapped = wrap(original)
            # A function is rebound in every module that imported it by name.
            targets = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for target in targets:
                patches.append((target, attr, original))
                setattr(target, attr, wrapped)
        try:
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    def write(self, path: Path) -> None:
        """Write all spans as JSON lines, once, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "name", "start", "end", "counts")
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of the given spans (one pass's worth)."""
    child_time: dict[int, float] = {}
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    planned_s = 0.0
    for span_id, _, _, name, start, end, span_counts in spans:
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(span_id, 0.0)
        for key, value in span_counts.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if "words_planned" in span_counts:
            planned_s += duration

    def get(table, name):
        return table.get(name, 0)

    metrics = {
        "field.build.calls": get(calls, "field.build"),
        "field.build.s": get(total_s, "field.build"),
    }
    for op in ("rref", "matmul", "intersect", "contains"):
        metrics[f"matrix.{op}.calls"] = get(calls, f"matrix.{op}")
    for op in ("rref", "matmul", "nullspace", "intersect", "contains"):
        metrics[f"matrix.{op}.self_s"] = get(self_s, f"matrix.{op}")
    metrics["matrix.contains.vectors"] = get(counts, "matrix.contains.vectors")
    words = get(counts, "symplectic.min_weight.words_planned")
    metrics.update({
        "symplectic.min_weight.calls": get(calls, "symplectic.min_weight"),
        "symplectic.min_weight.self_s": get(self_s, "symplectic.min_weight"),
        "symplectic.min_weight.words_planned": words,
        "symplectic.min_weight.words_per_s": words / planned_s if planned_s else 0.0,
        "symplectic.min_weight.refused": get(counts, "symplectic.min_weight.refused"),
        "symplectic.dual.self_s": get(self_s, "symplectic.dual"),
        "symplectic.structural.self_s": get(self_s, "symplectic.structural"),
    })
    for op in ("puncture", "shorten", "construct", "verify_lemmas", "search"):
        metrics[f"transform.{op}.self_s"] = get(self_s, f"transform.{op}")
    metrics["transform.construct.calls"] = get(calls, "transform.construct")
    metrics["transform.verify_lemmas.calls"] = get(calls, "transform.verify_lemmas")
    metrics["transform.search.sets"] = get(counts, "transform.search.sets")
    metrics["cli.parse.bytes"] = get(counts, "cli.parse.bytes")
    for op in ("parse", "emit", "main"):
        metrics[f"cli.{op}.self_s"] = get(self_s, f"cli.{op}")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in self_s.items() if name.startswith(layer + "."))
    return metrics
