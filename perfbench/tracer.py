"""In-memory span tracer that wraps aritygap's public functions from outside.

Each traced function is replaced by a wrapper at the module attribute where
it is defined and at every other aritygap module attribute bound to the same
object (``aritygap.core.essential_vars`` and ``aritygap.verifier.essential_vars``
alike), so calls between modules are seen too.  Spans are kept in memory as
(trace id, span id, parent id, name, start ns, end ns) and written out once,
at the end.  The clock is CLOCK_MONOTONIC, which is shared by every process
on the host, so spans written by CLI child processes line up with the
parent's.
"""

from __future__ import annotations

import csv
import functools
import importlib
import itertools
import sys
import time

# (module, function) pairs traced in every run; a span is named "module.function".
TARGETS = (
    ("core", "gap_report"),
    ("core", "essential_vars"),
    ("core", "ess"),
    ("anf", "to_anf"),
    ("classify", "classify"),
    ("classify", "gap_via_classifier"),
    ("generators", "random_function"),
    ("generators", "substream_seed"),
    ("verifier", "sweep"),
    ("cli", "main"),
    ("cli", "load_function"),
)

# Recorded by the CLI child itself: interpreter start plus `import aritygap.cli`.
IMPORT_SPAN = "cli.import_s"

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TARGETS) + (IMPORT_SPAN,)

CSV_HEADER = ("trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns")


class Tracer:
    """Collects nested spans of one thread; trace_id groups the spans of
    one request (one sweep, or one CLI call)."""

    def __init__(self, trace_id: int = 0) -> None:
        self.trace_id = trace_id
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a finished span under the current parent."""
        self.spans.append(
            (self.trace_id, next(self._ids), self._stack[-1], name, start_ns, end_ns)
        )

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.trace_id, span_id, parent, name, start, end))

        return traced

    def install(self) -> None:
        """Wrap every target at each aritygap module attribute bound to it."""
        modules = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None and (modname == "aritygap" or modname.startswith("aritygap."))
        ]
        for modname, fname in TARGETS:
            original = getattr(importlib.import_module(f"aritygap.{modname}"), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def write_spans(path, spans) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(CSV_HEADER)
        out.writerows(spans)


def read_spans(path) -> list[tuple[int, int, int, str, int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(int(t), int(s), int(p), name, int(a), int(b)) for t, s, p, name, a, b in rows]


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and total self time in seconds.

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.
    """
    child_ns: dict[tuple[int, int], int] = {}
    for trace_id, _, parent, _, start, end in spans:
        if parent:
            key = (trace_id, parent)
            child_ns[key] = child_ns.get(key, 0) + (end - start)
    stats = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for trace_id, span_id, _, name, start, end in spans:
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns.get((trace_id, span_id), 0)) / 1e9
    return stats
