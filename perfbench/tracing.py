"""In-memory spans around the public functions of each hhck layer.

The tracer rebinds the names that hhck's modules import from each other
(``hhck.cli.difference_map``, ``hhck.affine.build_curve``, the entries of
``hhck.cli.BACKENDS`` ...) to timing wrappers, so calls made inside the
program are seen without editing it.  Spans are kept in memory and
written as JSON lines when the run ends.

A span is (id, parent, name, start, end, nested, amount).  ``nested`` is
true when a span of the same name is already open in the thread (the
recursion of ``build_curve`` and ``_expand_str``); ``amount`` is cells
validated or characters written.  Spans opened in a thread with nothing
open attach to the tracer's root, so the ``--nu all`` pool's work nests
under its command.

Run as a script, it is the traced form of ``python -m hhck.cli``:

    python perfbench/tracing.py RUN_ID PARENT_ID SPANS_FILE -- generate --order 3
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (module, function, span name); a metric ``<span name>_s`` sums the
#: spans that are not nested in one of the same name.  ``_expand_str`` is
#: the string-only expansion that ``tags.expand(nu, n, str)`` and
#: ``tags.generate`` both run.
TRACED = (
    ("hhck.kernels", "resolve_kernel", "kernels.resolve"),
    ("hhck.affine", "build_curve", "affine.build"),
    ("hhck.affine", "grow_once", "affine.grow_once"),
    ("hhck.tags", "generate", "tags.generate"),
    ("hhck.tags", "_expand_str", "tags.expand"),
    ("hhck.locality", "difference_map", "locality.difference_map"),
    ("hhck.locality", "diff_stats", "locality.diff_stats"),
    ("hhck.locality", "barrier_mask", "locality.barrier_mask"),
    ("hhck.locality", "boundary_profile", "locality.boundary"),
    ("hhck.locality", "boundary_run_fraction", "locality.boundary"),
    ("hhck.locality", "dilation_factor", "locality.dilation"),
    ("hhck.io", "write_curve_csv", "io.curve_csv"),
    ("hhck.io", "write_diffmap_csv", "io.diffmap_csv"),
    ("hhck.io", "write_diffmap_pgm", "io.pgm"),
    ("hhck.io", "write_barrier_ppm", "io.ppm"),
    ("hhck.io", "stats_record", "io.record"),
)
WRITERS = {"io.curve_csv", "io.diffmap_csv", "io.pgm", "io.ppm"}
# every module whose globals may hold a traced function
MODULES = ("hhck", "hhck.core", "hhck.kernels", "hhck.affine", "hhck.tags",
           "hhck.locality", "hhck.io", "hhck.cli")
# CurvePath is rebound only where it is called as a constructor: core
# itself uses the class in isinstance checks and __eq__
CURVEPATH_CALLERS = ("hhck.affine", "hhck.tags", "hhck.io")

LAYERS = ("kernels", "core", "affine", "tags", "locality", "io", "cli", "bench")
CLI_COMMANDS = ("generate", "analyze", "dilation", "diffmap", "validate-kernel",
                "reproduce-tables")
SPAN_METRICS = tuple(sorted({f"{name}_s" for _, _, name in TRACED} | {"core.curvepath_s"})) \
    + tuple(f"cli.{c}_s" for c in CLI_COMMANDS)
COUNT_METRICS = ("kernels.resolve_calls", "core.cells_validated", "io.bytes_written",
                 "affine.cache_hits", "affine.cache_misses", "affine.cache_hit_ratio")


class _CountingFile:
    """Forwards write() and counts the characters (all output is ASCII)."""

    __slots__ = ("fh", "count")

    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def write(self, s: str) -> int:
        self.count += len(s)
        return self.fh.write(s)


class Tracer:
    def __init__(self, run_id: str, root: str | None = None):
        self.run_id = run_id
        self.root = root
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._prefix = f"p{os.getpid()}-"
        self._local = threading.local()
        self._build_curve = None  # the original lru-cached function, set by install()

    def call(self, name: str, fn, args: tuple, kwargs: dict | None = None, amount=None):
        """fn(*args, **kwargs) inside a span; amount(result) fills its amount."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = self._prefix + str(next(self._ids))
        parent = stack[-1][0] if stack else self.root
        nested = any(s[1] == name for s in stack)
        stack.append((sid, name))
        t0 = perf_counter()
        ok = False
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
        finally:
            t1 = perf_counter()
            stack.pop()
            n = amount(result) if ok and amount else 0
            # list.append is atomic, so pool threads need no lock here
            self.spans.append((sid, parent, name, t0, t1, nested, n))
        return result

    def current(self) -> str | None:
        """Id of the innermost span open in this thread."""
        stack = getattr(self._local, "stack", None)
        return stack[-1][0] if stack else self.root

    def wrap(self, name: str, fn):
        if name in WRITERS:
            def traced(fh, *args, **kwargs):
                counting = _CountingFile(fh)
                return self.call(name, fn, (counting, *args), kwargs,
                                 lambda _: counting.count)
        elif name == "io.record":
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs, len)
        else:
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def install(self) -> "Tracer":
        """Rebind every traced name in hhck's modules to its wrapper."""
        mods = [importlib.import_module(m) for m in MODULES]
        cli = importlib.import_module("hhck.cli")
        for mod_name, attr, name in TRACED:
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self.wrap(name, original)
            for table in [vars(m) for m in mods] + [cli.BACKENDS]:
                for key, value in list(table.items()):
                    if value is original:
                        table[key] = traced
            if attr == "build_curve":
                self._build_curve = original
        curve_path = importlib.import_module("hhck.core").CurvePath

        def traced_curve_path(side, cells):
            return self.call("core.curvepath", curve_path, (side, cells), None, len)

        for mod_name in CURVEPATH_CALLERS:
            importlib.import_module(mod_name).CurvePath = traced_curve_path
        return self

    def cache_counts(self) -> tuple[int, int]:
        """Hits and misses of affine.build_curve's cache in this process."""
        info = self._build_curve.cache_info()
        return (info.hits, info.misses)

    def records(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "nested", "amount")
        return [dict(zip(keys, s), run=self.run_id) for s in self.spans]

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, then one line with the cache counts."""
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
            hits, misses = self.cache_counts()
            fh.write(json.dumps({"run": self.run_id, "cache_hits": hits,
                                 "cache_misses": misses}) + "\n")


def read_dump(path: str) -> tuple[list[dict], tuple[int, int]]:
    spans, cache = [], (0, 0)
    with open(path, encoding="ascii") as fh:
        for line in fh:
            rec = json.loads(line)
            if "cache_hits" in rec:
                cache = (rec["cache_hits"], rec["cache_misses"])
            else:
                spans.append(rec)
    return spans, cache


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans: list[dict], cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``<layer>.self_s`` is each span's duration minus the union of its
    children's intervals, summed over the layer's spans (the layer is
    the part of the name before the dot).  Spans running concurrently in
    the thread pool each count, so a sum can exceed the wall time.
    ``affine.grow_once_s`` counts only the top round of each top-level
    build.
    """
    children = defaultdict(list)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({m: 0.0 for m in SPAN_METRICS})
    out.update({m: 0 for m in COUNT_METRICS})
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        out[name.split(".", 1)[0] + ".self_s"] += \
            dur - _covered(children[s["id"]], s["start"], s["end"])
        if s["nested"]:
            continue
        if name == "affine.grow_once":
            parent = by_id.get(s["parent"])
            if parent is None or parent["name"] != "affine.build" or parent["nested"]:
                continue
        if f"{name}_s" in out:
            out[f"{name}_s"] += dur
        if name == "kernels.resolve":
            out["kernels.resolve_calls"] += 1
        elif name == "core.curvepath":
            out["core.cells_validated"] += s["amount"]
        elif name.startswith("io."):
            out["io.bytes_written"] += s["amount"]
    hits, misses = cache
    out["affine.cache_hits"] = hits
    out["affine.cache_misses"] = misses
    out["affine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _cli_main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        raise SystemExit("usage: tracing.py RUN_ID PARENT_ID SPANS_FILE -- COMMAND ARGS...")
    run_id, parent, spans_file, args = argv[0], argv[1], argv[2], argv[4:]
    import hhck.cli

    tracer = Tracer(run_id, root=f"p{os.getpid()}-cli").install()
    t0 = perf_counter()
    try:
        return hhck.cli.main(args)
    finally:
        tracer.spans.append((tracer.root, parent, f"cli.{args[0]}", t0, perf_counter(), False, 0))
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
