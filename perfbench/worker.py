"""One workload iteration, in a fresh process started by run.py.

    python perfbench/worker.py --workload grow --seed 1 --size full \
        --mode run --out RESULT.json [--trace SPANS.jsonl] [--corrupt]

Set-up (imports, bundled-kernel load, and for ``dilation`` the curves)
ends at ``t_ready``; the timed interval runs every operation of the
workload in the order the seed draws and checks each output.  The result
file carries t_ready, wall and CPU seconds of the interval and of each
operation, operation counts and, when traced, the per-layer metrics.  ``--mode setup`` stops after set-up;
``--mode record`` runs every input any seed can draw and returns the
observed outputs, for writing the expected table.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

N_VARIANTS = 12
FOUR_BY_FOUR = ("mouse", "frog")
CONVENTIONS = ("divisor8", "neighbors")
SEAMS = ("1-2", "3-4", "2-3", "4-1")

# curve orders: (unit kernel, 4x4 kernel); both give the same side.  An
# iteration takes a few seconds, so a run holds enough of them for its
# per-operation medians to shrug off a burst of load from other guests.
SIZES = {
    "full": {
        "grow": (8, 7),       # side 256, 65536 cells
        "analyze": (7, 6),    # side 128, 16384 cells
        "dilation": (6, 5),   # side 64, 4096 cells
        "cli": {"generate-all": 7, "generate-both": 7, "analyze": 8, "diffmap": 7,
                "dilation": 6},
    },
    "small": {
        "grow": (4, 3),
        "analyze": (4, 3),
        "dilation": (4, 3),
        "cli": {"generate-all": 3, "generate-both": 3, "analyze": 4, "diffmap": 3,
                "dilation": 3},
    },
}

# enters at (0, 0) but exits at (0, 1): validate-kernel must exit 2
BAD_KERNEL = "side 2\norigin 0 0\nstrokes rul\n"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _children_cpu(since) -> float:
    """User+sys CPU of the children waited for since the rusage ``since``."""
    now = resource.getrusage(resource.RUSAGE_CHILDREN)
    return now.ru_utime - since.ru_utime + now.ru_stime - since.ru_stime


class Checker:
    """Counts operations and compares outputs with the expected table."""

    def __init__(self, expected: dict, record: bool, corrupt: bool):
        self.expected = expected
        self.recorded: dict | None = {} if record else None
        self.corrupt = corrupt
        self.attempted = 0
        self.failed: list[str] = []
        # label -> [wall s, CPU s (CLI children included)]
        self.times: dict[str, list[float]] = {}

    def same(self, key: str, value) -> bool:
        if self.recorded is not None:
            self.recorded[key] = value
            return True
        want = self.expected.get(key)
        if self.corrupt:
            # the self-test's deliberately wrong entry: the first one read
            self.corrupt = False
            want = "0" * 64
        return want is not None and want == value

    def run(self, label: str, op) -> None:
        """One operation: op() returns whether all of its checks held."""
        self.attempted += 1
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0, t0 = process_time(), perf_counter()
        try:
            ok = op()
        except Exception:  # a crashing operation is a failed one; keep going
            traceback.print_exc()
            ok = False
        t1 = perf_counter()
        self.times[label] = [t1 - t0, process_time() - cpu0 + _children_cpu(children0)]
        if not ok:
            self.failed.append(label)


class Workload:
    """Set-up and the timed operations of one named workload."""

    def __init__(self, name: str, seed: int, size: str, every_draw: bool, tracer=None):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.every_draw = every_draw
        self.size = SIZES[size][name]
        self.tracer = tracer
        self.run_id = f"{name}-{seed}-{os.getpid()}"

    def draw(self, choices):
        """The seed's pick, or every choice when recording."""
        return list(choices) if self.every_draw else [self.rng.choice(list(choices))]

    def setup(self) -> None:
        from hhck import affine, kernels

        self.kernels = {k: kernels.resolve_kernel(k) for k in ("unit",) + FOUR_BY_FOUR}
        if self.name == "dilation":
            self.curves = {(k, n, nu): affine.build_curve(nu, n, self.kernels[k])
                           for k, n in self._kernel_orders() for nu in range(N_VARIANTS)}

    def _kernel_orders(self) -> list[tuple[str, int]]:
        unit_n, four_n = self.size
        return [("unit", unit_n)] + [(k, four_n) for k in FOUR_BY_FOUR]

    def operations(self) -> list[tuple[str, object]]:
        ops = getattr(self, f"_ops_{self.name}")()
        self.rng.shuffle(ops)
        return ops

    # -- grow: both engines, compared cell for cell -------------------------

    def _ops_grow(self):
        return [(f"grow:{k}:n{n}:nu{nu}", self._grow_one(k, n, nu))
                for k, n in self._kernel_orders() for nu in range(N_VARIANTS)]

    def _grow_one(self, k, n, nu):
        def op():
            import numpy as np
            from hhck import affine, tags

            kernel = self.kernels[k]
            a = affine.build_curve(nu, n, kernel)
            b = tags.generate(nu, n, kernel)
            side = kernel.side * 2 ** (n - 1)
            return a.side == b.side == side and bool(np.array_equal(a.cells, b.cells))
        return op

    # -- analyze: the paper's statistics, barriers, profiles and images -----

    def _ops_analyze(self):
        return [(f"analyze:{k}:n{n}:nu{nu}", self._analyze_one(k, n, nu))
                for k, n in self._kernel_orders() for nu in range(N_VARIANTS)]

    def _analyze_one(self, k, n, nu):
        def op():
            from hhck import affine, locality
            from hhck import io as hio

            key = f"analyze:{k}:n{n}:nu{nu}"
            p = affine.build_curve(nu, n, self.kernels[k])
            ok = True
            maps = {conv: locality.difference_map(p, convention=conv, order=n)
                    for conv in CONVENTIONS}
            for conv, m in maps.items():
                rec = hio.stats_record(locality.diff_stats(m), conv, n,
                                       extra={"nu": nu, "kernel": k})
                ok &= self.check.same(f"{key}:{conv}:record", sha(rec))
            # barriers, boundaries and images of the default convention's
            # map, as the paper's figures and the diffmap command use it
            m = maps[locality.DEFAULT_CONVENTION]
            mask = locality.barrier_mask(m)
            profile = locality.boundary_profile(m)
            runs = [locality.boundary_run_fraction(mask, s) for s in SEAMS]
            shape = " ".join(f"{f.numerator}/{f.denominator}" for f in profile + runs)
            ok &= self.check.same(f"{key}:boundary", sha(shape))
            for artifact, write in (("csv", lambda fh: hio.write_diffmap_csv(fh, m)),
                                    ("pgm", lambda fh: hio.write_diffmap_pgm(fh, m)),
                                    ("ppm", lambda fh: hio.write_barrier_ppm(fh, m, mask))):
                buf = io.StringIO()
                write(buf)
                ok &= self.check.same(f"{key}:{artifact}", sha(buf.getvalue()))
            return ok
        return op

    # -- dilation: exact worst-case ratio on curves built in set-up ---------

    def _ops_dilation(self):
        return [(f"dilation:{k}:n{n}:nu{nu}", self._dilation_one(k, n, nu))
                for k, n in self._kernel_orders() for nu in range(N_VARIANTS)]

    def _dilation_one(self, k, n, nu):
        def op():
            from hhck import locality

            sigma = locality.dilation_factor(self.curves[(k, n, nu)])
            return self.check.same(f"dilation:{k}:n{n}:nu{nu}",
                                   f"{sigma.numerator}/{sigma.denominator}")
        return op

    # -- cli: user commands, one process each ----------------------------

    def _ops_cli(self):
        s = self.size
        work = self.work
        gen_dir, pgm = work / "gen", work / "map.pgm"
        bad = work / "bad.kernel"
        ops = [
            (f"cli:generate-all:n{s['generate-all']}",
             ["generate", "--nu", "all", "--order", str(s["generate-all"]), "-o", str(gen_dir)],
             0, gen_dir),
            (f"cli:diffmap-pgm:n{s['diffmap']}",
             ["diffmap", "--order", str(s["diffmap"]), "--format", "pgm", "-o", str(pgm)],
             0, [pgm, pgm.with_suffix(".barrier.ppm")]),
            (f"cli:dilation:n{s['dilation']}", ["dilation", "--order", str(s["dilation"])],
             0, None),
            ("cli:reproduce-tables:mouse", ["reproduce-tables", "--kernel", "mouse"], 0, None),
            ("cli:validate-kernel:frog", ["validate-kernel", "frog"], 0, None),
            ("cli:invalid-kernel", ["validate-kernel", str(bad)], 2, None),
        ]
        for nu in self.draw(range(N_VARIANTS)):
            order = s["generate-both"]
            ops.append((f"cli:generate-both:n{order}:nu{nu}",
                        ["generate", "--backend", "both", "--nu", str(nu), "--order", str(order)],
                        0, None))
        for nu in self.draw(range(N_VARIANTS)):
            order = s["analyze"]
            ops.append((f"cli:analyze:n{order}:nu{nu}",
                        ["analyze", "--nu", str(nu), "--order", str(order)], 0, None))
        return [(key, self._cli_one(key, argv, code, outputs))
                for key, argv, code, outputs in ops]

    def _cli_one(self, key, argv, want_code, outputs):
        def op():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "hhck.cli", *argv]
                spans_file = None
            else:
                spans_file = self.work / f"spans-{len(self.child_dumps)}.jsonl"
                cmd = [sys.executable, str(HERE / "tracing.py"), self.run_id,
                       str(self.tracer.current()), str(spans_file), "--", *argv]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=170)
            if spans_file is not None:
                self.child_dumps.append(spans_file)
            if proc.returncode != want_code:
                sys.stderr.write(proc.stderr.decode("ascii", "replace"))
                return False
            if want_code != 0:
                return proc.stdout == b""
            ok = True
            if proc.stdout:
                ok &= self.check.same(f"{key}:stdout", hashlib.sha256(proc.stdout).hexdigest())
            paths = outputs or []
            if isinstance(outputs, Path):  # a directory: every file in it
                paths = sorted(outputs.iterdir())
            for path in paths:
                ok &= self.check.same(f"{key}:{path.name}",
                                      hashlib.sha256(path.read_bytes()).hexdigest())
            return ok
        return op

    # -- the timed interval ----------------------------------------------

    def run(self, check: Checker) -> dict:
        self.check = check
        self.child_dumps: list[Path] = []
        self.work = OUT / f"work-{os.getpid()}"
        if self.name == "cli":
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            (self.work / "bad.kernel").write_text(BAD_KERNEL, encoding="ascii")
        ops = self.operations()
        children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu0, t0 = process_time(), perf_counter()
        try:
            for label, op in ops:
                if self.tracer is None:
                    check.run(label, op)
                else:
                    check.run(label, lambda: self.tracer.call("bench.op", op, ()))
            t1 = perf_counter()
            cpu = process_time() - cpu0 + _children_cpu(children0)
            spans, cache = self._collect_spans()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return {"wall_s": t1 - t0, "cpu_s": cpu, "ops": check.times, "spans": spans,
                "cache": cache}

    def _collect_spans(self):
        if self.tracer is None:
            return None, None
        from tracing import read_dump

        spans = self.tracer.records()
        hits, misses = self.tracer.cache_counts()
        for path in self.child_dumps:
            child_spans, (h, m) = read_dump(str(path))
            spans += child_spans
            hits, misses = hits + h, misses + m
        return spans, (hits, misses)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(SIZES["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=tuple(SIZES))
    ap.add_argument("--mode", default="run", choices=("setup", "run", "record"))
    ap.add_argument("--out", required=True, help="result JSON file")
    ap.add_argument("--trace", default=None, help="write spans here and report layers")
    ap.add_argument("--corrupt", action="store_true",
                    help="replace one expected digest by a wrong one")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}").install()
    wl = Workload(args.workload, args.seed, args.size, args.mode == "record", tracer)
    if tracer is not None:
        tracer.call("bench.setup", wl.setup, ())
    else:
        wl.setup()
    t_ready = perf_counter()
    import numpy

    result = {"t_ready": t_ready, "numpy": numpy.__version__}
    if args.mode != "setup":
        expected = {}
        if args.mode == "run":
            expected = json.loads(EXPECTED.read_text(encoding="ascii"))
        check = Checker(expected, args.mode == "record", args.corrupt)
        timed = wl.run(check)
        result.update(wall_s=timed["wall_s"], cpu_s=timed["cpu_s"], ops=timed["ops"],
                      attempted=check.attempted, failed=check.failed)
        if check.recorded is not None:
            result["recorded"] = check.recorded
        if tracer is not None:
            from tracing import layer_metrics

            with open(args.trace, "w", encoding="ascii") as fh:
                for span in timed["spans"]:
                    fh.write(json.dumps(span) + "\n")
            result["layers"] = layer_metrics(timed["spans"], timed["cache"])
    Path(args.out).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
