"""Benchmark of hhck: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-expected

Run it from the root of a source tree; the program is imported from
``src/``.  Each workload iteration is a fresh Python process (worker.py)
started here, one at a time: a closed loop with one client, so every
iteration starts with cold caches as a user's script or CLI call does.

With ``--trace 0`` the run first starts set-up-only processes (one
discarded warm-up, then SETUP_SAMPLES counted), then repeats the workload
while the next iteration still fits in ``--seconds`` (at least once).  It
reports

    wall_s       the operations, in sequence, after set-up: the sum over
                 operations of each one's median over iterations
    cpu_s        user+sys CPU of the same, CLI children included, summed
                 the same way
    peak_rss_mb  median peak resident set of an iteration's process tree
                 (wait4)
    setup_s      median of process start to the end of set-up, over every
                 set-up

With ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones (tracing.py), plus the
traced wall time and the tracing overhead.  Every output is checked; the
last line of stdout is the JSON result, and a copy with the run's
metadata and all samples is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 5
# a run of one workload must end within 180 s
RUN_DEADLINE_S = 175


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], tag: str, deadline: float) -> dict:
    """Run worker.py once; returns its result plus set-up time and peak RSS."""
    out = OUT / f"worker-{os.getpid()}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)]
    t_spawn = time.perf_counter()
    # its own session, so a timeout can stop the worker's CLI children too
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    # wait4 gives the rusage of the worker and of the CLI children it waited for
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise WorkerFailed(f"run exceeded {RUN_DEADLINE_S} s: {args}")
        time.sleep(0.02)
    t_end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {args}")
    result = json.loads(out.read_text(encoding="ascii"))
    out.unlink()
    result["setup_s"] = result.pop("t_ready") - t_spawn
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    result["spawn_s"] = t_end - t_spawn
    return result


def op_median_sum(iterations: list[dict], column: int) -> float:
    """Sum over operations of each one's median over the iterations.

    Every iteration of a run does the same operations (the seed fixes
    them), so this estimates one iteration's total; a burst of load from
    outside that slows a few operations in some iterations is dropped.
    """
    labels = iterations[0]["ops"]
    return sum(statistics.median(it["ops"][label][column] for it in iterations)
               for label in labels)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setups: int = SETUP_SAMPLES,
                 corrupt: bool = False) -> dict:
    """All iterations of one run; returns metrics, counts and samples."""
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    if setups:  # a discarded warm-up compiles bytecode and warms the file cache
        spawn(base + ["--mode", "setup"], "warmup", deadline)
    setup_s = []
    if not trace:
        setup_s = [spawn(base + ["--mode", "setup"], f"setup{i}", deadline)["setup_s"]
                   for i in range(setups)]
    iterations = []
    start = time.perf_counter()
    while True:
        i = len(iterations)
        args = base + ["--mode", "run"] + (["--corrupt"] if corrupt else [])
        traced = trace and i % 2 == 1
        if traced:
            spans = OUT / f"spans-{workload}-seed{seed}-{i}.jsonl"
            args += ["--trace", str(spans)]
        it = spawn(args, f"run{i}", deadline)
        it["traced"] = traced
        iterations.append(it)
        if not traced:
            setup_s.append(it["setup_s"])
        elapsed = time.perf_counter() - start
        if len(iterations) >= (2 if trace else 1) and elapsed + it["spawn_s"] > seconds:
            break
    plain = [it for it in iterations if not it["traced"]]
    metrics = {
        "wall_s": op_median_sum(plain, 0),
        "cpu_s": op_median_sum(plain, 1),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        "setup_s": statistics.median(setup_s),
    }
    if trace:
        traced = [it for it in iterations if it["traced"]]
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(it["layers"][key] for it in traced)
        metrics["trace.wall_s"] = op_median_sum(traced, 0)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]
    attempted = sum(it["attempted"] for it in iterations)
    failures = [label for it in iterations for label in it["failed"]]
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "setup_samples": setup_s, "iterations": iterations}


# -- run metadata ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of the program's sources, for trees that are not git checkouts."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(seed: int, numpy_version: str | None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "platform": platform.platform(),
    }


# -- modes -------------------------------------------------------------------

def _declared(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def bench(args, spec: dict, workload: str) -> None:
    run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for m in _declared(spec, bool(args.trace)):
        metrics[m["name"]] = {"value": run["metrics"][m["name"]], "unit": m["unit"]}
    failed = len(run["failures"])
    result = {"correct": failed == 0, "attempted": run["attempted"], "failed": failed,
              "metrics": metrics}
    meta = metadata(args.seed, run["iterations"][0]["numpy"])
    record = dict(result, workload=workload, trace=args.trace, seconds=args.seconds,
                  meta=meta, error_rate=failed / run["attempted"],
                  failures=run["failures"], setup_samples=run["setup_samples"],
                  iterations=[{k: v for k, v in it.items() if k != "layers"}
                              for it in run["iterations"]])
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")

    print(f"# {workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(run['iterations'])} setups={len(run['setup_samples'])}")
    print("# meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
    print(f"{workload}.error_rate {failed / run['attempted']:.6g} ratio "
          f"({failed}/{run['attempted']})")
    for label in run["failures"]:
        print(f"# failed: {label}")
    print(json.dumps(result))


def self_test(spec: dict) -> int:
    """Every workload at small orders: metrics present, checks live."""
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            run = run_workload(w["name"], 1, 0, trace, size="small", setups=0)
            for m in _declared(spec, trace):
                if m["name"] not in run["metrics"]:
                    problems.append(f"{w['name']}: metric {m['name']} missing")
                if not m["unit"]:
                    problems.append(f"{w['name']}: metric {m['name']} has no unit")
            if run["failures"]:
                problems.append(f"{w['name']}: checks failed: {run['failures']}")
            print(f"self-test {w['name']} trace={int(trace)}: "
                  f"{len(run['failures'])}/{run['attempted']} failed")
    for name in ("analyze", "cli", "dilation"):
        run = run_workload(name, 1, 0, False, size="small", setups=0, corrupt=True)
        rate = len(run["failures"]) / run["attempted"]
        print(f"self-test {name} with one wrong expected entry: error_rate {rate:.4g}")
        if not rate > 0:
            problems.append(f"{name}: a wrong expected entry left error_rate at 0")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def write_expected() -> int:
    """Record every output any seed can ask for, at both sizes."""
    table = {}
    OUT.mkdir(exist_ok=True)
    for size in ("full", "small"):
        for name in ("analyze", "dilation", "cli"):
            res = spawn(["--workload", name, "--seed", "0", "--size", size,
                         "--mode", "record"], f"record-{name}-{size}",
                        time.perf_counter() + RUN_DEADLINE_S)
            table.update(res["recorded"])
            print(f"recorded {name} ({size}): {len(res['recorded'])} entries")
    (HERE / "expected.json").write_text(
        json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="ascii")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hhck benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hhck" / "__init__.py").is_file():
        print(f"error: no hhck sources under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="ascii"))
    if args.self_test:
        return self_test(spec)
    if args.write_expected:
        return write_expected()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: --workload must be one of {names} or all", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        for name in names if args.workload == "all" else [args.workload]:
            bench(args, spec, name)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
