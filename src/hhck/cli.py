"""Command-line front end.

One JobSpec describes one invocation; run() executes it and returns the
exit status.  Exit codes: 0 success, 1 usage error, 2 kernel validation
failure, 3 cross-backend mismatch, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import affine, tags
from .affine import N_VARIANTS
from .core import MAX_CELLS, CurveError, CurvePath, KernelSpec
from .io import json_record, stats_record, write_barrier_ppm, write_curve_csv, \
    write_diffmap_csv, write_diffmap_pgm
from .kernels import BUILTIN_KERNELS, kernel_checksum, resolve_kernel
from .locality import DEFAULT_CONVENTION, DIVISOR_CONVENTIONS, barrier_mask, \
    diff_stats, difference_map, dilation_factor, reference_order

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_KERNEL = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

COMMANDS = ("generate", "analyze", "dilation", "diffmap",
            "validate-kernel", "reproduce-tables")
# commands that build the curve given by --nu, --order and --backend
BUILDS = ("generate", "analyze", "dilation", "diffmap")

# the both-backend check goes through this table so a test can corrupt
# one side and watch the mismatch fire
BACKENDS = {"affine": affine.build_curve, "tag": tags.generate}


class UsageError(Exception):
    """Bad argument combination detected after parsing."""


class BackendMismatch(Exception):
    def __init__(self, step: int, got_a, got_b):
        super().__init__(
            f"backend disagreement at step {step}: affine {got_a}, tag {got_b}"
        )
        self.step = step


@dataclass(frozen=True)
class JobSpec:
    """Everything one invocation needs, normalized."""

    command: str
    nu: str = "0"
    order: int = 1
    kernel: str = "unit"
    backend: str = "affine"
    output: str | None = None
    format: str = "csv"
    convention: str = DEFAULT_CONVENTION


def _nu_values(job: JobSpec) -> list[int]:
    if job.nu == "all":
        return list(range(N_VARIANTS))
    try:
        nu = int(job.nu)
    except ValueError:
        raise UsageError(f"--nu must be 0..{N_VARIANTS - 1} or 'all', got {job.nu!r}")
    if not 0 <= nu < N_VARIANTS:
        raise UsageError(f"--nu must be 0..{N_VARIANTS - 1} or 'all', got {nu}")
    return [nu]


def _check_job(job: JobSpec) -> None:
    if job.command not in COMMANDS:
        raise UsageError(f"unknown command {job.command!r}")
    if job.backend not in ("affine", "tag", "both"):
        raise UsageError(f"--backend must be affine, tag or both, got {job.backend!r}")
    if job.convention not in DIVISOR_CONVENTIONS:
        raise UsageError(f"--convention must be one of {DIVISOR_CONVENTIONS}")
    if job.command in BUILDS and job.order < 1:
        raise UsageError(f"--order must be >= 1, got {job.order}")
    allowed = {
        "generate": ("csv",),
        "analyze": ("json-record",),
        "dilation": ("json-record",),
        "diffmap": ("csv", "pgm"),
        "validate-kernel": ("json-record",),
        "reproduce-tables": ("json-record",),
    }[job.command]
    if job.format not in allowed:
        raise UsageError(
            f"{job.command} writes {' or '.join(allowed)}, not {job.format!r}"
        )
    if job.nu == "all" and job.output is None:
        raise UsageError("--nu all needs --output DIRECTORY (one file per variant)")
    if job.command == "diffmap" and job.format == "pgm" and job.output is None:
        raise UsageError("diffmap --format pgm needs --output (writes a PPM companion)")


def _check_budget(job: JobSpec, kernel: KernelSpec) -> None:
    """Refuse a curve of more than MAX_CELLS cells before building it."""
    # 4**k exceeds MAX_CELLS once k reaches its bit length, so the clamp
    # keeps the check exact without forming a huge integer
    doublings = min(job.order - 1, MAX_CELLS.bit_length())
    if kernel.side ** 2 * 4 ** doublings > MAX_CELLS:
        raise UsageError(f"--order {job.order} on a side-{kernel.side} kernel exceeds "
                         f"the budget of {MAX_CELLS} cells")


def _build_path(job: JobSpec, nu: int, kernel: KernelSpec) -> CurvePath:
    """Build via the requested backend(s); both must agree exactly."""
    if job.backend == "both":
        a = BACKENDS["affine"](nu, job.order, kernel)
        b = BACKENDS["tag"](nu, job.order, kernel)
        if a != b:
            diff = np.nonzero((a.cells != b.cells).any(axis=1))[0]
            step = int(diff[0]) if len(diff) else min(len(a), len(b))
            raise BackendMismatch(step, a.point(step), b.point(step))
        return a
    return BACKENDS[job.backend](nu, job.order, kernel)


def _emit(job: JobSpec, nu: int, kernel: KernelSpec, out_path: Path | None) -> None:
    """Run one (command, nu) unit of work."""

    def deliver(write, suffix: str = "") -> None:
        if out_path is None:
            write(sys.stdout)
        else:
            target = out_path.with_suffix(suffix) if suffix else out_path
            with open(target, "w", encoding="ascii", newline="\n") as fh:
                write(fh)

    if job.command in BUILDS:
        p = _build_path(job, nu, kernel)
    if job.command == "generate":
        deliver(lambda fh: write_curve_csv(fh, p, nu, job.order, kernel.name))
    elif job.command == "analyze":
        m = difference_map(p, convention=job.convention, order=job.order)
        rec = stats_record(diff_stats(m), job.convention, job.order,
                           extra={"nu": nu, "kernel": kernel.name})
        deliver(lambda fh: fh.write(rec + "\n"))
    elif job.command == "dilation":
        rec = json_record({"nu": nu, "order": job.order, "kernel": kernel.name,
                           "sigma": dilation_factor(p)})
        deliver(lambda fh: fh.write(rec + "\n"))
    elif job.command == "diffmap":
        m = difference_map(p, convention=job.convention, order=job.order)
        if job.format == "csv":
            deliver(lambda fh: write_diffmap_csv(fh, m))
        else:
            deliver(lambda fh: write_diffmap_pgm(fh, m))
            mask = barrier_mask(m)
            deliver(lambda fh: write_barrier_ppm(fh, m, mask), suffix=".barrier.ppm")
    elif job.command == "validate-kernel":
        rec = json_record({"kernel": kernel.name, "side": kernel.side,
                           "sha256": kernel_checksum(kernel), "valid": True})
        deliver(lambda fh: fh.write(rec + "\n"))
    elif job.command == "reproduce-tables":
        order = reference_order(kernel)
        recs = []
        for k in range(N_VARIANTS):
            p = BACKENDS["affine"](k, order, kernel)
            m = difference_map(p, convention=job.convention, order=order)
            recs.append(stats_record(diff_stats(m), job.convention, order,
                                     extra={"nu": k, "kernel": kernel.name}))
        deliver(lambda fh: fh.write("\n".join(recs) + "\n"))


def run(job: JobSpec) -> int:
    """Execute one job; print errors to stderr and return the exit code."""
    try:
        _check_job(job)
        nus = _nu_values(job)
        # both can fail, so they come before --nu all makes its directory
        kernel = resolve_kernel(job.kernel)
        if job.command in BUILDS:
            _check_budget(job, kernel)
        if job.nu == "all":
            out_dir = Path(job.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            ext = {"csv": "csv", "pgm": "pgm", "json-record": "json"}[job.format]
            stem = f"{job.command}-{kernel.name}-n{job.order}"
            targets = [(k, out_dir / f"{stem}-nu{k:02d}.{ext}") for k in nus]
        else:
            targets = [(nus[0], Path(job.output) if job.output else None)]
        for nu, target in targets:
            _emit(job, nu, kernel, target)
        return EXIT_OK
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BackendMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except CurveError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_KERNEL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hhck",
        description="Generate and analyze homogeneous Hilbert curves over kernels.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(sp, nu=True, order=True, backend=True, convention=False):
        sp.add_argument("--kernel", default="unit",
                        help=f"bundled name {BUILTIN_KERNELS} or kernel file path")
        sp.add_argument("--output", "-o", default=None,
                        help="output file (directory when --nu all); default stdout")
        if nu:
            sp.add_argument("--nu", default="0", help="variant 0..11, or 'all'")
        if order:
            sp.add_argument("--order", type=int, default=1, help="curve order n >= 1")
        if backend:
            sp.add_argument("--backend", default="affine",
                            choices=("affine", "tag", "both"))
        if convention:
            sp.add_argument("--convention", default=DEFAULT_CONVENTION,
                            choices=DIVISOR_CONVENTIONS,
                            help="difference-map divisor rule")
            sp.add_argument("--divisor8", action="store_true",
                            help="shorthand for --convention divisor8")

    sp = sub.add_parser("generate", help="write a curve as CSV")
    common(sp)
    sp.set_defaults(format="csv")

    sp = sub.add_parser("analyze", help="difference-map statistics as a JSON record")
    common(sp, convention=True)
    sp.set_defaults(format="json-record")

    sp = sub.add_parser("dilation", help="square-to-linear ratio as a JSON record")
    common(sp)
    sp.set_defaults(format="json-record")

    sp = sub.add_parser("diffmap", help="difference map as CSV or PGM(+barrier PPM)")
    common(sp, convention=True)
    sp.add_argument("--format", default="csv", choices=("csv", "pgm"))

    sp = sub.add_parser("validate-kernel", help="check a kernel file, print checksum")
    sp.add_argument("kernel", help="bundled name or kernel file path")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(format="json-record")

    sp = sub.add_parser("reproduce-tables",
                        help="12 per-variant stats records at the reference side")
    common(sp, nu=False, order=False, backend=False, convention=True)
    sp.set_defaults(format="json-record")
    return ap


def job_from_args(argv: list[str]) -> JobSpec:
    ns = _parser().parse_args(argv)
    d = vars(ns)
    if d.pop("divisor8", False):
        if d.get("convention", "divisor8") == "neighbors":
            raise UsageError("--divisor8 conflicts with --convention neighbors")
        d["convention"] = "divisor8"
    return JobSpec(**{k: v for k, v in d.items() if v is not None or k == "output"})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        job = job_from_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        # argparse exits 2 on usage problems; the contract says 1
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
