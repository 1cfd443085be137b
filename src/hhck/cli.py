"""Command-line front end.

The argparse parser is the one definition of the commands, their flags
and defaults; main() parses the arguments and run() executes the parsed
namespace, making only the checks argparse cannot, and returns the exit
status.  Exit codes: 0 success, 1 usage error, 2 kernel validation
failure, 3 cross-backend mismatch, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import affine, tags
from .affine import N_VARIANTS
from .core import MAX_CELLS, CurveError, CurvePath, KernelSpec, NotSpaceFilling, \
    check_budget
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

# the engines by --backend name; every build goes through this table, so a
# test can corrupt one side and watch the both-backend check fire
BACKENDS = {"affine": affine.build_curve, "tag": tags.generate}


class UsageError(Exception):
    """Bad argument combination detected after parsing."""


class BackendMismatch(Exception):
    def __init__(self, step: int, paths: list[CurvePath]):
        got = [f"{name} {p.point(step)}" if step < len(p) else f"{name} ends after {len(p)} cells"
               for name, p in zip(BACKENDS, paths)]
        super().__init__(f"backend disagreement at step {step}: {', '.join(got)}")


def number(token: str) -> int:
    if not (token.isascii() and token.isdigit()):  # int() also takes signs, '_' and '٣'
        raise ValueError(f"expected ASCII digits, got {token!r}")
    return int(token)


def _nu_values(nu: str) -> list[int]:
    if nu == "all":
        return list(range(N_VARIANTS))
    try:
        value = number(nu)
    except ValueError:
        raise UsageError(f"--nu must be 0..{N_VARIANTS - 1} or 'all', got {nu!r}")
    if not 0 <= value < N_VARIANTS:
        raise UsageError(f"--nu must be 0..{N_VARIANTS - 1} or 'all', got {value}")
    return [value]


def _check_budget(order: int, kernel: KernelSpec) -> None:
    """core.check_budget as a usage error, so an order past MAX_CELLS exits 1."""
    try:
        check_budget(len(kernel.path), order)
    except NotSpaceFilling:
        raise UsageError(f"--order {order} on a side-{kernel.side} kernel exceeds "
                         f"the budget of {MAX_CELLS} cells") from None


def _build_path(args: argparse.Namespace, nu: int, kernel: KernelSpec) -> CurvePath:
    """Build via the requested backend, or via each one; they must agree exactly."""
    if args.backend != "both":
        return BACKENDS[args.backend](nu, args.order, kernel)
    a, b = paths = [build(nu, args.order, kernel) for build in BACKENDS.values()]
    if a != b:
        # compare the common prefix; if it matches, the curves differ in length
        n = min(len(a), len(b))
        diff = np.nonzero((a.cells[:n] != b.cells[:n]).any(axis=1))[0]
        raise BackendMismatch(int(diff[0]) if len(diff) else n, paths)
    return a


def _emit(args: argparse.Namespace, nu: int, kernel: KernelSpec, out_path: Path | None) -> None:
    """Run one (command, nu) unit of work."""

    def deliver(write, suffix: str = "") -> None:
        if out_path is None:
            write(sys.stdout)
        else:
            target = out_path.with_suffix(suffix) if suffix else out_path
            with open(target, "w", encoding="ascii", newline="\n") as fh:
                write(fh)

    def stats(p: CurvePath, k: int, order: int) -> str:
        m = difference_map(p, convention=args.convention, order=order)
        return stats_record(diff_stats(m), args.convention, order,
                            extra={"nu": k, "kernel": kernel.name})

    if args.builds:
        p = _build_path(args, nu, kernel)
    if args.command == "generate":
        deliver(lambda fh: write_curve_csv(fh, p, nu, args.order, kernel.name))
    elif args.command == "analyze":
        rec = stats(p, nu, args.order)
        deliver(lambda fh: fh.write(rec + "\n"))
    elif args.command == "dilation":
        rec = json_record({"nu": nu, "order": args.order, "kernel": kernel.name,
                           "sigma": dilation_factor(p)})
        deliver(lambda fh: fh.write(rec + "\n"))
    elif args.command == "diffmap":
        m = difference_map(p, convention=args.convention, order=args.order)
        if args.format == "csv":
            deliver(lambda fh: write_diffmap_csv(fh, m))
        else:
            deliver(lambda fh: write_diffmap_pgm(fh, m))
            mask = barrier_mask(m)
            deliver(lambda fh: write_barrier_ppm(fh, m, mask), suffix=".barrier.ppm")
    elif args.command == "validate-kernel":
        rec = json_record({"kernel": kernel.name, "side": kernel.side,
                           "sha256": kernel_checksum(kernel), "valid": True})
        deliver(lambda fh: fh.write(rec + "\n"))
    elif args.command == "reproduce-tables":
        order = reference_order(kernel)
        recs = [stats(BACKENDS["affine"](k, order, kernel), k, order) for k in range(N_VARIANTS)]
        deliver(lambda fh: fh.write("\n".join(recs) + "\n"))


def run(args: argparse.Namespace) -> int:
    """Execute parsed arguments; print errors to stderr and return the exit code."""
    try:
        fan_out = args.builds and args.nu == "all"
        if args.output == "":
            raise UsageError("--output must name a file or directory")
        if args.builds and args.order < 1:
            raise UsageError(f"--order must be >= 1, got {args.order}")
        if fan_out and args.output is None:
            raise UsageError("--nu all needs --output DIRECTORY (one file per variant)")
        if args.format == "pgm" and args.output is None:
            raise UsageError("diffmap --format pgm needs --output (writes a PPM companion)")
        nus = _nu_values(args.nu) if args.builds else [0]
        # these can fail too, so they come before --nu all makes its directory
        kernel = resolve_kernel(args.kernel)
        if args.builds:
            _check_budget(args.order, kernel)
        if fan_out:
            out_dir = Path(args.output)
            out_dir.mkdir(parents=True, exist_ok=True)
            stem = f"{args.command}-{kernel.name}-n{args.order}"
            targets = [(k, out_dir / f"{stem}-nu{k:02d}.{args.format}") for k in nus]
        else:
            targets = [(nus[0], None if args.output is None else Path(args.output))]
        for nu, target in targets:
            _emit(args, nu, kernel, target)
        return EXIT_OK
    except (UsageError, BackendMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(e, BackendMismatch) else EXIT_USAGE
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

    # a command that builds a curve takes --nu, --order and --backend;
    # formats are file extensions, the first one the default
    def command(name, summary, builds=True, convention=False, formats=("json",)):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(builds=builds, format=formats[0])
        sp.add_argument("--kernel", default="unit",
                        help=f"bundled name {BUILTIN_KERNELS} or kernel file path")
        sp.add_argument("--output", "-o",
                        help="output file (directory when --nu all); default stdout")
        if builds:
            sp.add_argument("--nu", default="0", help="variant 0..11, or 'all'")
            sp.add_argument("--order", type=number, default=1, help="curve order n >= 1")
            sp.add_argument("--backend", default="affine", choices=(*BACKENDS, "both"))
        if convention:
            sp.add_argument("--convention", default=DEFAULT_CONVENTION,
                            choices=DIVISOR_CONVENTIONS, help="difference-map divisor rule")
        if len(formats) > 1:
            sp.add_argument("--format", choices=formats)

    command("generate", "write a curve as CSV", formats=("csv",))
    command("analyze", "difference-map statistics as a JSON record", convention=True)
    command("dilation", "square-to-linear ratio as a JSON record")
    command("diffmap", "difference map as CSV or PGM(+barrier PPM)", convention=True,
            formats=("csv", "pgm"))
    sp = sub.add_parser("validate-kernel", help="check a kernel file, print checksum")
    sp.add_argument("kernel", help="bundled name or kernel file path")
    sp.add_argument("--output", "-o")
    sp.set_defaults(builds=False, format="json")
    command("reproduce-tables", "12 per-variant stats records at the reference side",
            builds=False, convention=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems; the contract says 1
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
