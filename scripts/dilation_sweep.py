"""Dilation factor versus order, as CSV for external plotting.

Writes one row per order with a sigma column per requested kernel,
all for variant 0. Values use the same 6-digit rendering as the CLI.
dilation_factor is a block-pair branch and bound, so orders up to 10
(side 1024 on the unit kernel) run in seconds.

    PYTHONPATH=src python3 scripts/dilation_sweep.py --orders 1 6 > sweep.csv
"""

import argparse

from find_kernels import exit_quietly_on_closed_stdout
from hhck.affine import build_curve
from hhck.io import fmt6
from hhck.kernels import BUILTIN_KERNELS, load_bundled
from hhck.locality import dilation_factor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernels", nargs="+", default=list(BUILTIN_KERNELS))
    ap.add_argument("--nu", type=int, default=0)
    ap.add_argument("--orders", nargs=2, type=int, default=(1, 6),
                    metavar=("LO", "HI"))
    args = ap.parse_args()

    kernels = {name: load_bundled(name) for name in args.kernels}
    print("order," + ",".join(f"sigma_{name}" for name in kernels))
    lo, hi = args.orders
    for n in range(lo, hi + 1):
        row = [fmt6(dilation_factor(build_curve(args.nu, n, k)))
               for k in kernels.values()]
        print(f"{n}," + ",".join(row))


if __name__ == "__main__":
    exit_quietly_on_closed_stdout(main)
