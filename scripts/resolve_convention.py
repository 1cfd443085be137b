"""Scan grid orders and divisor conventions against the published stats row.

The published tables label their rows with order 4, but the printed
maxima (tens of thousands) cannot occur on a 16x16 grid, so the grid
side behind the tables has to be recovered.  This script builds the
variant-0 curve on the unit kernel at orders 4..9, computes the
difference-map statistics under both divisor conventions, and compares
each of the six columns with the published reference row at its
printed precision.

Result (also recorded in the library docstrings): no (order,
convention) pair reproduces the full row.  Max, median and interior
min match exactly under divisor8 at order 8 (side 256), and under no
setting does the mean column land anywhere near its published value,
so divisor8/side-256 is locked as the documented default and the
regression suite uses the fallback criteria.

Run:  PYTHONPATH=src python3 scripts/resolve_convention.py [--orders 4 9]
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from find_kernels import exit_quietly_on_closed_stdout, round_half_down
from hhck.affine import build_curve
from hhck.kernels import load_bundled
from hhck.locality import DIVISOR_CONVENTIONS, diff_stats, difference_map

# published reference row for the variant-0 curve on the unit kernel,
# at the precision it was printed with
PUBLISHED = {
    "mean": 262,
    "max": 20480,
    "min": Fraction(3),
    "median": Fraction(43, 4),
    "entropy_bits": Fraction(571, 100),
    "pct_below_mean": Fraction(90),
}


def row_matches(stats) -> dict[str, bool]:
    two = Fraction(1, 100)
    return {
        "mean": round_half_down(stats.mean) == PUBLISHED["mean"],
        "max": round_half_down(stats.max) == PUBLISHED["max"],
        "min": stats.min == PUBLISHED["min"],
        "interior_min": stats.interior_min == PUBLISHED["min"],
        "median": stats.median == PUBLISHED["median"],
        "entropy_bits": abs(Fraction(stats.entropy_bits) - PUBLISHED["entropy_bits"]) <= two / 2,
        "pct_below_mean": abs(stats.pct_below_mean - PUBLISHED["pct_below_mean"]) <= Fraction(1, 20),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--orders", nargs=2, type=int, default=(4, 9), metavar=("LO", "HI"))
    args = ap.parse_args()

    kernel = load_bundled("unit")
    print(f"{'order':>5} {'side':>5} {'convention':>10}  "
          f"{'mean':>10} {'max':>10} {'min':>6} {'median':>7} {'entr':>7} {'pct':>7}  columns matching")
    full = []
    for n in range(args.orders[0], args.orders[1] + 1):
        p = build_curve(0, n, kernel)
        for conv in DIVISOR_CONVENTIONS:
            s = diff_stats(difference_map(p, convention=conv, order=n))
            ok = row_matches(s)
            hits = [k for k, v in ok.items() if v]
            print(f"{n:>5} {p.side:>5} {conv:>10}  "
                  f"{float(s.mean):>10.3f} {float(s.max):>10.1f} {float(s.min):>6.2f} "
                  f"{float(s.median):>7.3f} {s.entropy_bits:>7.4f} "
                  f"{float(s.pct_below_mean):>7.4f}  {','.join(hits) or '-'}")
            if all(ok[k] for k in ("mean", "max", "median", "entropy_bits", "pct_below_mean")) \
                    and (ok["min"] or ok["interior_min"]):
                full.append((n, conv))

    print()
    if full:
        n, conv = full[0]
        print(f"resolved: order {n}, convention {conv} reproduces the published row")
    else:
        print("no (order, convention) pair reproduces the published row exactly;")
        print("closest: divisor8 at order 8 (max, median and interior min exact; the")
        print("published mean column is not reachable under either convention at any")
        print("order in range).  Default locked to divisor8 / side 256; the regression")
        print("suite reports fallback status.")


if __name__ == "__main__":
    exit_quietly_on_closed_stdout(main)
