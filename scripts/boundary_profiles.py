"""Center-line boundary profiles at the reference side, as CSV.

One row per grid row (top first), one column per variant. The upper
half of each column runs along the quadrant 2-3 crossing, the lower
half along the 4-1 crossing; comparing the two halves shows which
variants keep the top seam quiet.

    PYTHONPATH=src python3 scripts/boundary_profiles.py --nu 0 1 3 8 9 10 > profiles.csv
"""

import argparse

from find_kernels import exit_quietly_on_closed_stdout
from hhck.affine import build_curve
from hhck.io import fmt6
from hhck.kernels import load_bundled
from hhck.locality import boundary_profile, difference_map, reference_order


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kernel", default="unit")
    ap.add_argument("--nu", nargs="+", type=int, default=[0, 1, 3, 8, 9, 10])
    args = ap.parse_args()

    kernel = load_bundled(args.kernel)
    order = reference_order(kernel)

    cols = []
    for nu in args.nu:
        m = difference_map(build_curve(nu, order, kernel), order=order)
        cols.append(boundary_profile(m))
    side = m.side

    print("row," + ",".join(f"nu{nu:02d}" for nu in args.nu))
    for i in range(side):
        print(f"{side - 1 - i}," + ",".join(fmt6(col[i]) for col in cols))


if __name__ == "__main__":
    exit_quietly_on_closed_stdout(main)
