#!/usr/bin/env python3
"""Recover the mouse and frog kernels by exhaustive search.

The two 4x4 kernels are published only as figures, so we enumerate every
candidate seed path and keep the ones whose generated curves reproduce the
published difference-map fingerprints:

    mouse: median 9.875, interior min 3.25, entropy near 6.48
    frog:  median 10.5,  interior min 2.75, entropy near 6.18

plus the per-variant map maxima (12 values each, matched within printed
rounding).  The finalists are ranked by rank_key; the last tie-break
(mirror-symmetric seeds produce identical statistics) is the
lexicographically smallest stroke string.

Usage: PYTHONPATH=src python scripts/find_kernels.py [--write-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from hhck.affine import build_curve
from hhck.core import CurvePath, CurveError, format_kernel_text, validate_kernel
from hhck.kernels import kernel_checksum
from hhck.locality import diff_stats, difference_map, reference_order

SIDE = 4
START = (0, 0)
END = (SIDE - 1, 0)

KING = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)]

# published per-variant map maxima at the 256-cell-side reference grid
MOUSE_MAX = [20480, 25258, 28672, 16384, 25941, 22869, 27306, 25258, 20139, 26283, 17407, 23552]
FROG_MAX = [20480, 25259, 28672, 16384, 25942, 22870, 27307, 25259, 20139, 26283, 17408, 23553]

MOUSE_PRINT = dict(median=Fraction(79, 8), interior_min=Fraction(26, 8), entropy=6.48)
FROG_PRINT = dict(median=Fraction(21, 2), interior_min=Fraction(22, 8), entropy=6.18)

# per-variant interior minima; the mouse tables drop to 3.00 on five variants
MOUSE_MIN = [Fraction(13, 4)] * 6 + [Fraction(3), Fraction(3), Fraction(13, 4),
             Fraction(3), Fraction(3), Fraction(3)]
FROG_MIN = [Fraction(11, 4)] * 12


def enumerate_seed_paths():
    """All king-move Hamiltonian paths (0,0) -> (3,0) on the 4x4 grid."""
    total = SIDE * SIDE
    found = []
    path = [START]
    visited = {START}

    def dfs(cell):
        if len(path) == total:
            if cell == END:
                found.append(tuple(path))
            return
        for dx, dy in KING:
            nxt = (cell[0] + dx, cell[1] + dy)
            if not (0 <= nxt[0] < SIDE and 0 <= nxt[1] < SIDE):
                continue
            if nxt in visited:
                continue
            if nxt == END and len(path) != total - 1:
                continue
            visited.add(nxt)
            path.append(nxt)
            dfs(nxt)
            path.pop()
            visited.remove(nxt)

    dfs(START)
    return found


def variant_maps(kernel, nus):
    """The divisor8 difference maps of some variants at the reference side."""
    order = reference_order(kernel)
    maps = [difference_map(build_curve(nu, order, kernel), "divisor8") for nu in nus]
    build_curve.cache_clear()  # no other kernel reuses them; thousands would pile up
    return maps


def fingerprint(kernel):
    """((median, interior median), interior_min, entropy) of variant 0."""
    [m] = variant_maps(kernel, [0])
    s = diff_stats(m)
    inner = replace(m, side=m.side - 2, numerators=m.numerators[1:-1, 1:-1])
    return (s.median, diff_stats(inner).median), s.interior_min, s.entropy_bits


def fits(fp, want):
    """Stage 1: either median, the interior minimum and the entropy match."""
    medians, imin, ent = fp
    return (want["median"] in medians and imin == want["interior_min"]
            and abs(ent - want["entropy"]) <= 0.1)


def variant_maxima_and_minima(kernel):
    stats = [diff_stats(m) for m in variant_maps(kernel, range(12))]
    return [s.max for s in stats], [s.interior_min for s in stats]


def round_half_down(x: Fraction) -> int:
    # the published maxima round ties downward (16384.5 prints as 16384)
    y = x - Fraction(1, 2)
    return -((-y.numerator) // y.denominator)


def exit_quietly_on_closed_stdout(main):
    """Run a script's main; exit 1 without a traceback if stdout closes early.

    Every script here keeps this contract, so `script | head` ends quietly.
    """
    try:
        main()
    except BrokenPipeError:
        # send the rest to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


def has_crossing(kernel_path):
    """True when two diagonal steps pass through the same unit square."""
    squares = set()
    cells = kernel_path.cells
    for (x0, y0), (x1, y1) in zip(cells[:-1].tolist(), cells[1:].tolist()):
        if x0 != x1 and y0 != y1:
            sq = (min(x0, x1), min(y0, y1))
            if sq in squares:
                return True
            squares.add(sq)
    return False


def rank_key(kernel, published_max):
    """Sort key: best candidate first.

    Preference order: most maxima reproducing the printed value under the
    ties-down rounding seen in the reference tables, then seeds whose
    drawing has no segment crossings, then smallest total deviation from
    the printed maxima, then the lexicographically smallest stroke string.
    """
    maxima, _ = variant_maxima_and_minima(kernel)
    printed_hits = sum(round_half_down(m) == t for m, t in zip(maxima, published_max))
    deviation = sum(abs(m - t) for m, t in zip(maxima, published_max))
    return -printed_hits, has_crossing(kernel.path), deviation, kernel.strokes.strokes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write-dir", default=None)
    args = ap.parse_args()

    t0 = time.time()
    seeds = enumerate_seed_paths()
    print(f"{len(seeds)} Hamiltonian king paths (0,0)->(3,0)  [{time.time()-t0:.1f}s]")

    kernels = []
    for cells in seeds:
        try:
            kernels.append(validate_kernel(CurvePath(SIDE, np.array(cells, dtype=np.int64))))
        except CurveError:
            continue
    print(f"{len(kernels)} pass kernel validation  [{time.time()-t0:.1f}s]")

    stage = {"mouse": [], "frog": []}
    for i, k in enumerate(kernels):
        fp = fingerprint(k)
        for name, want in (("mouse", MOUSE_PRINT), ("frog", FROG_PRINT)):
            if fits(fp, want):
                stage[name].append(k)
        if (i + 1) % 200 == 0:
            print(f"  fingerprinted {i+1}/{len(kernels)}  [{time.time()-t0:.1f}s]")

    for name, published, minima_pattern in (
            ("mouse", MOUSE_MAX, MOUSE_MIN), ("frog", FROG_MAX, FROG_MIN)):
        finalists = []
        for k in stage[name]:
            maxima, minima = variant_maxima_and_minima(k)
            if minima != minima_pattern:
                continue
            if all(abs(m - t) <= 1 for m, t in zip(maxima, published)):
                finalists.append(k)
        print(f"\n{name}: {len(stage[name])} stage-1 candidates, "
              f"{len(finalists)} match the 12 maxima and the minima pattern")
        if not finalists:
            continue
        finalists.sort(key=lambda k: rank_key(k, published))
        for k in finalists:
            print(f"  strokes {k.strokes.strokes}  (crossing={has_crossing(k.path)})")
        pick = finalists[0]
        print(f"  -> picked {pick.strokes.strokes}")
        print(f"     sha256 {kernel_checksum(pick)}")
        if args.write_dir:
            out = f"{args.write_dir}/{name}.kernel"
            with open(out, "w") as fh:
                fh.write(f"# {name} kernel: recovered by scripts/find_kernels.py\n"
                         + format_kernel_text(pick))
            print(f"     wrote {out}")

    print(f"\ndone in {time.time()-t0:.1f}s")


if __name__ == "__main__":
    exit_quietly_on_closed_stdout(main)
