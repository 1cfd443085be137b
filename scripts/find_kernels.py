#!/usr/bin/env python3
"""Recover the mouse and frog kernels by exhaustive search.

The two 4x4 kernels are published only as figures, so we enumerate every
candidate seed path and keep the ones whose generated curves reproduce the
published difference-map fingerprints:

    mouse: median 9.875, interior min 3.25, entropy near 6.48
    frog:  median 10.5,  interior min 2.75, entropy near 6.18

plus the per-variant map maxima (12 values each, matched within printed
rounding).  Ties (mirror-symmetric seeds produce identical statistics) are
broken by the lexicographically smallest stroke string.

Usage: PYTHONPATH=src python scripts/find_kernels.py [--write-dir DIR]
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from hhck.core import CurvePath, CurveError, path_to_strokes, validate_kernel
from hhck.affine import grow_once
from hhck.locality import difference_map
from hhck.kernels import kernel_checksum

SIDE = 4
START = (0, 0)
END = (SIDE - 1, 0)
TARGET_SIDE = 256

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


def growth_bases(kernel_path):
    """(variant-0 base, variant-5 base) at half the reference side.

    A proper variant of order n recurses on the variant-0 curve of order
    n-1; an improper one recurses on the variant-5 curve of order n-1,
    which itself sits on the variant-0 curve of order n-2.
    """
    p = kernel_path
    while p.side < TARGET_SIDE // 4:
        p = grow_once(0, p)
    return grow_once(0, p), grow_once(5, p)


def fingerprint(kernel_path):
    """(median, interior_min, entropy, max) of the variant-0 map at side 256."""
    base0, _ = growth_bases(kernel_path)
    p = grow_once(0, base0)
    m = difference_map(p, "divisor8")
    num = m.numerators
    flat = np.sort(num.flatten())
    n = flat.size
    med = Fraction(int(flat[n // 2 - 1]) + int(flat[n // 2]), 16)
    interior = np.sort(num[1:-1, 1:-1].flatten())
    k = interior.size
    med_int = Fraction(int(interior[k // 2 - 1]) + int(interior[k // 2]), 16)
    imin = Fraction(int(interior[0]), 8)
    _, counts = np.unique(flat, return_counts=True)
    freq = counts / n
    ent = float(-(freq * np.log2(freq)).sum())
    return (med, med_int), imin, ent, Fraction(int(flat[-1]), 8)


def variant_maxima_and_minima(kernel_path):
    base0, base5 = growth_bases(kernel_path)
    maxima, minima = [], []
    for nu in range(12):
        p = grow_once(nu, base0 if nu <= 5 else base5)
        num = difference_map(p, "divisor8").numerators
        maxima.append(Fraction(int(num.max()), 8))
        minima.append(Fraction(int(num[1:-1, 1:-1].min()), 8))
    return maxima, minima


def round_half_down(x: Fraction) -> int:
    # the published maxima round ties downward (16384.5 prints as 16384)
    y = x - Fraction(1, 2)
    return -((-y.numerator) // y.denominator)


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


def rank_key(kernel_path, published_max):
    """Sort key: best candidate first.

    Preference order: most maxima reproducing the printed value under the
    ties-down rounding seen in the reference tables, then seeds whose
    drawing has no segment crossings, then smallest total deviation from
    the printed maxima, then the lexicographically smallest stroke string.
    """
    maxima, _ = variant_maxima_and_minima(kernel_path)
    printed_hits = sum(round_half_down(m) == t for m, t in zip(maxima, published_max))
    deviation = sum(abs(m - t) for m, t in zip(maxima, published_max))
    return (-printed_hits, has_crossing(kernel_path), deviation,
            path_to_strokes(kernel_path).strokes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write-dir", default=None)
    args = ap.parse_args()

    t0 = time.time()
    seeds = enumerate_seed_paths()
    print(f"{len(seeds)} Hamiltonian king paths (0,0)->(3,0)  [{time.time()-t0:.1f}s]")

    kernels = []
    for cells in seeds:
        path = CurvePath(SIDE, np.array(cells, dtype=np.int64))
        try:
            validate_kernel(path)
        except CurveError:
            continue
        kernels.append(path)
    print(f"{len(kernels)} pass kernel validation  [{time.time()-t0:.1f}s]")

    stage = {"mouse": [], "frog": []}
    for i, k in enumerate(kernels):
        meds, imin, ent, _ = fingerprint(k)
        for name, want in (("mouse", MOUSE_PRINT), ("frog", FROG_PRINT)):
            if want["median"] in meds and imin == want["interior_min"] \
                    and abs(ent - want["entropy"]) <= 0.1:
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
            print(f"  strokes {path_to_strokes(k).strokes}  "
                  f"(crossing={has_crossing(k)})")
        pick = finalists[0]
        spec = validate_kernel(pick)
        text = "\n".join([
            f"# {name} kernel: recovered by scripts/find_kernels.py",
            "side 4",
            "origin 0 0",
            f"strokes {path_to_strokes(pick).strokes}",
            "",
        ])
        print(f"  -> picked {path_to_strokes(pick).strokes}")
        print(f"     sha256 {kernel_checksum(spec)}")
        if args.write_dir:
            out = f"{args.write_dir}/{name}.kernel"
            with open(out, "w") as fh:
                fh.write(text)
            print(f"     wrote {out}")

    print(f"\ndone in {time.time()-t0:.1f}s")


if __name__ == "__main__":
    sys.exit(main())
