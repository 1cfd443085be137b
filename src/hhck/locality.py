"""Locality analysis: dilation factor, difference maps, barriers, profiles.

All quantities are computed in exact integer or rational arithmetic;
floating point appears only in the final logarithms (entropy, image
rendering).

Dilation factor.  For a curve visiting cells c_0 .. c_{N-1}, the
dilation factor is

    sigma = max over i < j of  |c_i - c_j|^2 / (j - i)

with squared Euclidean distance between cell centers.  Written this
way (grid distance over index distance) the value is independent of
the grid side.  The scan runs over index gaps in ascending order and
stops once no remaining gap can beat the current best, because the
squared grid distance is bounded by 2*(side-1)^2.

Difference maps.  The difference map assigns to every cell the mean
absolute label difference with its existing king neighbors.  Border
cells have 5 neighbors, corner cells 3.  Two divisor conventions are
supported: dividing by the actual neighbor count, or dividing by 8
regardless (missing neighbors contribute nothing).  The divisor-8
convention on the side-256 grid reproduces the published tables'
maxima, interior minima and medians exactly; no convention reproduces
their mean column, so divisor-8 at side 256 is the documented default
rather than a scan result (see scripts/resolve_convention.py).

A locality barrier is the set of cells whose value exceeds the map
mean by more than one population standard deviation.  The boundary
profile walks the two cell columns adjacent to the vertical center
line from the top row down, averaging the pair in each row; the upper
half is the quadrant 2 to 3 crossing, the lower half the 4 to 1
crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CurvePath, KernelSpec

DIVISOR_CONVENTIONS = ("divisor8", "neighbors")

#: Closest convention to the published statistics tables; locked by
#: scripts/resolve_convention.py.
DEFAULT_CONVENTION = "divisor8"

#: Grid side behind the published tables' extreme values, per the scan.
REFERENCE_SIDE = 256


def reference_order(kernel: KernelSpec) -> int:
    """Order at which a kernel's curve reaches the reference grid side."""
    n = 1
    side = kernel.side
    while side < REFERENCE_SIDE:
        side *= 2
        n += 1
    return n


# exclusive bound of int64, for barrier_mask's choice of arithmetic
_INT64_LIMIT = 2 ** 63

_NEIGHBOR_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)


def dilation_factor(p: CurvePath) -> Fraction:
    """Worst ratio of squared grid distance to index distance, exact."""
    xs = np.ascontiguousarray(p.cells[:, 0])
    ys = np.ascontiguousarray(p.cells[:, 1])
    n = len(xs)
    d2_cap = 2 * (p.side - 1) ** 2
    best = Fraction(0)
    for gap in range(1, n):
        # no pair at this gap or beyond can exceed d2_cap / gap
        if best > 0 and gap * best.numerator >= d2_cap * best.denominator:
            break
        dx = xs[gap:] - xs[:-gap]
        dy = ys[gap:] - ys[:-gap]
        m = int((dx * dx + dy * dy).max())
        cand = Fraction(m, gap)
        if cand > best:
            best = cand
    return best


@dataclass(frozen=True, eq=False)
class DifferenceMap:
    """Per-cell mean absolute label difference, stored exactly.

    ``numerators[x, y] / denominator`` is the value of cell (x, y).
    """

    side: int
    numerators: np.ndarray
    denominator: int
    convention: str
    order: int

    def value(self, x: int, y: int) -> Fraction:
        return Fraction(int(self.numerators[x, y]), self.denominator)


def difference_map(p: CurvePath, convention: str = DEFAULT_CONVENTION, order: int = 0) -> DifferenceMap:
    """Mean absolute label difference with existing king neighbors, per cell.

    ``order`` is carried through to exported records; pass the curve
    order if known.
    """
    if convention not in DIVISOR_CONVENTIONS:
        raise ValueError(f"convention must be one of {DIVISOR_CONVENTIONS}, got {convention!r}")
    labels = p.label_grid()
    side = p.side
    sums = np.zeros((side, side), dtype=np.int64)
    counts = np.zeros((side, side), dtype=np.int64)
    for dx, dy in _NEIGHBOR_OFFSETS:
        dst_x = slice(max(0, -dx), side - max(0, dx))
        dst_y = slice(max(0, -dy), side - max(0, dy))
        src_x = slice(max(0, dx), side - max(0, -dx))
        src_y = slice(max(0, dy), side - max(0, -dy))
        sums[dst_x, dst_y] += np.abs(labels[dst_x, dst_y] - labels[src_x, src_y])
        counts[dst_x, dst_y] += 1
    if convention == "divisor8":
        num, den = sums, 8
    else:
        num, den = sums * (120 // counts), 120  # 120 = lcm(3, 5, 8)
    return DifferenceMap(side, num, den, convention, order)


@dataclass(frozen=True)
class DiffStats:
    """Exact summary of a difference map."""

    mean: Fraction
    max: Fraction
    min: Fraction
    median: Fraction
    entropy_bits: float
    pct_below_mean: Fraction


def diff_stats(m: DifferenceMap) -> DiffStats:
    flat = m.numerators.ravel()
    n = len(flat)
    den = m.denominator
    total = int(flat.sum())
    mean = Fraction(total, den * n)
    ordered = np.sort(flat)
    if n % 2:
        median = Fraction(int(ordered[n // 2]), den)
    else:
        median = Fraction(int(ordered[n // 2 - 1]) + int(ordered[n // 2]), 2 * den)
    _, counts = np.unique(flat, return_counts=True)
    probs = counts / n
    entropy = float(-(probs * np.log2(probs)).sum())
    below = int((flat * n < total).sum())
    return DiffStats(
        mean=mean,
        max=Fraction(int(ordered[-1]), den),
        min=Fraction(int(ordered[0]), den),
        median=median,
        entropy_bits=entropy,
        pct_below_mean=Fraction(100 * below, n),
    )


@dataclass(frozen=True, eq=False)
class BarrierMask:
    """Cells more than one population standard deviation above the mean."""

    side: int
    flags: np.ndarray  # bool, [x, y]

    @property
    def flagged_fraction(self) -> Fraction:
        return Fraction(int(self.flags.sum()), self.flags.size)


def barrier_mask(m: DifferenceMap) -> BarrierMask:
    """Flag cells with value > mean + population standard deviation.

    The threshold involves a square root, so the comparison is done on
    integers: v > mu + s  iff  v > mu and (v - mu)^2 > variance, and
    with v = a/D, mu = A/(D*N) the denominators cancel, leaving
    a*N - A > isqrt(N * sum(a^2) - A^2).  The left side is an int64
    array whenever the map's largest magnitude keeps a*N, A and a^2
    below 2^63; larger maps take python ints.
    """
    flat = m.numerators.ravel()
    n = len(flat)
    top = max(int(flat.max()), -int(flat.min()))
    if top * top < _INT64_LIMIT and top * n < _INT64_LIMIT:
        a_sum = int(flat.sum())
        # int64 partial sums over chunks small enough to stay below 2^63,
        # added as python ints
        chunk = (_INT64_LIMIT - 1) // max(top * top, 1)
        sq_sum = sum(np.add.reduceat(flat * flat, np.arange(0, n, chunk)).tolist())
        t = flat * n - a_sum
    else:
        values = flat.tolist()
        a_sum = sum(values)
        sq_sum = sum(v * v for v in values)
        t = flat.astype(object) * n - a_sum
    root = math.isqrt(n * sq_sum - a_sum * a_sum)
    return BarrierMask(m.side, (t > root).reshape(m.numerators.shape))


def boundary_profile(m: DifferenceMap) -> list[Fraction]:
    """Per-row average of the two columns beside the vertical center line.

    Rows are listed from the top of the grid down, so the first half of
    the list runs along the quadrant 2 to 3 crossing and the second
    half along the 4 to 1 crossing.
    """
    c0, c1 = m.side // 2 - 1, m.side // 2
    out = []
    for row in range(m.side - 1, -1, -1):
        out.append(
            Fraction(int(m.numerators[c0, row]) + int(m.numerators[c1, row]), 2 * m.denominator)
        )
    return out


def boundary_run_fraction(mask: BarrierMask, boundary: str) -> Fraction:
    """Longest flagged run along one quadrant boundary, as a fraction.

    Boundaries are named by the traversal-order quadrants they join:
    "1-2" (left half of the horizontal center line), "3-4" (right
    half), "2-3" (upper half of the vertical center line), "4-1"
    (lower half).  A boundary position counts as flagged when either of
    the two cells that touch the line there is flagged.
    """
    side = mask.side
    half = side // 2
    lines = {
        "1-2": [(c, half - 1, c, half) for c in range(0, half)],
        "3-4": [(c, half - 1, c, half) for c in range(half, side)],
        "2-3": [(half - 1, r, half, r) for r in range(half, side)],
        "4-1": [(half - 1, r, half, r) for r in range(0, half)],
    }
    if boundary not in lines:
        raise ValueError(f"boundary must be one of {sorted(lines)}, got {boundary!r}")
    run = best = 0
    for x0, y0, x1, y1 in lines[boundary]:
        if mask.flags[x0, y0] or mask.flags[x1, y1]:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return Fraction(best, half)
