"""Locality analysis: dilation factor, difference maps, barriers, profiles.

All quantities are computed in exact integer or rational arithmetic;
floating point appears only in the final logarithms (entropy, image
rendering).

Dilation factor.  For a curve visiting cells c_0 .. c_{N-1}, the
dilation factor is

    sigma = max over i < j of  |c_i - c_j|^2 / (j - i)

with squared Euclidean distance between cell centers.  Written this
way (grid distance over index distance) the value is independent of
the grid side.  It is found by branch and bound over index blocks,
started from a realized pair: the best ratio b among the leftmost,
rightmost, lowest and highest cells of 16 equal index blocks, at most
64 cells.  On the bundled kernels' curves checked so far (every
variant up to 2^16 cells) this start is already sigma, so the search
only confirms it; a start that falls short only costs time.  Every gap
below G = 16 is then scanned exactly, a chunk of start cells at a
time, so the scan holds chunk-sized differences rather than
full-length ones.  N = side^2 is a power of 4, so at every level L the
blocks of 4^L consecutive cells tile the index range; a pyramid of
their x/y bounding boxes is built from the cells themselves, assuming
nothing about how the curve nests.  For blocks I <= J at level L,
every cell pair i in I, j in J is at most the largest squared distance
d2 between the two boxes apart, and its gap is at least
(J-I-1)*4^L + 1 (1 when I = J).  Gaps below G are already counted,
so the block pair cannot beat b when d2 <= b * max(smallest gap, G);
it is dropped, as is a pair whose largest gap is below G.  Survivors split into their 16
child pairs (10 when I = J) down to single cells, where the ratio is
exact and raises b.  Every prune and comparison is an integer
cross-multiplication.  Cells, boxes and their squared distances (below
2^25) are int32; each product of a distance and a gap is int64, exact
because core.MAX_CELLS keeps 2*(side-1)^2 * N below 2^49, so floats
only choose which candidate to try and never decide the result.

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


# dilation_factor scans every index gap below this exactly
_SEED_GAPS = 16
# cells squared at once, by barrier_mask and by the dilation seed scan
_CHUNK_PAIRS = 1 << 14
# block pairs expanded at once: with 16 children each, a round's int64
# child indices are 512 KiB, below the 1 MiB mmap threshold that
# ``import hhck`` sets, so they reuse heap pages instead of new mappings
_EXPAND_PAIRS = 1 << 12
# child offsets (a, b) of a block pair: block 4I+a against block 4J+b
_CHILD_I = np.repeat(np.arange(4), 4)
_CHILD_J = np.tile(np.arange(4), 4)

# half of the king offsets; each pair of neighbors is met once, from the
# cell at (x, y) to the one at (x + dx, y + dy)
_FORWARD_OFFSETS = ((1, -1), (1, 0), (1, 1), (0, 1))


def _raise_best(best: tuple[int, int], d2: np.ndarray, gap: np.ndarray) -> tuple[int, int]:
    """The largest of best and the ratios d2/gap, as a (num, den) pair.

    Only the cross-multiplied comparison decides: the float ratios pick
    which strictly better pair to adopt next, so each round raises best
    and the loop ends on the exact maximum.
    """
    bn, bd = best
    while True:
        better = d2 * bd > gap * bn
        if not better.any():
            return bn, bd
        d2, gap = d2[better], gap[better]
        k = int(np.argmax(d2 / gap))
        bn, bd = int(d2[k]), int(gap[k])


def _exact_sum(a: np.ndarray, top: int) -> int:
    """Sum of int64 entries of magnitude at most top: int64 partial sums over
    chunks small enough to stay below 2^63, added as python ints."""
    chunk = max(1, (2 ** 63 - 1) // max(top, 1))
    return sum(np.add.reduceat(a, np.arange(0, len(a), chunk)).tolist())


def _extreme_start(xs: np.ndarray, ys: np.ndarray) -> tuple[int, int]:
    """Best realized pair among the extreme cells of min(16, n) equal index blocks.

    Each block gives its leftmost, rightmost, lowest and highest cell, at
    most 64 candidates; every ordered pair of distinct candidates is a
    pair of the curve, so the (num, den) returned is a lower bound on
    sigma.  n is a power of 4, so the blocks tile the index range.
    """
    n = len(xs)
    b = min(16, n)
    size = n // b
    starts = np.arange(0, n, size)
    cand = np.concatenate([starts + pick(v.reshape(b, size), axis=1)
                           for v in (xs, ys) for pick in (np.argmin, np.argmax)])
    # i < j drops self-pairs and a cell that is extreme twice
    i, j = np.nonzero(cand[:, None] < cand)
    i, j = cand[i], cand[j]
    d2 = (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2
    return _raise_best((0, 1), d2.astype(np.int64), j - i)


def _fold4(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """op over each run of 4 consecutive entries of a."""
    return op(op(a[0::4], a[1::4]), op(a[2::4], a[3::4]))


def dilation_factor(p: CurvePath) -> Fraction:
    """Worst ratio of squared grid distance to index distance, exact."""
    n = len(p)
    if n < 2:
        return Fraction(0)
    # cells, boxes and d2 <= 2*(side-1)^2 < 2^25 stay int32 under
    # core.MAX_CELLS; each d2 is widened to int64 before it meets a gap
    # (below n <= 2^24), so every cross product, below 2^49, is exact
    xs, ys = p.cells[:, 0], p.cells[:, 1]

    # every gap below the seed width, scanned exactly a chunk of start
    # cells at a time: a window holds its chunk and the seed - 1 cells after
    seed = min(_SEED_GAPS, n)
    tops = np.zeros(seed - 1, dtype=np.int64)
    for k in range(0, n - 1, _CHUNK_PAIRS):
        wx, wy = xs[k:k + _CHUNK_PAIRS + seed - 1], ys[k:k + _CHUNK_PAIRS + seed - 1]
        for g in range(1, min(seed, len(wx))):
            m = min(_CHUNK_PAIRS, len(wx) - g)
            dx, dy = wx[g:g + m] - wx[:m], wy[g:g + m] - wy[:m]
            dx *= dx
            dy *= dy
            dx += dy
            tops[g - 1] = max(tops[g - 1], dx.max())
    best = _raise_best(_extreme_start(xs, ys), tops, np.arange(1, seed))

    # level L holds the x/y min/max boxes of the n / 4^L blocks of 4^L
    # consecutive cells; n is a power of 4, so the top level is one block
    boxes = [(xs, xs, ys, ys)]
    while len(boxes[-1][0]) > 1:
        x0, x1, y0, y1 = boxes[-1]
        boxes.append((_fold4(np.minimum, x0), _fold4(np.maximum, x1),
                      _fold4(np.minimum, y0), _fold4(np.maximum, y1)))

    # depth first over block pairs I <= J, a bounded chunk at a time
    top = np.zeros(1, dtype=np.int64)
    stack = [(len(boxes) - 1, top, top)]
    while stack:
        level, bi, bj = stack.pop()
        level -= 1
        ci = (4 * bi[:, None] + _CHILD_I).ravel()
        cj = (4 * bj[:, None] + _CHILD_J).ravel()
        keep = ci <= cj
        ci, cj = ci[keep], cj[keep]
        x0, x1, y0, y1 = boxes[level]
        # largest squared distance between a cell of block I and one of J
        dx = np.maximum(x1[cj] - x0[ci], x1[ci] - x0[cj])
        dy = np.maximum(y1[cj] - y0[ci], y1[ci] - y0[cj])
        d2 = (dx * dx + dy * dy).astype(np.int64)
        span = cj - ci
        if level == 0:
            best = _raise_best(best, d2, span)
            continue
        size = 4 ** level
        # gaps below the seed width are done, so only gaps of at least
        # max(smallest gap of the pair, seed) are left to bound
        low = np.maximum((span - 1) * size + 1, _SEED_GAPS)
        keep = (d2 * best[1] > low * best[0]) & ((span + 1) * size > _SEED_GAPS)
        ci, cj = ci[keep], cj[keep]
        for k in range(0, len(ci), _EXPAND_PAIRS):
            stack.append((level, ci[k:k + _EXPAND_PAIRS], cj[k:k + _EXPAND_PAIRS]))
    return Fraction(*best)


@dataclass(frozen=True, eq=False)
class DifferenceMap:
    """Per-cell mean absolute label difference: int32 numerators over one denominator.

    ``numerators[x, y] / denominator`` is the value of cell (x, y); the
    numerators are a square 2-D int32 grid, so the map's side is its
    array's.  The denominator names the convention: 8 for ``divisor8``,
    120 for ``neighbors``.
    """

    numerators: np.ndarray
    denominator: int
    order: int

    def __post_init__(self) -> None:
        num = self.numerators
        if getattr(num, "dtype", None) != np.int32 or num.ndim != 2 or len(num) != num.shape[1]:
            num = np.asarray(num)
            raise ValueError(f"numerators must be a square 2-D int32 grid, got {num.dtype} {num.shape}")

    @property
    def side(self) -> int:
        return len(self.numerators)


def difference_map(p: CurvePath, convention: str = DEFAULT_CONVENTION, order: int = 0) -> DifferenceMap:
    """Mean absolute label difference with existing king neighbors, per cell.

    Numerators are int32 for both conventions: a cell sums 8, 5 or 3
    differences below N = len(p) and ``neighbors`` weighs the sums by 15,
    24 or 40, so each is at most 120 * (N - 1), below 2^31 within core.MAX_CELLS.
    ``order`` is only stored on the map: nothing in the library reads it
    back, and ``io.stats_record`` takes the order and the convention from
    its own arguments.
    """
    if convention not in DIVISOR_CONVENTIONS:
        raise ValueError(f"convention must be one of {DIVISOR_CONVENTIONS}, got {convention!r}")
    side = p.side
    labels = p.label_grid()
    sums = np.zeros((side, side), dtype=np.int32)
    for dx, dy in _FORWARD_OFFSETS:
        here = slice(0, side - dx), slice(max(0, -dy), side - max(0, dy))
        there = slice(dx, side), slice(max(0, dy), side - max(0, -dy))
        diff = labels[here] - labels[there]
        np.abs(diff, out=diff)
        sums[here] += diff
        sums[there] += diff
        del diff  # else the next offset's diff is made while this one is held
    if convention == "divisor8":
        return DifferenceMap(sums, 8, order)
    # 120 = lcm(3, 5, 8): 3 neighbors at a corner, 5 on the rest of the border, 8 inside
    sums[1:-1, 1:-1] *= 15
    sums[[0, -1], 1:-1] *= 24
    sums[1:-1, [0, -1]] *= 24
    sums[np.ix_([0, -1], [0, -1])] *= 40
    return DifferenceMap(sums, 120, order)


@dataclass(frozen=True)
class DiffStats:
    """Exact summary of a difference map.

    ``interior_min`` skips the border, as the published tables' min
    column does; it is None below side 3, where there is no interior.
    """

    mean: Fraction
    max: Fraction
    min: Fraction
    median: Fraction
    entropy_bits: float
    pct_below_mean: Fraction
    interior_min: Fraction | None


def diff_stats(m: DifferenceMap) -> DiffStats:
    """Exact statistics of a map: its int32 numerators sum exactly in int64 (N < 2^32)."""
    flat = m.numerators.ravel()
    n = len(flat)
    den = m.denominator
    # the one sort: every statistic reads the distinct values and their counts
    values, counts = np.unique(flat, return_counts=True)
    total = int(flat.sum(dtype=np.int64))
    # the middle two order statistics (the same one when n is odd)
    lo, hi = values[np.searchsorted(counts.cumsum(), [(n - 1) // 2, n // 2], side="right")]
    probs = counts / n
    # adding 0.0 turns the -0.0 of a constant map into 0.0
    entropy = float(-(probs * np.log2(probs)).sum()) + 0.0
    # an integer is below the mean total/n iff it is below its ceiling
    below = int(counts[values < -(-total // n)].sum())
    interior = m.numerators[1:-1, 1:-1]
    return DiffStats(
        mean=Fraction(total, den * n),
        max=Fraction(int(values[-1]), den),
        min=Fraction(int(values[0]), den),
        median=Fraction(int(lo) + int(hi), 2 * den),
        entropy_bits=entropy,
        pct_below_mean=Fraction(100 * below, n),
        interior_min=Fraction(int(interior.min()), den) if interior.size else None,
    )


def barrier_mask(m: DifferenceMap) -> np.ndarray:
    """The bool [x, y] grid of the map's shape: value > mean + population standard deviation.

    The threshold involves a square root, so the comparison is done on
    integers: v > mu + s  iff  v > mu and (v - mu)^2 > variance, and
    with v = a/D, mu = A/(D*N) the denominators cancel, leaving
    a*N - A > root = isqrt(N * sum(a^2) - A^2), which for an integer a
    is a > (A + root) // N: the cells meet one python int.  The int32 a
    are squared in int64 (below 2^62) one chunk of cells at a time.
    """
    flat = m.numerators.ravel()
    n = len(flat)
    top = max(int(flat.max()), -int(flat.min()))
    a_sum = int(flat.sum(dtype=np.int64))
    chunks = (flat[k:k + _CHUNK_PAIRS].astype(np.int64) for k in range(0, n, _CHUNK_PAIRS))
    sq_sum = sum(_exact_sum(c * c, top * top) for c in chunks)
    root = math.isqrt(n * sq_sum - a_sum * a_sum)
    return m.numerators > (a_sum + root) // n


def boundary_profile(m: DifferenceMap) -> list[Fraction]:
    """Per-row average of the two columns beside the vertical center line.

    Rows are listed from the top of the grid down, so the first half of
    the list runs along the quadrant 2 to 3 crossing and the second
    half along the 4 to 1 crossing.  The grid side must be at least 2.
    """
    if m.side < 2:
        raise ValueError(f"boundary profile needs side >= 2, got {m.side}")
    half = m.side // 2
    left = m.numerators[half - 1, ::-1].tolist()
    right = m.numerators[half, ::-1].tolist()
    return [Fraction(a + b, 2 * m.denominator) for a, b in zip(left, right)]


# seam name -> (axis of the two flag lines beside it, whether it runs
# along the upper half of that axis)
_SEAMS = {"1-2": (1, False), "3-4": (1, True), "2-3": (0, True), "4-1": (0, False)}


def boundary_run_fraction(mask: np.ndarray, boundary: str) -> Fraction:
    """Longest flagged run along one quadrant boundary of a bool [x, y] grid, as a fraction.

    Boundaries are named by the traversal-order quadrants they join:
    "1-2" (left half of the horizontal center line), "3-4" (right
    half), "2-3" (upper half of the vertical center line), "4-1"
    (lower half).  A boundary position counts as flagged when either of
    the two cells that touch the line there is flagged.  The grid side,
    len(mask), must be at least 2.
    """
    if boundary not in _SEAMS:
        raise ValueError(f"boundary must be one of {sorted(_SEAMS)}, got {boundary!r}")
    side = len(mask)
    if side < 2:
        raise ValueError(f"boundary runs need side >= 2, got {side}")
    axis, upper = _SEAMS[boundary]
    half = side // 2
    line = np.take(mask, [half - 1, half], axis=axis).any(axis=axis)
    line = line[half:] if upper else line[:half]
    # runs start and end where the line, padded with False, changes
    edges = np.flatnonzero(np.diff(np.concatenate(([False], line, [False]))))
    return Fraction(int((edges[1::2] - edges[0::2]).max(initial=0)), half)
