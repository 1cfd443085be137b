"""Affine-recursion generator for the twelve homogeneous curve variants.

A variant nu in 0..11 is a set of four affine maps.  One growth round
applies each map to the whole previous-order curve, producing four
quadrant images on the doubled grid, concatenated in traversal order
lower-left, upper-left, upper-right, lower-right.  Variants:

    0  Hilbert          6..11  reversal-based variants: their growth
    1  Moore                   round acts on the order n-1 curve of
    2..5  Liu 1..4             variant 5 instead of variant 0, and some
                               maps traverse their quadrant image
                               backwards.

Each map is [U, t] with U one of the eight signed permutation matrices
(the symmetries of the square) and t one of six translation vectors.
On integer cell coordinates of a side-s input, a matrix row that picks
a source coordinate c with sign +1 sends it to c + s*t_row, and with
sign -1 to s*t_row - 1 - c.  This is the unique integer form of
"transform, add t, halve" that keeps cell centers on cell centers; it
also folds the translations (2,1) and (1,2) back inside the doubled
grid.

Variants 6..11 coincide with variant 5 at order 2 by construction, so
their own maps first act at order 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    CurvePath,
    DiscontinuousJunction,
    GridPoint,
    KernelSpec,
    QuadrantEscape,
    _grown_path,
)

Mat2 = tuple[tuple[int, int], tuple[int, int]]

U_MATRICES: dict[str, Mat2] = {
    "I": ((1, 0), (0, 1)),   # identity
    "R": ((0, 1), (1, 0)),   # transpose
    "V": ((0, -1), (1, 0)),  # quarter turn counterclockwise
    "H": ((1, 0), (0, -1)),  # flip vertically (negate y)
}

T_VECTORS: tuple[GridPoint, ...] = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2))


@dataclass(frozen=True)
class AffineMap:
    """One quadrant map [U, t], optionally traversed backwards."""

    u: Mat2
    t: GridPoint
    reversed: bool = False

    def __post_init__(self) -> None:
        if len(self.u) != 2 or any(sorted(map(abs, row)) != [0, 1] for row in self.u):
            raise ValueError(f"u rows must each have one entry of +-1, got {self.u}")
        if self.t not in T_VECTORS:
            raise ValueError(f"t must be one of {T_VECTORS}, got {self.t}")

    def cell_transform(self, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized form: out[:, k] = sign[k] * cells[:, src[k]] + offset[k]."""
        src = np.empty(2, dtype=np.int64)
        sign = np.empty(2, dtype=np.int64)
        offset = np.empty(2, dtype=np.int64)
        for axis, row in enumerate(self.u):
            j = 0 if row[0] != 0 else 1
            src[axis] = j
            sign[axis] = row[j]
            offset[axis] = side * self.t[axis] if row[j] > 0 else side * self.t[axis] - 1
        return src, sign, offset

    def quadrant(self, side: int) -> tuple[int, int]:
        """(qx, qy): a side x side input maps onto the box with low corner side * (qx, qy)."""
        src, sign, offset = self.cell_transform(side)
        lo = np.minimum(offset, sign * (side - 1) + offset)
        return (int(lo[0]) // side, int(lo[1]) // side)


def _mk(sign: int, letter: str, t_index: int, rev: bool = False) -> AffineMap:
    u = tuple(tuple(sign * e for e in row) for row in U_MATRICES[letter])
    return AffineMap(u, T_VECTORS[t_index], rev)


@dataclass(frozen=True)
class RuleSet:
    """The four quadrant maps of one variant and the variant it grows from."""

    nu: int
    maps: tuple[AffineMap, AffineMap, AffineMap, AffineMap]
    base: int  # variant supplying the order n-1 curve: 0 for nu<=5, else 5


RULE_SETS: tuple[RuleSet, ...] = (
    # proper variants, grown from variant 0
    RuleSet(0, (_mk(+1, "R", 0), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "R", 4)), 0),
    RuleSet(1, (_mk(+1, "V", 2), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(-1, "V", 3)), 0),
    RuleSet(2, (_mk(-1, "I", 3), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "I", 4)), 0),
    RuleSet(3, (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(+1, "H", 3)), 0),
    RuleSet(4, (_mk(+1, "R", 0), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "I", 4)), 0),
    RuleSet(5, (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(-1, "V", 3)), 0),
    # reversal-based variants, grown from variant 5
    RuleSet(6, (_mk(-1, "I", 3), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(+1, "H", 3, True)), 5),
    RuleSet(7, (_mk(-1, "I", 3), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(-1, "R", 4)), 5),
    RuleSet(8, (_mk(-1, "V", 1, True), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(-1, "R", 4)), 5),
    RuleSet(9, (_mk(-1, "R", 3, True), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "V", 3)), 5),
    RuleSet(10, (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "I", 4, True)), 5),
    RuleSet(11, (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "V", 3)), 5),
)

N_VARIANTS = len(RULE_SETS)

#: (qx, qy) of the quadrant each map's image fills, in traversal order:
#: lower-left, upper-left, upper-right, lower-right.
TRAVERSAL_QUADRANTS: tuple[GridPoint, ...] = ((0, 0), (0, 1), (1, 1), (1, 0))


def apply_affine(q: AffineMap, p: CurvePath) -> np.ndarray:
    """Cells of a whole path's image under one quadrant map, in traversal order.

    The (n, 2) array lies on the doubled grid and fills only the map's
    quadrant, so it is not a CurvePath.
    """
    src, sign, offset = q.cell_transform(p.side)
    # column by column into C order: p.cells[:, src] would be Fortran
    # order and cost a transposing copy later
    out = np.empty_like(p.cells)
    for axis in range(2):
        col = p.cells[:, src[axis]]
        if sign[axis] > 0:
            np.add(col, offset[axis], out=out[:, axis])
        else:
            np.subtract(offset[axis], col, out=out[:, axis])
    return out[::-1] if q.reversed else out


def grow_once(nu: int, p: CurvePath) -> CurvePath:
    """One growth round: concatenate the four quadrant images.

    The result needs no cell-by-cell check.  Each map is an isometry of
    the side x side grid, so image i is a bijection onto the box
    q.quadrant(side), checked to be traversal quadrant i; the four
    traversal quadrants tile the doubled grid; isometries and reversal
    keep king adjacency; and the checked junctions join the images.
    """
    if not 0 <= nu < N_VARIANTS:
        raise ValueError(f"nu must be 0..{N_VARIANTS - 1}, got {nu}")
    rule = RULE_SETS[nu]
    side = p.side
    images = []
    for i, (q, quad) in enumerate(zip(rule.maps, TRAVERSAL_QUADRANTS)):
        if q.quadrant(side) != quad:
            raise QuadrantEscape(f"variant {nu}: image {i + 1} of {q} escapes"
                                 f" traversal quadrant {quad}")
        images.append(apply_affine(q, p))
    for i in range(3):
        tail, head = images[i][-1], images[i + 1][0]
        if int(np.abs(tail - head).max()) > 1:
            raise DiscontinuousJunction(
                f"variant {nu}: junction {i + 1} jumps from {(int(tail[0]), int(tail[1]))}"
                f" to {(int(head[0]), int(head[1]))}"
            )
    return _grown_path(2 * side, np.concatenate(images))


def build_curve(nu: int, n: int, kernel: KernelSpec) -> CurvePath:
    """The order-n curve of variant nu grown from a kernel.

    Order 1 is the kernel itself.  Variants 0..5 grow from the variant-0
    curve of order n-1; variants 6..11 grow from the variant-5 curve of
    order n-1 and coincide with variant 5 at order 2.  The result side
    is kernel.side * 2**(n-1).

    Only those bases are cached (``cache_info``, ``cache_clear``), under 2/3
    of the largest result's cells per kernel; results are not kept.
    """
    if not 0 <= nu < N_VARIANTS:
        raise ValueError(f"nu must be 0..{N_VARIANTS - 1}, got {nu}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return kernel.path
    rule = RULE_SETS[nu]
    if rule.base == 5 and n == 2:
        return build_curve(5, 2, kernel)
    return grow_once(nu, _base_curve(rule.base, n - 1, kernel))


# calls build_curve by its global name, so a rebinding of it sees every round
_base_curve = lru_cache(maxsize=256)(lambda nu, n, kernel: build_curve(nu, n, kernel))
build_curve.cache_info, build_curve.cache_clear = _base_curve.cache_info, _base_curve.cache_clear
