"""Affine-recursion generator for the twelve homogeneous curve variants.

A variant nu in 0..11 is its four affine maps ``RULE_SETS[nu]``.  One
growth round applies each map to the whole previous-order curve,
producing four quadrant images on the doubled grid, in traversal order
lower-left, upper-left, upper-right, lower-right.  Variants:

    0  Hilbert          6..11  reversal-based variants: their growth
    1  Moore                   round acts on the order n-1 curve of
    2..5  Liu 1..4             variant 5 instead of variant 0, and some
                               maps traverse their quadrant image
                               backwards.

Each map is [U, t] with U one of the eight signed permutation matrices
(the symmetries of the square) and t one of six translation vectors.
``apply_affine`` is the one place [U, t] becomes integer arithmetic: on
the cells of a side-s input, a matrix row that picks a source
coordinate c with sign +1 sends it to c + s*t_row, and with sign -1 to
s*t_row - 1 - c.  This is the unique integer form of "transform, add
t, halve" that keeps cell centers on cell centers; it also folds the
translations (2,1) and (1,2) back inside the doubled grid.

Variants 6..11 coincide with variant 5 at order 2 by construction, so
their own maps first act at order 3.  ``build_curve`` writes that rule
and the base variant: 0 for nu < 6, else 5.
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
    _grown_path,
    check_budget,
)

Mat2 = tuple[tuple[int, int], tuple[int, int]]

U_MATRICES: dict[str, Mat2] = {
    "I": ((1, 0), (0, 1)),   # identity
    "R": ((0, 1), (1, 0)),   # transpose
    "V": ((0, -1), (1, 0)),  # quarter turn counterclockwise
    "H": ((1, 0), (0, -1)),  # flip vertically (negate y)
}

T_VECTORS: tuple[GridPoint, ...] = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2))

# the eight signed permutation matrices, sign * U by (sign, letter)
_SIGNED_U = {(sign, letter): tuple(tuple(sign * e for e in row) for row in u)
             for letter, u in U_MATRICES.items() for sign in (1, -1)}


@dataclass(frozen=True)
class AffineMap:
    """One quadrant map [U, t], optionally traversed backwards."""

    u: Mat2
    t: GridPoint
    reversed: bool = False

    def __post_init__(self) -> None:
        if self.u not in _SIGNED_U.values():
            raise ValueError(f"u must be a signed permutation matrix, got {self.u}")
        if self.t not in T_VECTORS:
            raise ValueError(f"t must be one of {T_VECTORS}, got {self.t}")


def _mk(sign: int, letter: str, t_index: int, rev: bool = False) -> AffineMap:
    return AffineMap(_SIGNED_U[sign, letter], T_VECTORS[t_index], rev)


RULE_SETS: tuple[tuple[AffineMap, AffineMap, AffineMap, AffineMap], ...] = (
    # proper variants, grown from variant 0
    (_mk(+1, "R", 0), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "R", 4)),  # 0
    (_mk(+1, "V", 2), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(-1, "V", 3)),  # 1
    (_mk(-1, "I", 3), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "I", 4)),  # 2
    (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(+1, "H", 3)),  # 3
    (_mk(+1, "R", 0), _mk(+1, "I", 1), _mk(+1, "I", 3), _mk(-1, "I", 4)),  # 4
    (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(-1, "V", 5), _mk(-1, "V", 3)),  # 5
    # reversal-based variants, grown from variant 5
    (_mk(-1, "I", 3), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(+1, "H", 3, True)),  # 6
    (_mk(-1, "I", 3), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(-1, "R", 4)),  # 7
    (_mk(-1, "V", 1, True), _mk(-1, "H", 3, True), _mk(+1, "I", 3), _mk(-1, "R", 4)),  # 8
    (_mk(-1, "R", 3, True), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "V", 3)),  # 9
    (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "I", 4, True)),  # 10
    (_mk(+1, "H", 1), _mk(+1, "V", 3), _mk(+1, "R", 3, True), _mk(-1, "V", 3)),  # 11
)

N_VARIANTS = len(RULE_SETS)


def apply_affine(q: AffineMap, p: CurvePath) -> np.ndarray:
    """Cells of a whole path's image under one quadrant map, in traversal order.

    The (n, 2) array lies on the doubled grid and fills only the map's
    quadrant, so it is not a CurvePath.
    """
    side = p.side
    # column by column into C order: gathering both columns at once
    # would give Fortran order and cost a transposing copy later
    out = np.empty_like(p.cells)
    for axis, (row, t) in enumerate(zip(q.u, q.t)):
        src = 0 if row[0] else 1
        if row[src] > 0:
            np.add(p.cells[:, src], side * t, out=out[:, axis])
        else:
            np.subtract(side * t - 1, p.cells[:, src], out=out[:, axis])
    return out[::-1] if q.reversed else out


def grow_once(nu: int, p: CurvePath) -> CurvePath:
    """One growth round: concatenate the four quadrant images.

    The result needs no cell-by-cell check.  Each map is an isometry
    onto a quadrant of the doubled grid that depends on [U, t] alone (a
    +1 row puts the image's low corner at side*t_row, a -1 row at
    side*(t_row - 1)), so image i fills traversal quadrant i by a
    property of the constant RULE_SETS, which the tests check.
    Isometries and reversal keep king adjacency, and the checked
    junctions, which depend on the input's entry and exit, join the
    images.  A result past core.MAX_CELLS is refused before any image.
    """
    if not 0 <= nu < N_VARIANTS:
        raise ValueError(f"nu must be 0..{N_VARIANTS - 1}, got {nu}")
    check_budget(len(p), 2)
    images = [apply_affine(q, p) for q in RULE_SETS[nu]]
    for i in range(3):
        tail, head = images[i][-1], images[i + 1][0]
        if int(np.abs(tail - head).max()) > 1:
            raise DiscontinuousJunction(
                f"variant {nu}: junction {i + 1} jumps from {(int(tail[0]), int(tail[1]))}"
                f" to {(int(head[0]), int(head[1]))}"
            )
    return _grown_path(2 * p.side, np.concatenate(images))


def build_curve(nu: int, n: int, kernel: KernelSpec) -> CurvePath:
    """The order-n curve of variant nu grown from a kernel.

    Order 1 is the kernel itself.  Variants 0..5 grow from the variant-0
    curve of order n-1; variants 6..11 grow from the variant-5 curve of
    order n-1 and coincide with variant 5 at order 2.  The result side
    is kernel.side * 2**(n-1); past core.MAX_CELLS cells it is refused
    before any round.

    Only those bases are cached (``cache_info``, ``cache_clear``), under 2/3
    of the largest result's cells per kernel; results are not kept.
    """
    if not 0 <= nu < N_VARIANTS:
        raise ValueError(f"nu must be 0..{N_VARIANTS - 1}, got {nu}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    check_budget(len(kernel.path), n)
    if n == 1:
        return kernel.path
    base = 0 if nu < 6 else 5
    if base == 5 and n == 2:
        return build_curve(5, 2, kernel)
    return grow_once(nu, _base_curve(base, n - 1, kernel))


# calls build_curve by its global name, so a rebinding of it sees every round
_base_curve = lru_cache(maxsize=256)(lambda nu, n, kernel: build_curve(nu, n, kernel))
build_curve.cache_info, build_curve.cache_clear = _base_curve.cache_info, _base_curve.cache_clear
