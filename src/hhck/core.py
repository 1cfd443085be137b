"""Grid paths and stroke strings for space-filling curve construction.

A curve of order m on a grid of side s visits every one of the s*s
cells exactly once, moving between king-adjacent cells (the eight
surrounding cells).  Moves are written with an eight-letter stroke
alphabet:

    u = (0, +1)    r = (+1, 0)    d = (0, -1)    l = (-1, 0)
    a = (+1, +1)   b = (+1, -1)   g = (-1, -1)   t = (-1, +1)

The letters a, b, g, t are the diagonal strokes alpha, beta, gamma and
theta.  Note that a and t both point upward: a leans right, t leans
left.  Coordinates are mathematical: x grows to the right, y grows
upward, and cell (0, 0) is the lower-left corner of the grid.

A kernel is a seed curve that enters the grid at the lower-left corner
cell and exits at the lower-right corner cell, which ``KernelSpec``
checks once, when a kernel is made.  Higher-order curves are
grown from a kernel by the generators in ``hhck.affine`` and
``hhck.tags``; corner entry and exit is what guarantees that the four
quadrant copies of a grown curve meet each other.  For a side-s curve
from (0, 0) to (s-1, 0), the Hilbert round (variant 0) joins its
copies at (0, s-1) -> (0, s), (s-1, s) -> (s, s) and
(2s-1, s) -> (2s-1, s-1), all king steps, and the grown curve again
runs from (0, 0) to (2s-1, 0); so by induction no order of it breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GridPoint = tuple[int, int]

STROKES = "urdlabgt"

STROKE_VECTORS: dict[str, GridPoint] = {
    "u": (0, 1),
    "r": (1, 0),
    "d": (0, -1),
    "l": (-1, 0),
    "a": (1, 1),
    "b": (1, -1),
    "g": (-1, -1),
    "t": (-1, 1),
}

class CurveError(ValueError):
    """Base class for path and kernel failures."""


class NotSpaceFilling(CurveError):
    """The cell sequence does not cover its grid bijectively, or its grid is past MAX_CELLS."""


class OutOfBounds(NotSpaceFilling):
    """A cell lies outside the grid."""


class RevisitedCell(NotSpaceFilling):
    """A cell appears more than once."""


class NonAdjacentStep(NotSpaceFilling):
    """Two consecutive cells are not king-adjacent."""


class BadEntryExit(CurveError):
    """Kernel entry or exit is not at the required corner."""


class DiscontinuousJunction(CurveError):
    """Adjacent quadrant images of a grown curve do not meet."""


class KernelFormatError(CurveError):
    """Kernel file text is malformed."""


#: Most cells any curve may have (check_budget): side 4096, 128 MiB of int32 cells.
#: Far below 2**31, so every cell, label, flat index x*side + y and walk sum fits int32.
MAX_CELLS = 1 << 24
_BAND = 1 << 16  # cells per scatter of CurvePath.label_grid


def check_budget(cells: int, order: int = 1) -> None:
    """Refuse, before it is grown, a curve of cells * 4**(order-1) cells past MAX_CELLS."""
    # 4**k exceeds MAX_CELLS once k reaches its bit length, so the clamp
    # keeps the check exact without forming a huge integer
    if cells * 4 ** min(order - 1, MAX_CELLS.bit_length()) > MAX_CELLS:
        what = f"order {order} of a {cells}-cell kernel" if order > 1 else f"a {cells}-cell curve"
        raise NotSpaceFilling(f"{what} exceeds the budget of {MAX_CELLS} cells")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_side(side) -> None:
    if not isinstance(side, int) or not _is_power_of_two(side):
        raise NotSpaceFilling(f"grid side must be a power of two, got {side!r}")


def _pt(row) -> tuple:
    return (int(row[0]), int(row[1]))


def _flat_index(cells: np.ndarray, side: int) -> np.ndarray:
    """x*side + y of each in-grid int32 cell, on one temporary."""
    flat = cells[:, 0] * side
    flat += cells[:, 1]
    return flat


def _raise_first_fault(side: int, cells: np.ndarray) -> None:
    """Raise the earliest fault (see CurvePath) of cells that failed its check.

    Revisits are sought only before the first cell outside the grid, by
    a sort that multiplies nothing, so huge values cannot overflow.
    """
    x, y = cells[:, 0], cells[:, 1]
    out = (x < 0) | (x >= side) | (y < 0) | (y >= side)
    stop = int(np.argmax(out)) if out.any() else len(cells)
    order = np.lexsort((y[:stop], x[:stop]))
    xs, ys = x[order], y[order]
    # the sort is stable, so the later step of each equal pair is a revisit
    repeats = order[1:][(xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])]
    if len(repeats):
        step = int(repeats.min())
        raise RevisitedCell(f"cell {_pt(cells[step])} revisited at step {step}")
    if stop < len(cells):
        raise OutOfBounds(f"cell {_pt(cells[stop])} at step {stop} leaves the {side}x{side} grid")
    if len(cells) != side * side:
        raise NotSpaceFilling(f"expected {side * side} cells for side {side}, got {len(cells)}")
    bad = int(np.argmax((np.abs(np.diff(x)) > 1) | (np.abs(np.diff(y)) > 1)))
    raise NonAdjacentStep(
        f"step {bad} -> {bad + 1} jumps from {_pt(cells[bad])} to {_pt(cells[bad + 1])}"
    )


def _exact_int64(side: int, cells: np.ndarray) -> np.ndarray:
    """(n, 2) cells of another dtype as int64, refusing what a cast would truncate or wrap."""
    if cells.dtype.kind not in "iu":
        cells = cells.astype(object)
        for i, v in enumerate(cells.flat):
            if not isinstance(v, (int, np.integer)):
                raise NotSpaceFilling(f"cell value {v!r} at step {i // 2} is not an int")
    past = np.argwhere((cells < -2 ** 63) | (cells >= 2 ** 63))
    if len(past):
        step = int(past[0, 0])
        raise OutOfBounds(f"cell {_pt(cells[step])} at step {step} leaves the {side}x{side} grid")
    return cells.astype(np.int64)


@dataclass(frozen=True, eq=False)
class CurvePath:
    """An ordered, space-filling, king-connected visit of a square grid.

    ``cells`` has shape (side*side, 2); row i is the (x, y) cell holding
    curve label i.  The array is validated and frozen at construction,
    and is always C-contiguous int32.
    This is the one check of a cell sequence.  A sequence that fails it
    raises its earliest fault in step order: the first cell that leaves
    the grid (OutOfBounds) or revisits a cell (RevisitedCell), else a
    wrong cell count (NotSpaceFilling), else the first step that is not
    a king step (NonAdjacentStep).  Before those, a cell that is not an
    integer is refused.  Cells of another integer type are checked
    exactly in int64 (a value int64 cannot hold is OutOfBounds) and
    narrowed once every value is known to lie in [0, side): no value
    past int32 wraps.  Before any array is made, more than MAX_CELLS
    cells are refused.
    """

    side: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        side = self.side
        _check_side(side)
        cells = self.cells
        check_budget(len(cells))
        if not isinstance(cells, np.ndarray):
            # as objects, Python ints stay exact: inference would make 2**63 a float
            cells = np.array(cells, dtype=object)
        if cells.ndim != 2 or cells.shape[1] != 2:
            raise NotSpaceFilling("cells must be an (n, 2) array of grid points")
        if cells.dtype not in (np.int32, np.int64):
            cells = _exact_int64(side, cells)
        ok = len(cells) == side * side and cells.min() >= 0 and cells.max() < side
        if ok:
            # every value is in [0, side) and side*side <= MAX_CELLS, so the
            # narrowing is exact (and copies nothing for contiguous int32)
            cells = np.ascontiguousarray(cells, dtype=np.int32)
            # side*side cells in range: all marked iff none repeats
            seen = np.zeros(side * side, dtype=bool)
            seen[_flat_index(cells, side)] = True
            ok = bool(seen.all())
        if ok:
            # the raveled cells interleave x and y, so entries two apart
            # differ by one step's dx or dy
            coords = cells.ravel()
            deltas = coords[2:] - coords[:-2]
            ok = not len(deltas) or (int(deltas.max()) <= 1 and int(deltas.min()) >= -1)
        if not ok:
            _raise_first_fault(side, cells)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvePath):
            return NotImplemented
        return self.side == other.side and bool(np.array_equal(self.cells, other.cells))

    def __hash__(self) -> int:
        # stored, as label_grid is: the cache keys of a kernel hash it on every lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.side, self.cells.tobytes()))
            object.__setattr__(self, "_hash", h)
        return h

    def point(self, i: int) -> GridPoint:
        return (int(self.cells[i, 0]), int(self.cells[i, 1]))

    def label_grid(self) -> np.ndarray:
        """Return grid[x, y] = curve label of cell (x, y)."""
        grid = self.__dict__.get("_label_grid")
        if grid is None:
            side = self.side
            # flat scatters (a 2-D one converts both index columns to intp),
            # a band of cells at a time so only the grid is full-size
            grid = np.empty(side * side, dtype=np.int32)
            for start in range(0, len(self.cells), _BAND):
                band = self.cells[start:start + _BAND]
                grid[_flat_index(band, side)] = np.arange(start, start + len(band), dtype=np.int32)
            grid = grid.reshape(side, side)
            grid.flags.writeable = False
            object.__setattr__(self, "_label_grid", grid)
        return grid


def _grown_path(side: int, cells: np.ndarray) -> CurvePath:
    """A CurvePath its construction proved valid (affine.grow_once, tags.generate): no check."""
    p = object.__new__(CurvePath)
    cells = np.ascontiguousarray(cells)
    cells.flags.writeable = False
    object.__setattr__(p, "side", side)
    object.__setattr__(p, "cells", cells)
    return p


# bytes.translate tables, x then y: the signed-byte step of each stroke
# letter at its ASCII code, and step 0 at every other byte
_AXIS_STEPS = tuple(
    bytes(STROKE_VECTORS.get(chr(code), (0, 0))[axis] & 0xFF for code in range(256))
    for axis in (0, 1)
)
# stroke letter (ASCII code) of each king step, indexed by (dx + 1) * 3 + (dy + 1)
_STEP_LETTERS = np.zeros(9, dtype=np.uint8)
for _letter, (_dx, _dy) in STROKE_VECTORS.items():
    _STEP_LETTERS[(_dx + 1) * 3 + _dy + 1] = ord(_letter)


def _walk(strokes: str) -> np.ndarray:
    """Cumulative int32 positions of an ASCII stroke string walked from (0, 0), which is row 0.

    ``bytes.translate`` maps the strokes of each axis through a
    256-byte table to their -1/0/+1 steps, read in place as int8; the
    steps are summed with an int32 accumulator straight into that axis's
    column, because an int8 or int16 sum wraps after 128 or 32,768
    strokes one way.  One axis at a time is much faster in numpy than the
    same work along the short axis of an (n, 2) array.  The caller keeps
    every sum below 2**31 by walking at most MAX_CELLS strokes.
    """
    pos = np.empty((len(strokes) + 1, 2), dtype=np.int32)
    pos[0] = 0
    raw = strokes.encode("ascii")
    for axis, table in enumerate(_AXIS_STEPS):
        np.cumsum(np.frombuffer(raw.translate(table), dtype=np.int8), dtype=np.int32, out=pos[1:, axis])
    return pos


def strokes_to_path(strokes: str, side: int) -> CurvePath:
    """Walk a stroke string from (0, 0) as a space-filling path on a side x side grid.

    A letter outside STROKES is a KernelFormatError.  CurvePath checks
    the walk.  Before it is made, a side that is not a power of two,
    more than MAX_CELLS cells or a grid past MAX_CELLS (which no curve
    within the budget fills) raise NotSpaceFilling; so every walk fits
    int32.
    """
    bad = set(strokes) - set(STROKES)
    if bad:
        raise KernelFormatError(f"unknown stroke letters {sorted(bad)}")
    _check_side(side)
    check_budget(len(strokes) + 1)
    check_budget(side * side)
    return CurvePath(side, _walk(strokes))


def path_to_strokes(p: CurvePath) -> str:
    """The stroke letter of each step of a path; walked from its entry, the strokes give it back."""
    code = np.diff(p.cells[:, 0]) * 3 + np.diff(p.cells[:, 1]) + 4
    return _STEP_LETTERS[code].tobytes().decode("ascii")


@dataclass(frozen=True)
class KernelSpec:
    """A seed curve, checked once here and trusted by both engines.

    The path fills a power-of-two grid of side >= 2 with king moves
    (cells that are not a CurvePath are made one), enters at (0, 0) and
    exits at (side - 1, 0), else BadEntryExit.  No growth round is tried:
    corner entry and exit alone make the quadrant copies meet (see the
    module docstring).
    """

    name: str
    path: CurvePath

    def __post_init__(self) -> None:
        p = self.path
        if not isinstance(p, CurvePath):
            p = CurvePath(math.isqrt(len(p)), p)
            object.__setattr__(self, "path", p)
        if p.side < 2:
            raise BadEntryExit("side-1 kernel rejected: entry and exit would coincide")
        if p.point(0) != (0, 0):
            raise BadEntryExit(f"kernel must enter at (0, 0), got {p.point(0)}")
        if p.point(-1) != (p.side - 1, 0):
            raise BadEntryExit(f"kernel must exit at ({p.side - 1}, 0), got {p.point(-1)}")

    @property
    def side(self) -> int:
        return self.path.side

    @cached_property
    def strokes(self) -> str:
        return path_to_strokes(self.path)


def _ascii_int(token: str, what: str) -> int:
    """A kernel-file number: int() also takes '²', '١', signs and '_', and fails past 4300 digits."""
    digits = token.lstrip("0") or "0"
    if not (token.isascii() and token.isdigit()) or len(digits) > 8:  # 10**8 > any in-budget value
        raise KernelFormatError(f"{what} must be ASCII digits below 10**8, got {token[:12]!r}")
    return int(digits)


def parse_kernel_text(text: str, name: str = "kernel") -> KernelSpec:
    """Parse the three-line kernel format.

        side 4
        origin 0 0
        strokes urdrablt...

    Blank lines and lines starting with ``#`` are ignored, which leaves
    room for a provenance note in bundled files.  Diagonal strokes use
    the ASCII names a, b, g, t.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != 3:
        raise KernelFormatError(f"expected 3 content lines (side, origin, strokes), got {len(lines)}")
    fields: dict[str, list[str]] = {}
    for ln, expected in zip(lines, ("side", "origin", "strokes")):
        parts = ln.split()
        if not parts or parts[0] != expected:
            raise KernelFormatError(f"expected a '{expected}' line, got {ln!r}")
        fields[expected] = parts[1:]
    side = _ascii_int(" ".join(fields["side"]), "side")
    if not _is_power_of_two(side):
        raise KernelFormatError(f"side must be a power of two, got {side}")
    if side * side > MAX_CELLS:
        raise KernelFormatError(f"side {side} exceeds the budget of {MAX_CELLS} cells")
    if len(fields["origin"]) != 2:
        raise KernelFormatError("origin must be two integers")
    if [_ascii_int(token, "origin") for token in fields["origin"]] != [0, 0]:
        raise KernelFormatError("origin must be 0 0: a kernel enters at its lower-left cell")
    if len(fields["strokes"]) != 1:
        raise KernelFormatError("strokes must be a single token")
    return KernelSpec(name, strokes_to_path(fields["strokes"][0], side))


def format_kernel_text(spec: KernelSpec) -> str:
    """Canonical three-line text for a kernel (no comments)."""
    return f"side {spec.side}\norigin 0 0\nstrokes {spec.strokes}\n"
