import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhck import core, tags
from hhck.affine import N_VARIANTS, build_curve, grow_once
from hhck.core import (
    BadEntryExit,
    CurveError,
    CurvePath,
    KernelFormatError,
    KernelSpec,
    MAX_CELLS,
    NonAdjacentStep,
    NotSpaceFilling,
    OutOfBounds,
    RevisitedCell,
    STROKES,
    STROKE_VECTORS,
    _walk,
    format_kernel_text,
    parse_kernel_text,
    path_to_strokes,
    strokes_to_path,
)
from hhck.kernels import BUILTIN_KERNELS, load_bundled

from oracles import brute_strokes, first_fault

UNIT_CELLS = [(0, 0), (0, 1), (1, 1), (1, 0)]

# 4x4 walks with one non-king step: columns 0 and 1, then a jump of
# dx = +2 from (1, 0) to (3, 0)
X_JUMP = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (1, 1), (1, 0),
          (3, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (3, 3)]
FIRST_JUMP = [(0, 0), (2, 0), (3, 0), (3, 1), (2, 1), (1, 0), (1, 1), (0, 1),
              (0, 2), (0, 3), (1, 3), (1, 2), (2, 2), (2, 3), (3, 3), (3, 2)]
# 4x4 sequence that revisits (3, 3) at step 3 and (0, 0) at step 12
TWO_REVISITS = [(0, 0), (0, 1), (3, 3), (3, 3), (1, 0), (1, 1), (1, 2), (1, 3),
                (2, 0), (2, 1), (2, 2), (2, 3), (0, 0), (3, 0), (3, 1), (3, 2)]


def small_curves():
    """Every affine curve of at most 1024 cells: (name, nu, n, path)."""
    for name in BUILTIN_KERNELS:
        k = load_bundled(name)
        for nu in range(N_VARIANTS):
            n = 1
            while (k.side << (n - 1)) ** 2 <= 1024:
                yield name, nu, n, build_curve(nu, n, k)
                n += 1


def raised_fault(make):
    """(class name, step) of the NotSpaceFilling that make() raises, or None."""
    try:
        make()
    except NotSpaceFilling as exc:
        step = re.search(r"step (\d+)", str(exc))
        return type(exc).__name__, int(step.group(1)) if step else None
    return None


def make_path(cells):
    side = 2
    while side * side < len(cells):
        side *= 2
    return CurvePath(side, np.array(cells, dtype=np.int64))


class TestStrokeAlphabet:
    def test_eight_letters(self):
        assert len(STROKES) == 8
        assert set(STROKES) == set(STROKE_VECTORS)

    def test_vectors(self):
        assert STROKE_VECTORS["u"] == (0, 1)
        assert STROKE_VECTORS["r"] == (1, 0)
        assert STROKE_VECTORS["d"] == (0, -1)
        assert STROKE_VECTORS["l"] == (-1, 0)
        assert STROKE_VECTORS["a"] == (1, 1)
        assert STROKE_VECTORS["b"] == (1, -1)
        assert STROKE_VECTORS["g"] == (-1, -1)
        # t is the left-up diagonal; a is the only right-up one
        assert STROKE_VECTORS["t"] == (-1, 1)


class TestStrokesToPath:
    def test_unit_shape(self):
        p = strokes_to_path("urd", 2)
        assert p.cells.tolist() == [list(c) for c in UNIT_CELLS]

    def test_too_short(self):
        with pytest.raises(NotSpaceFilling, match=r"^expected 4 cells for side 2, got 2$"):
            strokes_to_path("a", 2)

    def test_leaves_grid(self):
        # also too short: leaving the grid is named first
        with pytest.raises(OutOfBounds, match=r"^cell \(0, 2\) at step 2 leaves the 2x2 grid$"):
            strokes_to_path("uu", 2)

    def test_revisit(self):
        with pytest.raises(RevisitedCell):
            strokes_to_path("url", 2)

    @pytest.mark.parametrize("strokes,side,message", [
        ("u" * 16, 4, "^a 17-cell curve exceeds the budget of 16 cells$"),
        ("u", 8, "^a 64-cell curve exceeds the budget of 16 cells$"),
        ("u", 2 ** 40, f"^a {2 ** 80}-cell curve exceeds the budget of 16 cells$"),
    ], ids=["strokes", "grid", "grid-past-int32"])
    def test_budget_is_checked_before_the_walk(self, monkeypatch, strokes, side, message):
        monkeypatch.setattr(core, "MAX_CELLS", 16)
        monkeypatch.setattr(core, "_walk", None)
        with pytest.raises(NotSpaceFilling, match=message):
            strokes_to_path(strokes, side)

    def test_side_is_checked_first(self):
        for side in (3, "4", 2.0):
            with pytest.raises(NotSpaceFilling, match="^grid side must be a power of two"):
                strokes_to_path("urd", side)

    def test_bad_letter_rejected_at_construction(self, monkeypatch):
        monkeypatch.setattr(core, "_walk", None)
        for strokes, side in (("urz", 2), ("ur\u00e9", 2), ("urz", 3)):
            with pytest.raises(KernelFormatError, match=r"^unknown stroke letters \['.'\]$"):
                strokes_to_path(strokes, side)

    @given(st.sampled_from([2, 4, 8]), st.text(alphabet=STROKES, max_size=64))
    def test_names_the_reference_fault(self, side, strokes):
        pts = running_sum(strokes)
        assert raised_fault(lambda: strokes_to_path(strokes, side)) == first_fault(side, pts)


class TestPathToStrokes:
    def test_unit_inverse(self):
        assert path_to_strokes(make_path(UNIT_CELLS)) == "urd"

    def test_diagonal_steps_read_back(self):
        p = load_bundled("mouse").path
        s = path_to_strokes(p)
        assert strokes_to_path(s, p.side) == p


    @pytest.mark.parametrize("name", BUILTIN_KERNELS)
    def test_matches_reference_on_every_small_curve(self, name):
        for kname, nu, n, p in small_curves():
            if kname != name:
                continue
            for q in (p, reversed_path(p)):
                s = path_to_strokes(q)
                assert s == brute_strokes(q.cells.tolist()), (nu, n)
                # walked from its entry, the string is the path again
                assert (_walk(s) + q.cells[0] == q.cells).all(), (nu, n)


def running_sum(strokes):
    """The walk's cells from (0, 0), one Python-int step at a time."""
    want = [(0, 0)]
    for letter in strokes:
        dx, dy = STROKE_VECTORS[letter]
        want.append((want[-1][0] + dx, want[-1][1] + dy))
    return want


class TestWalk:
    @given(st.text(alphabet=STROKES, max_size=200))
    def test_running_sum(self, strokes):
        pos = _walk(strokes)
        assert pos.dtype == np.int32 and pos.flags.c_contiguous
        assert [tuple(c) for c in pos.tolist()] == running_sum(strokes)

    # one direction long past int8 and int16 sums; "l" goes negative as
    # the unpinned tag walk does
    @pytest.mark.parametrize("strokes", ["r" * 70000, "l" * 70000, "a" * 40000],
                             ids=["r70000", "l70000", "a40000"])
    def test_long_runs_sum_in_int32(self, strokes):
        pos = _walk(strokes)
        assert pos.dtype == np.int32
        assert [tuple(c) for c in pos.tolist()] == running_sum(strokes)

    def test_empty_string_is_the_origin(self):
        assert _walk("").tolist() == [[0, 0]]


def reversed_path(p):
    """The checked CurvePath of p traversed end to start."""
    return CurvePath(p.side, p.cells[::-1])


class TestReverse:
    def test_cells_reversed(self):
        p = reversed_path(make_path(UNIT_CELLS))
        assert p.cells.tolist() == [[1, 0], [1, 1], [0, 1], [0, 0]]

    def test_involution(self):
        p = make_path(UNIT_CELLS)
        assert reversed_path(reversed_path(p)) == p

    def test_stroke_view(self):
        p = reversed_path(make_path(UNIT_CELLS))
        assert path_to_strokes(p) == "uld"
        assert p.point(0) == (1, 0)

    def test_opposite_stroke_duality(self):
        # the reversed walk takes every step backwards, last step first
        for name in BUILTIN_KERNELS:
            p = load_bundled(name).path
            forward = path_to_strokes(p)
            backward = path_to_strokes(reversed_path(p))
            assert [STROKE_VECTORS[s] for s in backward] == \
                [(-dx, -dy) for dx, dy in map(STROKE_VECTORS.get, forward[::-1])]


class TestCurvePathValidation:
    def test_non_power_of_two_side(self):
        with pytest.raises(NotSpaceFilling):
            CurvePath(3, np.zeros((9, 2), dtype=np.int64))

    def test_wrong_cell_count(self):
        with pytest.raises(NotSpaceFilling):
            CurvePath(2, np.array([[0, 0], [0, 1]]))

    def test_out_of_bounds_cell(self):
        with pytest.raises(OutOfBounds):
            CurvePath(2, np.array([[0, 0], [0, 1], [1, 1], [2, 0]]))

    def test_revisited_cell(self):
        with pytest.raises(RevisitedCell):
            CurvePath(2, np.array([[0, 0], [0, 1], [1, 1], [0, 0]]))

    def test_revisit_reports_first_repeat(self):
        with pytest.raises(RevisitedCell, match=r"cell \(0, 1\) revisited at step 3"):
            CurvePath(2, np.array([[0, 0], [0, 1], [1, 1], [0, 1]]))

    def test_jump(self):
        with pytest.raises(NonAdjacentStep, match=r"^step 3 -> 4 jumps from \(3, 0\) to \(0, 2\)$"):
            CurvePath(4, np.array(
                [[x, y] for y in range(4) for x in (range(4) if y % 2 == 0 else range(3, -1, -1))]
            )[np.r_[0:4, 8:12, 4:8, 12:16]])

    @pytest.mark.parametrize("cells,error,message", [
        (X_JUMP, NonAdjacentStep, "step 7 -> 8 jumps from (1, 0) to (3, 0)"),
        ([(y, x) for x, y in X_JUMP], NonAdjacentStep, "step 7 -> 8 jumps from (0, 1) to (0, 3)"),
        (X_JUMP[::-1], NonAdjacentStep, "step 7 -> 8 jumps from (3, 0) to (1, 0)"),
        (FIRST_JUMP, NonAdjacentStep, "step 0 -> 1 jumps from (0, 0) to (2, 0)"),
        (FIRST_JUMP[::-1], NonAdjacentStep, "step 14 -> 15 jumps from (2, 0) to (0, 0)"),
        # the jump at step 7 comes first, but a revisit outranks it
        (X_JUMP[:-1] + [(2, 2)], RevisitedCell, "cell (2, 2) revisited at step 15"),
        # the first revisit in step order, not the least repeated cell
        (TWO_REVISITS, RevisitedCell, "cell (3, 3) revisited at step 3"),
        # a cell leaving the grid at step 5 comes before the revisit at step 15
        (X_JUMP[:5] + [(4, 1)] + X_JUMP[6:-1] + [(2, 2)], OutOfBounds,
         "cell (4, 1) at step 5 leaves the 4x4 grid"),
        (TWO_REVISITS[:5] + [(-1, 1)] + TWO_REVISITS[6:], RevisitedCell,
         "cell (3, 3) revisited at step 3"),
        # a short sequence: the count outranks the jump at step 7
        (X_JUMP[:-1], NotSpaceFilling, "expected 16 cells for side 4, got 15"),
    ], ids=["x-only", "y-only", "negative", "first-step", "last-step", "revisit-and-jump",
            "two-revisits", "leave-then-revisit", "revisit-then-leave", "short-and-jump"])
    def test_step_check_names_the_first_failure(self, cells, error, message):
        with pytest.raises(error) as info:
            CurvePath(4, np.array(cells))
        assert type(info.value) is error
        assert str(info.value) == message

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(-3, 3), st.integers(-3, 3), st.booleans())
    def test_check_agrees_with_reference_on_perturbed_curves(self, pick, i, j, dx, dy, swap):
        curves = [c for c in small_curves() if len(c[3]) <= 256]
        p = curves[pick % len(curves)][3]
        cells = p.cells.copy()
        i %= len(cells)
        j %= len(cells)
        if swap:
            cells[[i, j]] = cells[[j, i]]
        else:
            cells[i] += (dx, dy)
        want = first_fault(p.side, cells.tolist())
        assert raised_fault(lambda: CurvePath(p.side, cells)) == want

    @pytest.mark.parametrize("side,cells,fault", [
        # (2**62, 0) raveled with stride 4 wraps to 0, the index of (0, 0)
        *((4, X_JUMP[:9] + [far] + X_JUMP[10:15] + [(0, 0)], ("OutOfBounds", 9))
          for far in [(2 ** 62, 0), (0, 2 ** 62), (-2 ** 62, 3), (2 ** 63 - 1, -2 ** 63)]),
        # (2**24, 0) raveled with stride 2**40 wraps to 0, the index of (0, 0)
        (2 ** 40, [(0, 0), (2 ** 24, 0)], ("NotSpaceFilling", None)),
        (2 ** 40, [(0, 0), (1, 2 ** 40 - 1), (0, 0)], ("RevisitedCell", 2)),
        (2 ** 70, [(0, 0), (2 ** 62, 2 ** 62)], ("NotSpaceFilling", None)),
        (2 ** 70, [(0, 0), (0, -1)], ("OutOfBounds", 1)),
    ], ids=["x", "y", "negative", "int64-limits",
            "count", "revisit", "side-past-int64", "leave-side-past-int64"])
    def test_huge_values_without_overflow(self, side, cells, fault):
        assert first_fault(side, cells) == fault
        assert raised_fault(lambda: CurvePath(side, np.array(cells, dtype=np.int64))) == fault

    @pytest.mark.parametrize("dtype,cells,error,message", [
        (np.int64, [(0, 0), (0, 1), (2 ** 31, 1), (1, 0)], OutOfBounds,
         f"cell ({2 ** 31}, 1) at step 2 leaves the 2x2 grid"),
        (np.int64, [(0, 0), (0, 1), (1, 1), (1, -2 ** 31 - 1)], OutOfBounds,
         f"cell (1, {-2 ** 31 - 1}) at step 3 leaves the 2x2 grid"),
        # int32 would wrap 2**32 to 0 and the cell to a revisit of (0, 0)
        (np.int64, [(0, 0), (0, 1), (1, 1), (2 ** 32, 0)], OutOfBounds,
         f"cell ({2 ** 32}, 0) at step 3 leaves the 2x2 grid"),
        (np.uint64, [(0, 0), (0, 1), (1, 1), (2 ** 31, 0)], OutOfBounds,
         f"cell ({2 ** 31}, 0) at step 3 leaves the 2x2 grid"),
        (np.uint64, [(0, 0), (0, 1), (1, 1), (2 ** 32, 0)], OutOfBounds,
         f"cell ({2 ** 32}, 0) at step 3 leaves the 2x2 grid"),
        # a revisit before the cell past int32 still comes first
        (np.int64, [(0, 0), (0, 1), (0, 1), (2 ** 31, 0)], RevisitedCell,
         "cell (0, 1) revisited at step 2"),
        (np.int64, [(0, 0), (0, 0), (1, 1), (1, -2 ** 31 - 1)], RevisitedCell,
         "cell (0, 0) revisited at step 1"),
        (np.uint64, [(0, 0), (1, 1), (1, 1), (2 ** 31, 0)], RevisitedCell,
         "cell (1, 1) revisited at step 2"),
        # and before a cell past int64, as uint64 or as Python ints
        (np.uint64, [(0, 0), (0, 1), (1, 1), (2 ** 63, 0)], OutOfBounds,
         f"cell ({2 ** 63}, 0) at step 3 leaves the 2x2 grid"),
        (np.uint64, [(0, 0), (0, 0), (1, 1), (2 ** 63, 0)], RevisitedCell,
         "cell (0, 0) revisited at step 1"),
        (object, [(0, 0), (0, 0), (1, 1), (2 ** 64, 0)], RevisitedCell,
         "cell (0, 0) revisited at step 1"),
        (object, [(0, 0), (0, 1), (0, 1), (-2 ** 63 - 1, 0)], RevisitedCell,
         "cell (0, 1) revisited at step 2"),
    ], ids=["int64-2**31", "int64-below-int32", "int64-2**32", "uint64-2**31", "uint64-2**32",
            "revisit-then-2**31", "revisit-then-below-int32", "uint64-revisit-then-2**31",
            "uint64-2**63", "uint64-revisit-then-2**63", "int-revisit-then-2**64",
            "int-revisit-then-below-int64"])
    def test_values_past_int32_never_wrap(self, dtype, cells, error, message):
        with pytest.raises(error) as info:
            CurvePath(2, np.array(cells, dtype=dtype))
        assert type(info.value) is error
        assert str(info.value) == message

    def test_hash_is_stored_and_equal_for_equal_curves(self):
        p = build_curve(3, 4, load_bundled("mouse"))
        q = CurvePath(p.side, p.cells.copy())
        assert hash(p) == hash(q) == hash(p)
        k = load_bundled("frog")
        assert hash(k) == hash(parse_kernel_text(format_kernel_text(k), name="frog")) == hash(k)

    def test_frozen_cells(self):
        p = make_path(UNIT_CELLS)
        with pytest.raises(ValueError):
            p.cells[0, 0] = 5

    def test_label_grid_holds_a_band_beside_the_grid(self, monkeypatch):
        # side 1024: the 4 MiB grid and one band's flat index and labels;
        # a scatter of every cell at once read +12 MiB
        p = build_curve(0, 10, load_bundled("unit"))
        tracemalloc.start()
        try:
            grid = p.label_grid()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.nbytes + (2 << 20), f"{peak / 2 ** 20:.1f} MiB above the curve"
        # a ragged last band labels the same cells
        monkeypatch.setattr(core, "_BAND", 7)
        assert (CurvePath(p.side, p.cells).label_grid() == grid).all()

    @given(st.integers(0, 11), st.integers(0, 255), st.sampled_from(BUILTIN_KERNELS))
    def test_label_grid_inverts_point(self, nu, i, name):
        k = load_bundled(name)
        p = build_curve(nu, 4 if k.side == 2 else 3, k)
        i %= len(p)
        assert p.label_grid()[p.point(i)] == i


# every way to get a CurvePath, as (made, expected): each remakes the
# order-3 variant-3 mouse curve p, except that a stroke string is walked
# from (0, 0), where p does not start, so strokes_to_path remakes the kernel
PRODUCERS = {
    "build_curve": lambda k, p: (build_curve(3, 3, k), p),
    "grow_once": lambda k, p: (grow_once(3, build_curve(0, 2, k)), p),
    "tags.generate": lambda k, p: (tags.generate(3, 3, k), p),
    "strokes_to_path": lambda k, p: (strokes_to_path(path_to_strokes(k.path), k.side), k.path),
    "int64": lambda k, p: (CurvePath(p.side, p.cells.astype(np.int64)), p),
    "uint8": lambda k, p: (CurvePath(p.side, p.cells.astype(np.uint8)), p),
    "object": lambda k, p: (CurvePath(p.side, p.cells.astype(object)), p),
    "list": lambda k, p: (CurvePath(p.side, p.cells.tolist()), p),
    "int32-fortran": lambda k, p: (CurvePath(p.side, np.asfortranarray(p.cells)), p),
}


@pytest.mark.parametrize("make", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_every_producer_returns_frozen_contiguous_int32_cells(make):
    k = load_bundled("mouse")
    q, p = make(k, build_curve(3, 3, k))
    assert q.cells.dtype == np.int32
    assert q.cells.flags.c_contiguous and not q.cells.flags.writeable
    assert q == p and hash(q) == hash(p)
    assert q.label_grid().dtype == np.int32


# both entry points of the one cell check; KernelSpec (the validate-kernel
# command's check) sizes the grid itself
CELL_CHECKS = {"CurvePath": lambda cells: CurvePath(2, cells),
               "validate_kernel": lambda cells: KernelSpec("kernel", cells)}


@pytest.mark.parametrize("check", CELL_CHECKS.values(), ids=CELL_CHECKS.keys())
class TestCellTypes:
    @pytest.mark.parametrize("cells,error,message", [
        ([(0.5, 0), (0, 1), (1, 1), (1, 0)], NotSpaceFilling,
         "cell value 0.5 at step 0 is not an int"),
        ([(0, 0), (0, 1), (1, 1), (1.2, 0)], NotSpaceFilling,
         "cell value 1.2 at step 3 is not an int"),
        ([(0.9, 0), (0, 1), (1, 1), (1.2, 0)], NotSpaceFilling,
         "cell value 0.9 at step 0 is not an int"),
        ([("0", "0"), ("0", "1"), ("1", "1"), ("1", "0")], NotSpaceFilling,
         "cell value '0' at step 0 is not an int"),
        (np.array(UNIT_CELLS, dtype=np.float64), NotSpaceFilling,
         "cell value 0.0 at step 0 is not an int"),
        ([(2 ** 63, 0), (0, 1), (1, 1), (1, 0)], OutOfBounds,
         f"cell ({2 ** 63}, 0) at step 0 leaves the 2x2 grid"),
        ([(2 ** 64, 0), (0, 1), (1, 1), (1, 0)], OutOfBounds,
         f"cell ({2 ** 64}, 0) at step 0 leaves the 2x2 grid"),
        ([(0, 0), (0, 1), (1, 1), (1, -2 ** 63 - 1)], OutOfBounds,
         f"cell (1, {-2 ** 63 - 1}) at step 3 leaves the 2x2 grid"),
        # must not wrap to -2**63
        (np.array([(2 ** 63, 0), (0, 1), (1, 1), (1, 0)], dtype=np.uint64), OutOfBounds,
         f"cell ({2 ** 63}, 0) at step 0 leaves the 2x2 grid"),
    ], ids=["half", "last-float", "kernel-floats", "strings", "float-array", "2**63", "2**64",
            "past-int64-min", "uint64-2**63"])
    def test_cast_truncates_and_wraps_nothing(self, check, cells, error, message):
        with pytest.raises(error) as info:
            check(cells)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_arrays_accepted(self, check, dtype):
        p = check(np.array(UNIT_CELLS, dtype=dtype))
        p = getattr(p, "path", p)
        assert p.cells.dtype == np.int32 and p.cells.flags.c_contiguous
        assert not p.cells.flags.writeable
        assert p == make_path(UNIT_CELLS)


# the kernel premise, checked once when a KernelSpec is made
class TestValidateKernel:
    def test_unit_ok(self):
        spec = KernelSpec("unit", UNIT_CELLS)
        assert spec.side == 2
        assert spec.path.point(0) == (0, 0)
        assert spec.path.point(-1) == (1, 0)

    def test_exit_top_left(self):
        with pytest.raises(BadEntryExit, match=r"^kernel must exit at \(1, 0\), got \(0, 1\)$"):
            KernelSpec("kernel", [(0, 0), (1, 0), (1, 1), (0, 1)])

    def test_wrong_entry(self):
        with pytest.raises(BadEntryExit, match=r"^kernel must enter at \(0, 0\), got \(1, 0\)$"):
            KernelSpec("kernel", [(1, 0), (1, 1), (0, 1), (0, 0)])

    def test_side_one_rejected(self):
        with pytest.raises(BadEntryExit, match="^side-1 kernel rejected: entry and exit would coincide$"):
            KernelSpec("kernel", CurvePath(1, np.array([[0, 0]])))

    def test_bundled_kernels_valid(self):
        for name in BUILTIN_KERNELS:
            spec = load_bundled(name)
            again = KernelSpec(name, spec.path)
            assert again == spec

    def test_unit_kernel_axial_only(self):
        assert set(load_bundled("unit").strokes) <= set("urdl")

    def test_decorated_kernels_use_diagonals(self):
        for name in ("mouse", "frog"):
            assert set(load_bundled(name).strokes) & set("abgt")


class TestKernelText:
    def test_roundtrip(self):
        for name in BUILTIN_KERNELS:
            spec = load_bundled(name)
            assert parse_kernel_text(format_kernel_text(spec), name) == spec

    def test_comments_and_blanks_ignored(self):
        text = "# note\n\nside 2\norigin 0 0\n\nstrokes urd\n"
        assert parse_kernel_text(text).side == 2

    @pytest.mark.parametrize("text", [
        "side 2\norigin 0 0\n",
        "side 3\norigin 0 0\nstrokes urd\n",
        "side 2\norigin 0\nstrokes urd\n",
        "side 2\norigin 0 0\nstrokes urz\n",
        "origin 0 0\nside 2\nstrokes urd\n",
        "side two\norigin 0 0\nstrokes urd\n",
        "side 2\norigin 2 0\nstrokes urd\n",        # origin outside the grid
        "side 2\norigin 0 -1\nstrokes urd\n",
        # int() reads these digits, but a kernel file's are ASCII
        "side \u00b2\norigin 0 0\nstrokes u",          # superscript two
        "side \u0662\norigin 0 0\nstrokes urd\n",      # Arabic-Indic two
        "side 2\norigin \u0661 0\nstrokes urd\n",      # Arabic-Indic one
        "side 2\norigin \u0660 0\nstrokes urd\n",      # Arabic-Indic zero
        "side 2\norigin +0 0\nstrokes urd\n",
        # in the grid, but a kernel is walked from (0, 0)
        "side 2\norigin 1 0\nstrokes urd\n",
        "side 2\norigin 1 1\nstrokes dlu\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(KernelFormatError):
            parse_kernel_text(text)

    def test_side_past_the_int_digit_limit(self):
        with pytest.raises(KernelFormatError, match="^side"):
            parse_kernel_text("side 1" + "0" * 5000 + "\norigin 0 0\nstrokes urd\n")

    def test_strokes_are_read_once(self):
        for name in BUILTIN_KERNELS:
            spec, fresh = load_bundled(name), KernelSpec(name, load_bundled(name).path)
            text = format_kernel_text(spec)
            assert spec.strokes is spec.strokes
            # reading the strokes changes neither equality, hash nor text
            assert spec == fresh and hash(spec) == hash(fresh)
            assert text == format_kernel_text(spec) == format_kernel_text(fresh)

    def test_bad_path_in_wellformed_file(self):
        with pytest.raises(BadEntryExit):
            parse_kernel_text("side 2\norigin 0 0\nstrokes rul\n")


_NUMBERS = st.one_of(st.sampled_from(["0", "2", "4", "4096", "8192"]),
                     st.integers(0, 2 ** 80).map(str),
                     st.text(alphabet="0123456789\u00b2\u0660\u0661\u0662\uff12+-_", min_size=1, max_size=6))
_SPACES = st.sampled_from([" ", "  ", "\t", "\u3000"])
# the unit kernel at orders 1 and 2, so some drawn texts are kernels
_STROKE_TOKENS = st.one_of(st.sampled_from(["urd", "ruluurdrurddldr"]),
                           st.text(alphabet=STROKES + "xU", max_size=20))
_EXTRA_LINES = st.lists(st.sampled_from(["", "  ", "# note", "#side 2", "side 2", "origin 0 0",
                                         "strokes", "urd"]), max_size=2)


@st.composite
def kernel_texts(draw):
    """(text, side token, whether the three lines are its only content)."""
    side = draw(_NUMBERS)
    x, y = draw(st.just(("0", "0")) | st.tuples(_NUMBERS, _NUMBERS))
    lines = [f"side{draw(_SPACES)}{side}",
             f"origin{draw(_SPACES)}{x}{draw(_SPACES)}{y}",
             f"strokes{draw(_SPACES)}{draw(_STROKE_TOKENS)}"]
    extra = draw(_EXTRA_LINES)
    for line in extra:
        lines.insert(draw(st.integers(0, len(lines))), line)
    only = all(not ln.strip() or ln.strip().startswith("#") for ln in extra)
    return "\n".join(lines), side, only


@given(kernel_texts())
def test_kernel_text_parses_or_raises_a_curve_error(drawn):
    text, side, only = drawn
    try:
        spec = parse_kernel_text(text)
    except CurveError as exc:
        if only and side.isascii() and side.isdigit() and int(side) ** 2 > MAX_CELLS:
            # refused by the side checks, which come before any walk
            assert isinstance(exc, KernelFormatError) and str(exc).startswith("side"), exc
        return
    assert isinstance(spec, KernelSpec)
    assert parse_kernel_text(format_kernel_text(spec)) == spec


@given(st.text(alphabet=STROKES, min_size=3, max_size=3))
def test_random_short_strings_parse_or_fail_cleanly(s):
    try:
        p = strokes_to_path(s, 2)
    except CurveError:
        return
    assert len(p) == 4
    assert path_to_strokes(p) == s


@given(st.sampled_from(BUILTIN_KERNELS))
def test_kernel_stroke_roundtrip(name):
    p = load_bundled(name).path
    s = path_to_strokes(p)
    assert strokes_to_path(s, p.side) == p
