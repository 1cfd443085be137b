import functools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhck import locality
from hhck.affine import build_curve
from hhck.core import MAX_CELLS, CurvePath
from hhck.io import stats_record
from hhck.kernels import BUILTIN_KERNELS, load_bundled
from hhck.locality import (
    DEFAULT_CONVENTION,
    DIVISOR_CONVENTIONS,
    REFERENCE_SIDE,
    DifferenceMap,
    barrier_mask,
    boundary_profile,
    boundary_run_fraction,
    diff_stats,
    difference_map,
    dilation_factor,
)

from oracles import brute_barrier, brute_diff_values, brute_dilation, brute_stats


class TestModuleConstants:
    def test_locked_defaults(self):
        assert DEFAULT_CONVENTION == "divisor8"
        assert DEFAULT_CONVENTION in DIVISOR_CONVENTIONS
        assert REFERENCE_SIDE == 256

    def test_cell_budget_keeps_each_width_exact(self):
        # dilation cross products are int64 and map numerators int32 with
        # no wider fallback; raising MAX_CELLS past these must fail here.
        # A neighbors numerator weighs 8, 5 or 3 differences below N by
        # 15, 24 or 40
        side = math.isqrt(MAX_CELLS)
        assert 2 * (side - 1) ** 2 * MAX_CELLS < 2 ** 63
        assert 8 * MAX_CELLS < 2 ** 31
        assert 120 * (MAX_CELLS - 1) < 2 ** 31
        # cells, labels and flat indices x*side + y are int32 and below
        # MAX_CELLS; a walk sums at most MAX_CELLS unit steps onto an
        # origin inside the grid
        assert MAX_CELLS < 2 ** 31
        assert side + MAX_CELLS < 2 ** 31


# unit kernel, order 8 (side 256), variants 0..11, from the exhaustive
# gap scan that preceded the block-pair bound (about 5 s per curve)
ORDER8_UNIT_SIGMA = (
    Fraction(16129, 2731),
    Fraction(21675, 3641),
    Fraction(21675, 3641),
    Fraction(21675, 3641),
    Fraction(21675, 3641),
    Fraction(21675, 3641),
    Fraction(16129, 2731),
    Fraction(16129, 2731),
    Fraction(16129, 2731),
    Fraction(16129, 2731),
    Fraction(16129, 2731),
    Fraction(16129, 2731),
)


# every bundled kernel at each order of at most 1,024 cells
SMALL_CURVES = [(name, n) for name in BUILTIN_KERNELS for n in range(1, 6)
                if (load_bundled(name).side << (n - 1)) ** 2 <= 1024]


@functools.cache
def small_sigma(name: str, n: int, nu: int) -> Fraction:
    """The brute-force dilation factor of one small bundled curve, computed once per run."""
    return brute_dilation(build_curve(nu, n, load_bundled(name)).cells)


def two_opt_walk(side: int, moves: int, rng: np.random.Generator) -> CurvePath:
    """A Hamiltonian king walk: the column boustrophedon after up to ``moves`` 2-opt moves.

    Column x runs up for even x and down for odd x.  A move picks c_i and
    reverses c[i+1..j] for a random j > i + 1 at which both new joins,
    c_i to c_j and c_{i+1} to c_{j+1}, are king steps; the ends stay put.
    """
    cells = [(x, y if x % 2 == 0 else side - 1 - y) for x in range(side) for y in range(side)]
    n = len(cells)
    for _ in range(moves):
        i = int(rng.integers(n - 3))
        (xi, yi), (xn, yn) = cells[i], cells[i + 1]
        js = [j for j in range(i + 2, n - 1)
              if max(abs(cells[j][0] - xi), abs(cells[j][1] - yi)) == 1
              and max(abs(cells[j + 1][0] - xn), abs(cells[j + 1][1] - yn)) == 1]
        if js:
            j = js[int(rng.integers(len(js)))]
            cells[i + 1:j + 1] = cells[i + 1:j + 1][::-1]
    return CurvePath(side, np.array(cells))


def extreme_start(p: CurvePath) -> Fraction:
    return Fraction(*locality._extreme_start(p.cells[:, 0], p.cells[:, 1]))


class TestDilation:
    def test_order_one(self, unit):
        assert dilation_factor(unit.path) == 1

    def test_known_small_values(self, unit):
        assert dilation_factor(build_curve(0, 2, unit)) == Fraction(5, 2)
        assert dilation_factor(build_curve(0, 3, unit)) == Fraction(29, 8)

    @pytest.mark.parametrize("nu,n,name", [
        (0, 2, "unit"), (0, 3, "unit"), (1, 3, "unit"), (5, 2, "unit"),
        (7, 2, "unit"), (0, 2, "mouse"), (3, 2, "frog"),
    ])
    def test_matches_brute_force(self, nu, n, name):
        p = build_curve(nu, n, load_bundled(name))
        assert dilation_factor(p) == brute_dilation(p.cells)

    @pytest.mark.parametrize("name,n", SMALL_CURVES)
    def test_every_variant_and_its_reverse_match_brute_force(self, name, n):
        for nu in range(12):
            p = build_curve(nu, n, load_bundled(name))
            sigma = small_sigma(name, n, nu)
            assert dilation_factor(p) == sigma, nu
            assert dilation_factor(CurvePath(p.side, p.cells[::-1])) == sigma, nu

    @pytest.mark.parametrize("nu", range(12))
    def test_unit_order_eight(self, nu, unit):
        assert dilation_factor(build_curve(nu, 8, unit)) == ORDER8_UNIT_SIGMA[nu]

    def test_holds_no_wide_copy_of_the_curve(self, unit):
        # order 10: 8 MiB of int32 cells; the seed scan and the box
        # pyramid are int32, and only chunk-sized arrays are int64
        p = build_curve(0, 10, unit)
        tracemalloc.start()
        try:
            dilation_factor(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * p.cells.nbytes, f"{peak / 2 ** 20:.1f} MiB above the curve"

    def test_order_eleven_holds_chunks_beside_the_pyramid(self, unit):
        # order 11: 32 MiB of int32 cells; the box pyramid is about 2/3 of
        # that, and the seed scan holds chunk-sized differences.  Full-length
        # differences of two gaps at once read 2.0x the cells
        p = build_curve(0, 11, unit)
        tracemalloc.start()
        try:
            dilation_factor(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * p.cells.nbytes, f"{peak / p.cells.nbytes:.2f}x the curve's cells"

    @pytest.mark.parametrize("name,n", SMALL_CURVES)
    def test_chunked_seed_scan_matches_brute_force(self, name, n, monkeypatch):
        # chunks of 7 start cells (and 7 block pairs), so chunk edges fall
        # inside the 15-gap window of the seed scan; the start is taken
        # away, else it alone gives sigma on these curves
        monkeypatch.setattr(locality, "_CHUNK_PAIRS", 7)
        monkeypatch.setattr(locality, "_EXPAND_PAIRS", 7)
        monkeypatch.setattr(locality, "_extreme_start", lambda xs, ys: (0, 1))
        for nu in range(12):
            assert dilation_factor(build_curve(nu, n, load_bundled(name))) == small_sigma(name, n, nu), nu

    def test_two_opt_walks_match_brute_force(self):
        # grown curves always start at sigma; these walks also take the
        # branch and bound past a start that falls short
        short = 0
        for side, seeds in ((8, range(20)), (16, range(10))):
            for seed in seeds:
                p = two_opt_walk(side, 200, np.random.default_rng(seed))
                sigma = brute_dilation(p.cells)
                assert dilation_factor(p) == sigma, (side, seed)
                short += extreme_start(p) < sigma
        assert short, "no walk starts below sigma"

    @pytest.mark.parametrize("name", BUILTIN_KERNELS)
    def test_start_is_sigma_on_grown_curves(self, name):
        kernel = load_bundled(name)
        for n in range(1, 9):
            if (kernel.side << (n - 1)) ** 2 > 1 << 14:
                break
            for nu in range(12):
                p = build_curve(nu, n, kernel)
                assert extreme_start(p) == dilation_factor(p), (n, nu)

    def test_start_is_sigma_at_unit_order_eight(self, unit):
        for nu in range(12):
            assert extreme_start(build_curve(nu, 8, unit)) == ORDER8_UNIT_SIGMA[nu], nu


def cell_value(m: DifferenceMap, x: int, y: int) -> Fraction:
    return Fraction(int(m.numerators[x, y]), m.denominator)


def map_values(m: DifferenceMap) -> dict[tuple[int, int], Fraction]:
    return {(x, y): cell_value(m, x, y) for x in range(m.side) for y in range(m.side)}


ORDER1_FIXED8 = {(0, 0): Fraction(3, 4), (0, 1): Fraction(1, 2),
                 (1, 1): Fraction(1, 2), (1, 0): Fraction(3, 4)}
ORDER1_BY_COUNT = {(0, 0): Fraction(2), (0, 1): Fraction(4, 3),
                   (1, 1): Fraction(4, 3), (1, 0): Fraction(2)}


class TestDifferenceMap:
    def test_order_one_divisor8(self, unit):
        m = difference_map(unit.path, convention="divisor8")
        for (x, y), v in ORDER1_FIXED8.items():
            assert cell_value(m, x, y) == v

    def test_order_one_neighbor_count(self, unit):
        m = difference_map(unit.path, convention="neighbors")
        for (x, y), v in ORDER1_BY_COUNT.items():
            assert cell_value(m, x, y) == v

    def test_corner_cell_example(self, unit):
        # entry corner has neighbors labeled 1, 2, 3
        m8 = difference_map(unit.path, convention="divisor8")
        mn = difference_map(unit.path, convention="neighbors")
        assert cell_value(m8, 0, 0) == Fraction(6, 8)
        assert cell_value(mn, 0, 0) == 2

    def test_unknown_convention(self, unit):
        with pytest.raises(ValueError):
            difference_map(unit.path, convention="divisor9")

    def test_conventions_agree_on_interior(self, unit):
        p = build_curve(0, 4, unit)
        m8 = difference_map(p, convention="divisor8")
        mn = difference_map(p, convention="neighbors")
        for x in range(1, p.side - 1):
            for y in range(1, p.side - 1):
                assert cell_value(m8, x, y) == cell_value(mn, x, y)

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    @pytest.mark.parametrize("nu", [0, 2, 9])
    def test_matches_brute_force(self, convention, nu, mouse):
        p = build_curve(nu, 2, mouse)
        m = difference_map(p, convention=convention)
        want = brute_diff_values(p.cells.tolist(), fixed8=(convention == "divisor8"))
        for (x, y), v in want.items():
            assert cell_value(m, x, y) == v

    def test_map_is_symmetric_for_order_one(self, unit):
        m = difference_map(unit.path)
        assert cell_value(m, 0, 0) == cell_value(m, 1, 0)
        assert cell_value(m, 0, 1) == cell_value(m, 1, 1)

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    @pytest.mark.parametrize("name,n", SMALL_CURVES)
    def test_every_variant_matches_brute_force(self, name, n, convention):
        for nu in range(12):
            p = build_curve(nu, n, load_bundled(name))
            m = difference_map(p, convention)
            assert m.numerators.dtype == np.int32
            assert map_values(m) == \
                brute_diff_values(p.cells.tolist(), fixed8=(convention == "divisor8")), nu

    @pytest.mark.parametrize("numerators", [
        np.zeros((2, 2), dtype=np.int64),
        np.zeros((2, 2), dtype=np.uint32),
        np.zeros((2, 2)),
        [[0, 0], [0, 0]],
        np.zeros(4, dtype=np.int32),
        np.zeros((2, 2, 2), dtype=np.int32),
        np.zeros((8, 4), dtype=np.int32),
    ], ids=["int64", "uint32", "float", "list", "1-D", "3-D", "8x4"])
    def test_only_int32_numerators_are_taken(self, numerators):
        # the readers sum int32 numerators in int64 and square them below
        # 2^62; a wider map would overflow them silently.  The side is the
        # grid's, so a grid that is not square has none
        with pytest.raises(ValueError, match="square 2-D int32 grid"):
            DifferenceMap(numerators, 8, 0)

    def test_side_is_the_grids(self, unit):
        m = difference_map(build_curve(0, 3, unit))
        assert m.side == len(m.numerators) == 8
        assert replace(m, numerators=m.numerators[1:-1, 1:-1]).side == 6

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    def test_side_one_map_is_zero_without_warning(self, convention):
        # one cell has no neighbors; the suite turns warnings into errors
        m = difference_map(CurvePath(1, np.zeros((1, 2), dtype=np.int64)), convention)
        assert m.numerators.tolist() == [[0]]


class TestDiffStats:
    def test_order_one_exact(self, unit):
        s = diff_stats(difference_map(unit.path))
        assert s.mean == Fraction(5, 8)
        assert s.median == Fraction(5, 8)
        assert s.max == Fraction(3, 4)
        assert s.min == Fraction(1, 2)
        assert s.entropy_bits == 1.0
        assert s.pct_below_mean == 50

    @given(st.integers(0, 11), st.sampled_from(BUILTIN_KERNELS))
    @settings(max_examples=20)
    def test_matches_brute_force(self, nu, name):
        p = build_curve(nu, 2, load_bundled(name))
        m = difference_map(p)
        s = diff_stats(m)
        vals = [Fraction(int(n), m.denominator) for n in m.numerators.ravel()]
        want = brute_stats(vals)
        assert s.mean == want["mean"]
        assert s.max == want["max"]
        assert s.min == want["min"]
        assert s.median == want["median"]
        assert s.pct_below_mean == want["pct_below_mean"]
        assert math.isclose(s.entropy_bits, want["entropy_bits"], rel_tol=1e-12, abs_tol=1e-12)

    def test_constant_map_entropy_zero(self):
        # a snake visits rows in order; its interior is not constant,
        # so synthesize the degenerate case directly
        from hhck.locality import DifferenceMap

        m = DifferenceMap(np.full((2, 2), 6, dtype=np.int32), 8, 1)
        s = diff_stats(m)
        assert s.entropy_bits == 0.0
        assert math.copysign(1.0, s.entropy_bits) == 1.0
        assert '"entropy_bits": 0,' in stats_record(s, "divisor8", 1)
        assert s.pct_below_mean == 0

    @given(st.data(), st.sampled_from([8, 120]), st.sampled_from([3, 1 << 20, (1 << 31) - 1]))
    @settings(max_examples=80)
    def test_synthetic_maps_match_brute_force(self, data, den, top):
        # odd and even cell counts; a top of 3 makes heavy ties at the median,
        # and the int32 maximum makes sums past 2^31
        side = data.draw(st.integers(1, 7))
        values = data.draw(st.lists(st.integers(0, top), min_size=side * side,
                                    max_size=side * side))
        m = DifferenceMap(np.array(values, dtype=np.int32).reshape(side, side), den, 0)
        s = diff_stats(m)
        want = brute_stats([Fraction(v, den) for v in values])
        assert s.mean == want["mean"]
        assert s.max == want["max"]
        assert s.min == want["min"]
        assert s.median == want["median"]
        assert s.pct_below_mean == want["pct_below_mean"]
        assert math.isclose(s.entropy_bits, want["entropy_bits"], rel_tol=1e-12, abs_tol=1e-12)
        # values fill the map row-major as [x, y]; sides 1 and 2 have no interior
        interior = [Fraction(values[x * side + y], den)
                    for x in range(1, side - 1) for y in range(1, side - 1)]
        assert s.interior_min == min(interior, default=None)

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    @pytest.mark.parametrize("name,n", SMALL_CURVES)
    def test_every_variant_interior_min_matches_brute_force(self, name, n, convention):
        for nu in range(12):
            p = build_curve(nu, n, load_bundled(name))
            want = brute_diff_values(p.cells.tolist(), fixed8=(convention == "divisor8"))
            interior = [v for (x, y), v in want.items()
                        if 0 < x < p.side - 1 and 0 < y < p.side - 1]
            assert diff_stats(difference_map(p, convention)).interior_min == \
                min(interior, default=None), nu


class TestBarrier:
    def test_order_one_nothing_flagged(self, unit):
        mask = barrier_mask(difference_map(unit.path))
        assert not mask.any()

    @given(nu=st.integers(0, 11))
    @settings(max_examples=12)
    def test_threshold_matches_exact_arithmetic(self, unit, nu):
        m = difference_map(build_curve(nu, 3, unit))
        flagged = {tuple(c) for c in np.argwhere(barrier_mask(m)).tolist()}
        assert flagged == brute_barrier(m.numerators)

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    @pytest.mark.parametrize("name,order", [("unit", 5), ("mouse", 3), ("frog", 3)])
    def test_bundled_maps_match_reference(self, name, order, convention):
        kernel = load_bundled(name)
        for nu in (0, 1, 4, 6, 9):
            m = difference_map(build_curve(nu, order, kernel), convention)
            mask = barrier_mask(m)
            assert isinstance(mask, np.ndarray) and mask.dtype == bool
            assert mask.shape == m.numerators.shape == (m.side, m.side)
            flagged = {tuple(c) for c in np.argwhere(mask).tolist()}
            assert flagged and flagged == brute_barrier(m.numerators)

    @pytest.mark.parametrize("scale", [
        1 << 24,   # a^2 < 2^62 fits int64, sum(a^2) needs chunks of one or two
    ])
    def test_large_numerators_match_reference(self, scale):
        rng = np.random.default_rng(scale % 1009)
        num = (rng.integers(0, 64, (8, 8)) * scale).astype(np.int32)
        num[2, 5] = 127 * scale
        m = DifferenceMap(num, 8, 0)
        flagged = {tuple(c) for c in np.argwhere(barrier_mask(m)).tolist()}
        assert (2, 5) in flagged
        assert flagged == brute_barrier(num)

    # the full signed range: A + root may be negative, and the threshold
    # (A + root) // N may pass int32, as in the two examples
    @given(st.lists(st.integers(-(1 << 31), (1 << 31) - 1), min_size=16, max_size=16))
    @example([(1 << 31) - 1] * 15 + [0])
    @example([-(1 << 31)] * 15 + [0])
    @settings(max_examples=40)
    def test_any_int32_map_matches_reference(self, values):
        num = np.array(values, dtype=np.int32).reshape(4, 4)
        m = DifferenceMap(num, 120, 0)
        flagged = {tuple(c) for c in np.argwhere(barrier_mask(m)).tolist()}
        assert flagged == brute_barrier(num)

    def test_chunked_squares_match_reference(self, unit, monkeypatch):
        # chunks of 7 cells, the last one ragged, over 64-cell maps
        monkeypatch.setattr(locality, "_CHUNK_PAIRS", 7)
        for nu in (0, 1, 6, 9):
            m = difference_map(build_curve(nu, 3, unit))
            flagged = {tuple(c) for c in np.argwhere(barrier_mask(m)).tolist()}
            assert flagged == brute_barrier(m.numerators), nu

    def test_holds_a_chunk_not_the_squared_map(self, unit):
        # side 1024: the int32 map is 4 MiB and the returned mask 1 MiB;
        # the squares are made one chunk at a time
        m = difference_map(build_curve(0, 10, unit))
        tracemalloc.start()
        try:
            barrier_mask(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"{peak / 2 ** 20:.1f} MiB above the map"

    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    def test_map_holds_one_offset_difference_at_a_time(self, unit, convention):
        # side 1024, label grid built: the 4 MiB sums and one int32 diff
        # of at most 4 MiB; a second diff alive at once read +12 MiB
        p = build_curve(0, 10, unit)
        p.label_grid()
        tracemalloc.start()
        try:
            difference_map(p, convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20, f"{peak / 2 ** 20:.1f} MiB above the curve and its labels"

    def test_stats_hold_no_wide_copy_of_the_map(self, unit):
        # side 1024: np.unique sorts one int32 copy of the 4 MiB map, and
        # the total is summed in int64 without an int64 copy of the cells
        m = difference_map(build_curve(0, 10, unit))
        tracemalloc.start()
        try:
            diff_stats(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"{peak / 2 ** 20:.1f} MiB above the map"

    def test_flagged_fraction_small(self, unit):
        m = difference_map(build_curve(0, 5, unit))
        mask = barrier_mask(m)
        flagged = Fraction(int(mask.sum()), mask.size)
        assert flagged == Fraction(len(brute_barrier(m.numerators)), m.side ** 2)
        assert 0 < flagged < Fraction(1, 4)


class TestBoundary:
    def test_profile_reads_center_columns_top_down(self, unit):
        p = build_curve(0, 3, unit)
        m = difference_map(p)
        prof = boundary_profile(m)
        assert len(prof) == p.side
        top_row = p.side - 1
        want = (cell_value(m, 3, top_row) + cell_value(m, 4, top_row)) / 2
        assert prof[0] == want

    def test_run_fraction_on_synthetic_mask(self):
        flags = np.zeros((8, 8), dtype=bool)
        flags[3, 0] = flags[3, 1] = True          # 4-1 wall, lower half
        flags[[3, 4], 6] = True                   # 2-3 wall, one row
        assert boundary_run_fraction(flags, "4-1") == Fraction(1, 2)
        assert boundary_run_fraction(flags, "2-3") == Fraction(1, 4)
        assert boundary_run_fraction(flags, "1-2") == 0

    def test_run_counts_either_side(self):
        flags = np.zeros((4, 4), dtype=bool)
        flags[0, 1] = True   # below the 1-2 line
        flags[1, 2] = True   # above it, adjacent position
        assert boundary_run_fraction(flags, "1-2") == 1

    def test_unknown_boundary(self):
        with pytest.raises(ValueError):
            boundary_run_fraction(np.zeros((4, 4), dtype=bool), "1-3")

    @pytest.mark.parametrize("name,n", SMALL_CURVES)
    def test_profile_matches_cell_values(self, name, n):
        for nu in (0, 5, 10):
            m = difference_map(build_curve(nu, n, load_bundled(name)))
            c0, c1 = m.side // 2 - 1, m.side // 2
            assert boundary_profile(m) == [(cell_value(m, c0, row) + cell_value(m, c1, row)) / 2
                                           for row in range(m.side - 1, -1, -1)], nu

    @given(st.data())
    @settings(max_examples=80)
    def test_run_fraction_matches_loop(self, data):
        side = data.draw(st.integers(2, 9))
        cells = data.draw(st.lists(st.booleans(), min_size=side * side, max_size=side * side))
        mask = np.array(cells).reshape(side, side)
        for seam in SEAMS:
            assert boundary_run_fraction(mask, seam) == loop_run_fraction(mask, seam), seam

    def test_side_one_rejected(self):
        m = DifferenceMap(np.zeros((1, 1), dtype=np.int32), 8, 0)
        with pytest.raises(ValueError):
            boundary_profile(m)
        for seam in SEAMS:
            with pytest.raises(ValueError):
                boundary_run_fraction(np.zeros((1, 1), dtype=bool), seam)


SEAMS = ("1-2", "3-4", "2-3", "4-1")


def loop_run_fraction(mask: np.ndarray, seam: str) -> Fraction:
    """Longest run of flagged positions along a seam, one position at a time."""
    side, flags = len(mask), mask.tolist()
    half = side // 2
    if seam in ("1-2", "3-4"):
        span = range(0, half) if seam == "1-2" else range(half, side)
        hits = [flags[c][half - 1] or flags[c][half] for c in span]
    else:
        span = range(half, side) if seam == "2-3" else range(0, half)
        hits = [flags[half - 1][r] or flags[half][r] for r in span]
    run = best = 0
    for hit in hits:
        run = run + 1 if hit else 0
        best = max(best, run)
    return Fraction(best, half)
