import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhck import tags
from hhck.affine import N_VARIANTS, build_curve
from hhck.core import STROKES, STROKE_VECTORS, BadEntryExit, CurvePath, DiscontinuousJunction, \
    KernelSpec, StrokeString, reverse, strokes_to_path
from hhck.kernels import BUILTIN_KERNELS, load_bundled
from hhck.tags import MORPHISM_IMAGES, TAG_RULES, expand, generate

from oracles import is_space_filling_walk

# independent transcription of the letter maps, one pair per line
HAND_TABLE = {
    "o": {"u": "r", "r": "u", "d": "l", "l": "d",
          "a": "a", "b": "t", "g": "g", "t": "b"},
    "a": {"u": "l", "r": "d", "d": "r", "l": "u",
          "a": "g", "b": "b", "g": "a", "t": "t"},
    "g": {"u": "l", "r": "u", "d": "r", "l": "d",
          "a": "t", "b": "a", "g": "b", "t": "g"},
    "x": {"u": "r", "r": "d", "d": "l", "l": "u",
          "a": "b", "b": "g", "g": "t", "t": "a"},
    "f": {"u": "d", "r": "l", "d": "u", "l": "r",
          "a": "g", "b": "t", "g": "a", "t": "b"},
    "m": {"u": "d", "r": "r", "d": "u", "l": "l",
          "a": "b", "b": "a", "g": "t", "t": "g"},
    "y": {"u": "u", "r": "l", "d": "d", "l": "r",
          "a": "t", "b": "g", "g": "b", "t": "a"},
}


def apply_morphism(name, s):
    table = MORPHISM_IMAGES[name]
    return s.translate(str.maketrans(STROKES, table))


class TestMorphisms:
    def test_against_hand_table(self):
        assert set(MORPHISM_IMAGES) == set(HAND_TABLE)
        for name, images in MORPHISM_IMAGES.items():
            got = dict(zip(STROKES, images))
            assert got == HAND_TABLE[name], name

    def test_each_is_a_bijection(self):
        for name, images in MORPHISM_IMAGES.items():
            assert sorted(images) == sorted(STROKES), name

    def test_each_is_linear_on_stroke_vectors(self):
        # the image of every letter must follow the 2x2 signed map
        # determined by the images of u and r alone
        for name in MORPHISM_IMAGES:
            ux, uy = STROKE_VECTORS[apply_morphism(name, "u")]
            rx, ry = STROKE_VECTORS[apply_morphism(name, "r")]
            for s in STROKES:
                x, y = STROKE_VECTORS[s]
                want = (x * rx + y * ux, x * ry + y * uy)
                assert STROKE_VECTORS[apply_morphism(name, s)] == want, (name, s)

    def test_o_on_axial_word(self):
        assert apply_morphism("o", "urd") == "rul"

    def test_f_is_an_involution(self):
        assert apply_morphism("f", apply_morphism("f", STROKES)) == STROKES

    def test_empty_string(self):
        for name in MORPHISM_IMAGES:
            assert apply_morphism(name, "") == ""


class TestExpand:
    def test_order_one_returns_kernel(self):
        for nu in range(12):
            assert expand(nu, 1, "urd") == "urd"

    def test_growth_length(self):
        for nu in range(12):
            want = 3
            for n in range(2, 5):
                want = 4 * want + 3
                assert len(expand(nu, n, "urd")) == want

    def test_order_two_hilbert_string(self):
        assert expand(0, 2, "urd") == "ruluurdrurddldr"

    def test_total_length(self):
        for name in BUILTIN_KERNELS:
            k = load_bundled(name)
            want = (k.side * 4) ** 2 - 1
            assert len(expand(7, 3, k.strokes.strokes)) == want

    def test_twelve_rules(self):
        assert len(TAG_RULES) == 12

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            expand(12, 2, "urd")
        with pytest.raises(ValueError):
            expand(0, 0, "urd")


class TestCrossEngine:
    @pytest.mark.parametrize("nu", range(12))
    @pytest.mark.parametrize("name", BUILTIN_KERNELS)
    def test_paths_agree(self, nu, name):
        k = load_bundled(name)
        for n in range(1, 5):
            assert generate(nu, n, k) == build_curve(nu, n, k), (nu, name, n)

    @pytest.mark.parametrize("name", BUILTIN_KERNELS)
    def test_paths_agree_from_cold_caches_in_reverse_order(self, name):
        # top variant first, each from order 1, so a variant-5 base is
        # first met through a reversal-based variant
        k = load_bundled(name)
        build_curve.cache_clear()
        tags._base_str.cache_clear()
        for nu in reversed(range(N_VARIANTS)):
            for n in range(1, 5):
                assert generate(nu, n, k) == build_curve(nu, n, k), (nu, name, n)

    def test_string_cache_holds_bases_only(self, unit):
        tags._base_str.cache_clear()
        for nu in range(N_VARIANTS):
            expand(nu, 6, unit.strokes.strokes)
        # variant 0 at orders 1-5 and variant 5 at order 5, as in affine
        assert tags._base_str.cache_info().currsize == 6

    def test_expanded_string_walks_the_affine_path(self, unit):
        s = expand(0, 3, "urd")
        p = strokes_to_path(StrokeString(s, (0, 0)), 8)
        assert p == build_curve(0, 3, unit)


class TestTrustedResult:
    @pytest.mark.parametrize("name", BUILTIN_KERNELS)
    def test_frozen_int32_space_filling_walks(self, name):
        # every variant up to 2**12 cells, checked by the independent oracle
        k = load_bundled(name)
        for nu in range(N_VARIANTS):
            n = 1
            while len(k.path) << 2 * (n - 1) <= 1 << 12:
                p = generate(nu, n, k)
                assert p.cells.dtype == np.int32 and p.cells.flags.c_contiguous, (nu, n)
                assert not p.cells.flags.writeable, (nu, n)
                assert is_space_filling_walk(p.side, p.cells.tolist()), (nu, n)
                n += 1

    def test_generated_curves_are_not_revalidated(self, monkeypatch, unit):
        def refuse(self):
            raise AssertionError("CurvePath re-validated a generated curve")

        monkeypatch.setattr(CurvePath, "__post_init__", refuse)
        for nu in range(N_VARIANTS):
            assert generate(nu, 4, unit).cells.shape == (256, 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kernel_off_its_corners_is_refused_by_both_engines(self, unit, n):
        # a KernelSpec made directly skips validate_kernel; reversed, the
        # unit kernel runs from (1, 0) to (0, 0) and the trust premise fails
        k = KernelSpec("rev", reverse(unit.path))
        for nu in range(N_VARIANTS):
            with pytest.raises(BadEntryExit, match=r"from \(0, 0\) to \(1, 0\), got \(1, 0\) to"):
                generate(nu, n, k)
            with pytest.raises(DiscontinuousJunction):
                build_curve(nu, n, k)


@given(st.integers(0, 11), st.integers(2, 4))
def test_expansion_is_deterministic(nu, n):
    assert expand(nu, n, "urd") == expand(nu, n, "urd")
