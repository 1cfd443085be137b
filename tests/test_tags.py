import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhck import affine, tags
from hhck.affine import N_VARIANTS, build_curve
from hhck.core import STROKES, STROKE_VECTORS, BadEntryExit, CurvePath, KernelFormatError, \
    KernelSpec, parse_kernel_text, strokes_to_path
from hhck.kernels import BUILTIN_KERNELS, load_bundled
from hhck.tags import MORPHISM_IMAGES, TAG_RULES, expand, generate

import oracles
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
            assert len(expand(7, 3, k.strokes)) == want

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

    def test_side_two_kernels_are_urd_and_alb_and_agree(self):
        # all 24 orderings of the 2x2 cells are king walks; only the two
        # from (0, 0) to (1, 0) are kernels
        accepted, refused = [], 0
        for cells in itertools.permutations([(0, 0), (0, 1), (1, 0), (1, 1)]):
            p = CurvePath(2, list(cells))
            try:
                accepted.append(KernelSpec("kernel", p))
            except BadEntryExit:
                refused += 1
        assert sorted(k.strokes for k in accepted) == ["alb", "urd"]
        assert refused == 22
        for k in accepted:
            for nu in range(N_VARIANTS):
                for n in range(1, 5):
                    assert generate(nu, n, k) == build_curve(nu, n, k), (k.strokes, nu, n)

    def test_string_cache_holds_bases_only(self, unit):
        tags._base_str.cache_clear()
        for nu in range(N_VARIANTS):
            expand(nu, 6, unit.strokes)
        # variant 0 at orders 1-5 and variant 5 at order 5, as in affine
        assert tags._base_str.cache_info().currsize == 6

    def test_expanded_string_walks_the_affine_path(self, unit):
        s = expand(0, 3, "urd")
        p = strokes_to_path(s, 8)
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
        # reversed, the unit kernel runs from (1, 0) to (0, 0) and the trust
        # premise fails.  Both engines take only a KernelSpec, and none,
        # made directly or parsed from kernel text, holds it
        made = ((lambda: KernelSpec("rev", CurvePath(2, unit.path.cells[::-1])), BadEntryExit,
                 r"^kernel must enter at \(0, 0\), got \(1, 0\)$"),
                (lambda: parse_kernel_text("side 2\norigin 1 0\nstrokes uld\n", "rev"),
                 KernelFormatError, r"^origin must be 0 0"))
        for engine in (generate, build_curve):
            for nu in range(N_VARIANTS):
                for make, error, message in made:
                    with pytest.raises(error, match=message):
                        engine(nu, n, make())


@given(st.integers(0, 11), st.integers(2, 4))
def test_expansion_is_deterministic(nu, n):
    assert expand(nu, n, "urd") == expand(nu, n, "urd")


def imported_modules(module) -> set[str]:
    """Absolute names of the modules a module's source imports from."""
    package = module.__name__.split(".")[:-1]
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text("utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package[:len(package) + 1 - node.level] if node.level else []
            base = ".".join(parts + [node.module] if node.module else parts)
            # "from . import affine" imports the module base.affine
            names.update([base], (f"{base}.{a.name}" for a in node.names))
    return names


@pytest.mark.parametrize("module,foreign", [(tags, "hhck.affine"), (affine, "hhck.tags"),
                                            (oracles, "hhck")],
                         ids=["tags-not-affine", "affine-not-tags", "oracles-not-hhck"])
def test_engines_and_oracles_stay_independent(module, foreign):
    # the engines' agreement and the oracles' checks are evidence only
    # while neither side reads the other's code
    shared = {m for m in imported_modules(module) if m == foreign or m.startswith(foreign + ".")}
    assert not shared, f"{module.__name__} imports {sorted(shared)}"


def callers(tree, name: str) -> list[str]:
    """Functions of a module that call ``name``, bare or as an attribute."""
    return [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            for node in ast.walk(f) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_unchecked_paths_come_only_from_proved_constructions():
    # core._grown_path skips CurvePath's check; only the two growth
    # rounds whose docstrings prove their curves valid may call it
    package = Path(affine.__file__).parent
    found = {f"{p.stem}.{caller}" for p in sorted(package.rglob("*.py"))
             for caller in callers(ast.parse(p.read_text("utf-8")), "_grown_path")}
    assert found == {"affine.grow_once", "tags.generate"}


def unused_imports(tree) -> list[str]:
    """Names a module imports that no ``ast.Name`` in it reads, with their lines."""
    imported = {a.asname or a.name.split(".")[0]: node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__ imports names only to re-export them
    root = Path(__file__).resolve().parent.parent
    files = [p for p in sorted((root / "src" / "hhck").rglob("*.py"))
             if p != root / "src" / "hhck" / "__init__.py"]
    files += sorted((root / "scripts").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    found = {p.relative_to(root).as_posix(): unused_imports(ast.parse(p.read_text("utf-8")))
             for p in files}
    assert len(found) > 15 and not any(found.values()), {k: v for k, v in found.items() if v}


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def blas_uses(tree) -> list[int]:
    """Lines of a module that use ``@`` or name a numpy BLAS routine."""
    lines = []
    for node in ast.walk(tree):
        match node:
            case ast.BinOp(op=ast.MatMult()) | ast.AugAssign(op=ast.MatMult()):
                lines.append(node.lineno)
            case ast.Name(id=name) | ast.Attribute(attr=name) | ast.alias(name=name) \
                    | ast.ImportFrom(module=str(name)):
                if BLAS_NAMES.intersection(name.split(".")):
                    lines.append(node.lineno)
    return lines


def test_hhck_calls_no_blas_routine():
    # hhck loads numpy with a one-thread OpenBLAS pool, which costs
    # nothing only while no line of the package reaches BLAS
    package = Path(affine.__file__).parent
    found = {p.relative_to(package).as_posix(): blas_uses(ast.parse(p.read_text("utf-8")))
             for p in sorted(package.rglob("*.py"))}
    assert len(found) > 5 and not any(found.values()), found
