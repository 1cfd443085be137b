import dataclasses
import gc
import weakref

import numpy as np
import pytest

from hhck import affine, core, tags
from hhck.affine import (
    AffineMap,
    N_VARIANTS,
    RULE_SETS,
    T_VECTORS,
    U_MATRICES,
    RuleSet,
    apply_affine,
    build_curve,
    grow_once,
)
from hhck.core import STROKE_VECTORS, STROKES, CurvePath, DiscontinuousJunction, \
    NotSpaceFilling, check_budget, format_kernel_text, parse_kernel_text, path_to_strokes
from hhck.tags import MORPHISM_IMAGES, TAG_RULES

from oracles import hilbert_d2xy, is_space_filling_walk

#: (qx, qy) of the quadrant image i must fill, in traversal order:
#: lower-left, upper-left, upper-right, lower-right.
QUADRANTS = ((0, 0), (0, 1), (1, 1), (1, 0))


def check_rule_table(rule_sets, kernels):
    """Assert the static facts grow_once trusts about a table of rule sets.

    On every cell of each kernel, every map's image is "transform, add
    t, halve" on cell centers, 2*img + 1 == U(2c + 1) + 2*side*t, and
    image i exactly fills traversal quadrant i of the doubled grid.
    """
    for rule in rule_sets:
        for i, (q, quad) in enumerate(zip(rule.maps, QUADRANTS)):
            for k in kernels:
                side, cells = k.side, k.path.cells
                img = apply_affine(q, k.path)
                centers = (2 * cells + 1) @ np.array(q.u).T + 2 * side * np.array(q.t)
                assert (2 * img + 1 == (centers[::-1] if q.reversed else centers)).all(), \
                    f"variant {rule.nu}: image {i + 1} of {q} is not [U, t] on cell centers"
                lo = side * np.array(quad)
                box = img.min(axis=0).tolist(), img.max(axis=0).tolist()
                assert box == (lo.tolist(), (lo + side - 1).tolist()), \
                    f"variant {rule.nu}: image {i + 1} of {q} escapes traversal quadrant {quad}"


def _cell_image(q, side, cell):
    """One cell's image under [U, t] on cell centers, as check_rule_table holds apply_affine."""
    center = np.array(q.u) @ (2 * np.array(cell) + 1) + 2 * side * np.array(q.t)
    return (center - 1) // 2


def _grown_corners(rule, side, corners):
    """Entry and exit of each image of a side-`side` curve running between `corners`."""
    images = []
    for q in rule.maps:
        first, last = corners[::-1] if q.reversed else corners
        images.append((_cell_image(q, side, first), _cell_image(q, side, last)))
    return images


def _base_corners(base, side):
    """Entry and exit of a side-`side` base: variant 0 at any order, variant 5 from order 2."""
    return ((0, 0), (side - 1, 0)) if base == 0 else ((0, side // 2 - 1), (side // 2, 0))


def check_tag_table(tag_rules, rule_sets, connectors=tags.CONNECTORS):
    """Assert that tag_rules is the stroke image of rule_sets, the fact tags.generate trusts.

    Slot i rewrites the base's strokes as map i moves them: each letter
    goes to its map's U image, or for a reversed map to its -U image with
    the slot's letter order reversed (the overbar).  Each connector is
    the step from image i's exit to image i+1's entry.  That step is
    affine in the base side s, since the base corners are, so two sides
    decide it for every s; the corners themselves hold by induction
    from a kernel running from (0, 0) to (side - 1, 0): variant 0 grows
    from variant 0 into (0, 0) -> (2s - 1, 0), variant 5 into
    (0, s - 1) -> (s, 0).  Variants 6..11 grow from variant 5 from
    order 3 on; its sides are even there.
    """
    for tag, rule in zip(tag_rules, rule_sets, strict=True):
        assert (tag.nu, tag.base) == (rule.nu, rule.base), f"variant {rule.nu}: tag rule misplaced"
        for i, ((op, barred), q) in enumerate(zip(tag.slots, rule.maps)):
            u = -np.array(q.u) if q.reversed else np.array(q.u)
            image = dict(zip(STROKES, MORPHISM_IMAGES[op] if op else STROKES))
            for letter, step in STROKE_VECTORS.items():
                assert STROKE_VECTORS[image[letter]] == tuple((u @ step).tolist()), \
                    f"variant {rule.nu}: slot {i + 1} operator {op} moves {letter} off its map"
            assert barred == q.reversed, \
                f"variant {rule.nu}: slot {i + 1} overbar {barred}, map reversed {q.reversed}"
        for side in ((2, 4) if rule.base == 0 else (4, 8)):
            images = _grown_corners(rule, side, _base_corners(rule.base, side))
            for i, c in enumerate(connectors):
                step = tuple((images[i + 1][0] - images[i][1]).tolist())
                assert step == STROKE_VECTORS[c], \
                    f"variant {rule.nu}: connector {i + 1} {c}, junction step {step} at side {side}"
    for nu in (0, 5):
        for side in (2, 4):
            images = _grown_corners(rule_sets[nu], side, _base_corners(0, side))
            grown = (tuple(images[0][0].tolist()), tuple(images[3][1].tolist()))
            assert grown == _base_corners(nu, 2 * side), f"variant {nu} grows into corners {grown}"


class TestRuleSets:
    def test_twelve_variants(self):
        assert N_VARIANTS == 12
        assert [r.nu for r in RULE_SETS] == list(range(12))

    def test_bases(self):
        for r in RULE_SETS:
            assert r.base == (0 if r.nu <= 5 else 5)

    def test_quadrant_partition(self, unit, mouse):
        # the four maps cover LL, UL, UR, LR in that traversal order
        check_rule_table(RULE_SETS, (unit, mouse))

    def test_variant_zero_first_map_transposes(self, unit):
        img = apply_affine(RULE_SETS[0].maps[0], unit.path)
        assert img.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
        assert img[0].tolist() == [0, 0]

    def test_variant_zero_last_map_exits_lower_right(self, unit):
        img = apply_affine(RULE_SETS[0].maps[3], unit.path)
        assert img[-1].tolist() == [3, 0]

    def test_identity_map_embeds_unchanged(self, unit):
        q = AffineMap(U_MATRICES["I"], T_VECTORS[0])
        img = apply_affine(q, unit.path)
        assert img.tolist() == unit.path.cells.tolist()

    def test_reversed_map_flips_traversal(self, unit):
        q = AffineMap(U_MATRICES["I"], T_VECTORS[0], reversed=True)
        img = apply_affine(q, unit.path)
        assert img.tolist() == unit.path.cells.tolist()[::-1]

    def test_image_outside_its_quadrant_fails_the_table_check(self, unit, mouse):
        # variant 0 with its first two maps swapped: the first image
        # lands upper-left, where traversal quadrant 1 is lower-left
        m = RULE_SETS[0].maps
        swapped = RuleSet(0, (m[1], m[0], m[2], m[3]), 0)
        with pytest.raises(AssertionError, match=r"image 1 .* escapes traversal quadrant \(0, 0\)"):
            check_rule_table((swapped,), (unit, mouse))

    def test_image_outside_the_doubled_grid_fails_the_table_check(self, unit, mouse):
        # t = (2, 1) sends the side-2 kernel to x = 4-5 on the side-4 grid
        q = AffineMap(U_MATRICES["I"], (2, 1))
        assert apply_affine(q, unit.path)[:, 0].tolist() == [4, 4, 5, 5]
        m = RULE_SETS[0].maps
        escaped = RuleSet(0, (m[0], m[1], m[2], q), 0)
        with pytest.raises(AssertionError, match=r"image 4 .* escapes traversal quadrant \(1, 0\)"):
            check_rule_table((escaped,), (unit, mouse))

    def test_junction_jump_raises(self, monkeypatch, unit):
        # variant 0 with its fourth map reversed: the image stays in the
        # lower-right quadrant but starts at the grid's exit corner
        m = RULE_SETS[0].maps
        flipped = AffineMap(m[3].u, m[3].t, reversed=True)
        broken = RuleSet(0, (m[0], m[1], m[2], flipped), 0)
        monkeypatch.setattr(affine, "RULE_SETS", (broken,) + RULE_SETS[1:])
        with pytest.raises(DiscontinuousJunction,
                           match=r"junction 3 jumps from \(3, 2\) to \(3, 0\)"):
            grow_once(0, unit.path)

    @pytest.mark.parametrize("name", ["unit", "mouse"])
    def test_reversed_input_breaks_every_junction_check(self, request, name):
        # the table is trusted, the input is not: entering at the
        # lower-right corner breaks a junction of every variant
        k = request.getfixturevalue(name).path
        p = CurvePath(k.side, k.cells[::-1])
        for nu in range(N_VARIANTS):
            with pytest.raises(DiscontinuousJunction, match=f"^variant {nu}: junction"):
                grow_once(nu, p)

    def test_bad_matrix_rejected(self):
        for u in [((1, 1), (0, 1)),
                  ((1, 0), (1, 0)),     # singular: each row has one +-1, both read x
                  ((0, -1), (0, 1)),    # singular: both rows read y
                  ((1, 0), (0, 1), (0, 1))]:
            with pytest.raises(ValueError, match="^u must be a signed permutation matrix"):
                AffineMap(u, T_VECTORS[0])

    def test_bad_translation_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(U_MATRICES["I"], (3, 3))


def _with_slot(nu, slot, value):
    """TAG_RULES with slot `slot` (1-based) of variant nu replaced."""
    slots = list(TAG_RULES[nu].slots)
    slots[slot - 1] = value
    return TAG_RULES[:nu] + (dataclasses.replace(TAG_RULES[nu], slots=tuple(slots)),) \
        + TAG_RULES[nu + 1:]


class TestTagTable:
    def test_tag_rules_are_the_stroke_image_of_the_rule_sets(self):
        check_tag_table(TAG_RULES, RULE_SETS)

    @pytest.mark.parametrize("tag_rules,connectors,message", [
        (_with_slot(0, 1, ("a", False)), "urd", r"^variant 0: slot 1 operator a moves u off"),
        (_with_slot(6, 2, ("m", False)), "urd", r"^variant 6: slot 2 overbar False, map reversed"),
        (TAG_RULES, "uud", r"^variant 0: connector 2 u, junction step \(1, 0\) at side 2"),
    ], ids=["operator", "overbar", "connector"])
    def test_corrupted_table_fails_the_check(self, tag_rules, connectors, message):
        with pytest.raises(AssertionError, match=message):
            check_tag_table(tag_rules, RULE_SETS, connectors)


class TestBuildCurve:
    def test_order_one_is_kernel(self, unit, mouse, frog):
        for k in (unit, mouse, frog):
            for nu in range(12):
                assert build_curve(nu, 1, k) == k.path

    def test_order_two_hilbert(self, unit):
        p = build_curve(0, 2, unit)
        expected = [hilbert_d2xy(2, d) for d in range(16)]
        assert [tuple(c) for c in p.cells.tolist()] == expected

    def test_moore_order_two_endpoints_adjacent(self, unit):
        p = build_curve(1, 2, unit)
        (x0, y0), (x1, y1) = p.point(0), p.point(-1)
        assert abs(x0 - x1) + abs(y0 - y1) == 1

    def test_improper_order_two_equals_variant_five(self, unit, mouse, frog):
        for k in (unit, mouse, frog):
            five = build_curve(5, 2, k)
            for nu in range(6, 12):
                assert build_curve(nu, 2, k) == five

    def test_homogeneity_matches_iterated_growth(self, unit):
        p = unit.path
        for n in range(2, 6):
            p = grow_once(0, p)
            assert p == build_curve(0, n, unit)

    def test_sides(self, mouse):
        for n in (1, 2, 3):
            assert build_curve(3, n, mouse).side == mouse.side * 2 ** (n - 1)

    def test_bad_nu(self, unit):
        with pytest.raises(ValueError):
            build_curve(12, 2, unit)

    def test_bad_order(self, unit):
        with pytest.raises(ValueError):
            build_curve(0, 0, unit)

    def test_junctions_hold_for_all_variants_and_kernels(self, unit, mouse, frog):
        # grown quadrant images must meet; guaranteed by kernel corner
        # entry and exit, so no variant may raise here
        for k in (unit, mouse, frog):
            base = build_curve(0, 2, k)
            for nu in range(12):
                grow_once(nu, base)

    def test_grown_curves_are_not_revalidated(self, monkeypatch, unit):
        def refuse(self):
            raise AssertionError("CurvePath re-validated a grown curve")

        monkeypatch.setattr(CurvePath, "__post_init__", refuse)
        order2 = grow_once(0, unit.path)
        bases = {0: grow_once(0, order2), 5: grow_once(5, order2)}
        for rule in RULE_SETS:
            p = grow_once(rule.nu, bases[rule.base])
            assert p.side == 16 and p.cells.shape == (256, 2)
            assert p.cells.dtype == np.int32 and p.cells.flags.c_contiguous
            assert not p.cells.flags.writeable

    def test_kernel_validation_grows_nothing(self, monkeypatch, mouse):
        def refuse(*args):
            raise AssertionError("kernel validation ran a growth round")

        monkeypatch.setattr(affine, "grow_once", refuse)
        monkeypatch.setattr(affine, "apply_affine", refuse)
        assert parse_kernel_text(format_kernel_text(mouse), "mouse") == mouse

    @pytest.mark.parametrize("name", ["unit", "mouse", "frog"])
    def test_trusted_curves_pass_the_oracle_and_match_tags(self, request, name):
        # every affine curve of at most 1024 cells, checked independently
        k = request.getfixturevalue(name)
        for nu in range(N_VARIANTS):
            n = 1
            while (k.side << (n - 1)) ** 2 <= 1024:
                p = build_curve(nu, n, k)
                assert is_space_filling_walk(p.side, p.cells.tolist()), (nu, n)
                assert p == tags.generate(nu, n, k), (nu, n)
                n += 1

    def test_unit_curves_axial_only(self, unit):
        for nu in range(12):
            assert set(path_to_strokes(build_curve(nu, 3, unit))) <= set("urdl")


def quadrant_blocks_nest(p):
    n = len(p)
    if n == 4:
        return True
    half = p.side // 2
    for q in range(4):
        block = p.cells[q * n // 4:(q + 1) * n // 4]
        qx = block[:, 0] // half
        qy = block[:, 1] // half
        if len(np.unique(qx)) != 1 or len(np.unique(qy)) != 1:
            return False
    return True


class TestBaseCache:
    """build_curve keeps only the curves others grow from: variant 0 or 5 at order n-1."""

    def test_results_are_not_kept(self, unit):
        build_curve.cache_clear()
        refs = [weakref.ref(build_curve(nu, 6, unit)) for nu in range(N_VARIANTS)]
        gc.collect()
        assert [r() for r in refs] == [None] * N_VARIANTS

    def test_cache_holds_bases_only(self, unit):
        build_curve.cache_clear()
        for nu in range(N_VARIANTS):
            build_curve(nu, 6, unit)
        # variant 0 at orders 1-5 and variant 5 at order 5
        assert build_curve.cache_info().currsize == 6
        build_curve.cache_clear()
        assert build_curve.cache_info().currsize == 0


def _refuse_growth(*args):
    raise AssertionError("grew a curve past the cell budget")


class TestCellBudget:
    """Every curve is held to core.MAX_CELLS before it is grown or stored."""

    # each call asks for 1,024 cells; the unit order-4 curve has 256
    PAST_256 = {
        "build_curve": lambda unit, p4, p5: build_curve(0, 5, unit),
        "generate": lambda unit, p4, p5: tags.generate(0, 5, unit),
        "expand": lambda unit, p4, p5: tags.expand(0, 5, "urd"),
        "grow_once": lambda unit, p4, p5: grow_once(0, p4),
        "CurvePath": lambda unit, p4, p5: CurvePath(p5.side, p5.cells),
    }

    @pytest.mark.parametrize("call", PAST_256.values(), ids=PAST_256.keys())
    def test_refused_before_growing(self, monkeypatch, unit, call):
        p4, p5 = build_curve(0, 4, unit), build_curve(0, 5, unit)
        monkeypatch.setattr(core, "MAX_CELLS", 256)
        monkeypatch.setattr(affine, "grow_once", _refuse_growth)
        monkeypatch.setattr(tags, "_rewrite", _refuse_growth)
        with pytest.raises(NotSpaceFilling, match="exceeds the budget of 256 cells$"):
            call(unit, p4, p5)

    def test_admits_a_curve_of_exactly_the_budget(self, monkeypatch, unit):
        want = build_curve(0, 4, unit)
        monkeypatch.setattr(core, "MAX_CELLS", 256)
        build_curve.cache_clear()
        assert build_curve(0, 4, unit) == want
        assert tags.generate(0, 4, unit) == want
        assert grow_once(0, build_curve(0, 3, unit)) == want

    def test_unit_order_twelve_is_the_largest(self, monkeypatch, unit):
        monkeypatch.setattr(affine, "grow_once", _refuse_growth)
        monkeypatch.setattr(tags, "_rewrite", _refuse_growth)
        check_budget(len(unit.path), 12)
        for order in (13, 99999999999):
            with pytest.raises(NotSpaceFilling, match=f"^order {order} of a 4-cell kernel"):
                check_budget(len(unit.path), order)
            for engine in (build_curve, tags.generate):
                with pytest.raises(NotSpaceFilling):
                    engine(0, order, unit)


class TestNesting:
    @pytest.mark.parametrize("nu", range(12))
    def test_blocks_recursively_confined(self, nu, unit):
        p = build_curve(nu, 4, unit)
        assert quadrant_blocks_nest(p)
        # one level down: each quadrant block is itself nested
        n = len(p)
        half = p.side // 2
        for q in range(4):
            block = p.cells[q * n // 4:(q + 1) * n // 4].copy()
            block[:, 0] %= half
            block[:, 1] %= half
            assert quadrant_blocks_nest(CurvePath(half, block))


@pytest.mark.parametrize("engine", [build_curve, tags.generate], ids=["affine", "tag"])
@pytest.mark.parametrize("nu,n", [(-1, 3), (12, 3), (0, 0)], ids=["nu-1", "nu12", "n0"])
def test_engines_reject_variant_or_order_out_of_range(engine, nu, n, unit):
    with pytest.raises(ValueError, match="^(nu|order) must be"):
        engine(nu, n, unit)


@pytest.mark.parametrize("nu", [-1, 12])
def test_grow_once_rejects_variant_out_of_range(nu, unit):
    with pytest.raises(ValueError, match="^nu must be 0..11"):
        grow_once(nu, unit.path)
