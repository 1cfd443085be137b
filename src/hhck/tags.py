"""Tag-system generator: grows curves by rewriting stroke strings.

This is the second, independent route to the same curves as
``hhck.affine``.  Seven letterwise operators permute the eight-letter
stroke alphabet; each is the stroke-level action of one of the eight
signed permutation matrices (the eighth, the identity, needs no name):

    o  transpose               f  half turn
    a  anti-transpose          m  flip vertically (negate y)
    g  quarter turn ccw        y  flip horizontally (negate x)
    x  quarter turn cw

A growth round rewrites the previous-order string w as

    s1(w) u s2(w) r s3(w) d s4(w)

where each slot applies one operator (or none) and optionally an
overbar.  The overbar reverses the letter order of the slot without
flipping the letters; geometrically that is traversal reversal combined
with a half turn, which is exactly how the reversed quadrant maps of
the rule sets act on strokes.  The three connector strokes u, r, d
(``CONNECTORS``) are the junctions between quadrant images and are the
same for all twelve variants.

The grown curve is trusted, not checked cell by cell.  The tests prove
that ``TAG_RULES`` is the stroke image of ``affine.RULE_SETS``: each
slot's operator is its map's U, or -U with the overbar exactly when the
map is reversed, and each connector is the junction step that the base
curves' corners fix.  Those corners follow from a kernel that runs from
(0, 0) to (side - 1, 0), the premise that ``core.KernelSpec`` checks
when it is made.  So the expanded string is the stroke string of
``affine.build_curve``'s valid curve, and walking it and shifting the
walk so its bounding box starts at (0, 0) gives that curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import CurvePath, KernelSpec, STROKES, _grown_path, _walk, check_budget

MORPHISM_IMAGES: dict[str, str] = {
    # image of "urdlabgt" under each operator
    "o": "ruldatgb",
    "a": "ldrugbat",
    "g": "lurdtabg",
    "x": "rdlubgta",
    "f": "dlurgtab",
    "m": "drulbatg",
    "y": "uldrtgba",
}


_MORPHISM_TABLES = {
    name: str.maketrans(STROKES, image) for name, image in MORPHISM_IMAGES.items()
}


#: the junction strokes between slots 1-2, 2-3 and 3-4 of every variant
CONNECTORS = "urd"

Slot = tuple[str | None, bool]  # (operator name or None, overbar)


@dataclass(frozen=True)
class TagRule:
    """The four rewrite slots of one variant (the connectors are CONNECTORS)."""

    nu: int
    slots: tuple[Slot, Slot, Slot, Slot]
    base: int  # variant supplying the order n-1 string: 0 for nu<=5, else 5


TAG_RULES: tuple[TagRule, ...] = (
    TagRule(0, (("o", False), (None, False), (None, False), ("a", False)), 0),
    TagRule(1, (("g", False), ("g", False), ("x", False), ("x", False)), 0),
    TagRule(2, (("f", False), (None, False), (None, False), ("f", False)), 0),
    TagRule(3, (("m", False), ("g", False), ("x", False), ("m", False)), 0),
    TagRule(4, (("o", False), (None, False), (None, False), ("f", False)), 0),
    TagRule(5, (("m", False), ("g", False), ("x", False), ("x", False)), 0),
    TagRule(6, (("f", False), ("m", True), (None, False), ("y", True)), 5),
    TagRule(7, (("f", False), ("m", True), (None, False), ("a", False)), 5),
    TagRule(8, (("g", True), ("m", True), (None, False), ("a", False)), 5),
    TagRule(9, (("o", True), ("g", False), ("a", True), ("x", False)), 5),
    TagRule(10, (("m", False), ("g", False), ("a", True), (None, True)), 5),
    TagRule(11, (("m", False), ("g", False), ("a", True), ("x", False)), 5),
)

def _rewrite(rule: TagRule, w: str) -> str:
    parts = []
    for op, barred in rule.slots:
        s = w.translate(_MORPHISM_TABLES[op]) if op else w
        parts.append(s[::-1] if barred else s)
    u, r, d = CONNECTORS
    return parts[0] + u + parts[1] + r + parts[2] + d + parts[3]


def _expand_str(nu: int, n: int, w0: str) -> str:
    if n == 1:
        return w0
    rule = TAG_RULES[nu]
    if rule.base == 5 and n == 2:
        return _expand_str(5, 2, w0)
    return _rewrite(rule, _base_str(rule.base, n - 1, w0))


# the bases only, as in affine; calls _expand_str by its global name
_base_str = lru_cache(maxsize=256)(lambda nu, n, w0: _expand_str(nu, n, w0))


def expand(nu: int, n: int, kernel_strokes: str) -> str:
    """Grow a kernel stroke string to order n under variant nu.

    Each round turns a string of length L into one of length 4L + 3; a
    curve past core.MAX_CELLS cells is refused before any round.  The
    result is unpinned; generate() places it on its grid.
    """
    if not 0 <= nu < len(TAG_RULES):
        raise ValueError(f"nu must be 0..{len(TAG_RULES) - 1}, got {nu}")
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    check_budget(len(kernel_strokes) + 1, n)
    return _expand_str(nu, n, kernel_strokes)


def generate(nu: int, n: int, kernel: KernelSpec) -> CurvePath:
    """The order-n curve of variant nu, built by string rewriting alone.

    Trusted without a cell check (see the module docstring).
    """
    pos = _walk(expand(nu, n, kernel.strokes))
    for col in pos.T:  # 1-D mins; pos.min(axis=0) reduces along the short axis
        col -= col.min()
    return _grown_path(kernel.side * 2 ** (n - 1), pos)
