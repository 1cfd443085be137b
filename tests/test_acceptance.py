"""End-to-end checks, one test per shipping criterion.

Each test appends a PASS/FAIL line to the summary block printed after
the run, then asserts.  A criterion that does not hold stays a red
test; the report only makes the status of all ten visible in one
place.
"""

import time
from fractions import Fraction

import numpy as np

from hhck import cli
from hhck.affine import build_curve
from hhck.kernels import load_bundled
from hhck.locality import (
    REFERENCE_SIDE,
    barrier_mask,
    boundary_profile,
    boundary_run_fraction,
    diff_stats,
    difference_map,
    dilation_factor,
    reference_order,
)
from hhck.tags import generate

from oracles import hilbert_d2xy, hilbert_xy2d

KERNEL_NAMES = ("unit", "mouse", "frog")
PROPER = range(0, 6)
IMPROPER = range(6, 12)

# published variant-4 map maxima of the mouse and frog tables
# (MOUSE_MAX[4] and FROG_MAX[4] in scripts/find_kernels.py)
PUBLISHED_V4_MAX = (25941, 25942)


def reference_map(nu: int, kernel):
    n = reference_order(kernel)
    return difference_map(build_curve(nu, n, kernel), order=n)


def test_01_classic_walk_equivalence(unit, acceptance_report):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 9):
        p = build_curve(0, n, unit)
        want = np.array([hilbert_d2xy(n, d) for d in range(p.side ** 2)],
                        dtype=np.int64)
        ok = ok and bool((p.cells == want).all())
    p6 = build_curve(0, 6, unit)
    for d, (x, y) in enumerate(p6.cells.tolist()):
        ok = ok and hilbert_xy2d(6, x, y) == d
    dt = time.perf_counter() - t0
    status = "PASS" if ok and dt < 5.0 else "FAIL"
    acceptance_report(1, status, f"classic walk equal both ways, n<=8, {dt:.2f}s")
    assert ok
    assert dt < 5.0


def test_02_dual_engine_equality(acceptance_report):
    bad = []
    for name in KERNEL_NAMES:
        k = load_bundled(name)
        for nu in range(12):
            for n in range(1, 7):
                if build_curve(nu, n, k) != generate(nu, n, k):
                    bad.append((name, nu, n))
    status = "PASS" if not bad else "FAIL"
    acceptance_report(2, status,
                      f"affine == tag over 12 variants x 3 kernels x n<=6"
                      f"{'' if not bad else f', {len(bad)} mismatches'}")
    assert not bad, bad


def quadrant_blocks_nest(p, floor_side: int) -> bool:
    if p.side <= floor_side:
        return True
    half = p.side // 2
    quarter = len(p) // 4
    cells = p.cells
    for b in range(4):
        block = cells[b * quarter:(b + 1) * quarter]
        qx = set(block[:, 0] // half)
        qy = set(block[:, 1] // half)
        if len(qx) != 1 or len(qy) != 1:
            return False
        sub = block - block.min(axis=0)
        from hhck.core import CurvePath

        if not quadrant_blocks_nest(CurvePath(half, sub.copy()), floor_side):
            return False
    return True


def test_03_filling_nesting_adjacency(acceptance_report):
    bad = []
    for name in KERNEL_NAMES:
        k = load_bundled(name)
        for nu in range(12):
            for n in range(1, 5):
                p = build_curve(nu, n, k)
                uniq = {tuple(c) for c in p.cells.tolist()}
                if len(uniq) != p.side ** 2:
                    bad.append(("fills", name, nu, n))
                if not quadrant_blocks_nest(p, k.side):
                    bad.append(("nests", name, nu, n))
                steps = np.abs(np.diff(p.cells, axis=0))
                if name == "unit":
                    if int(steps.sum(axis=1).max()) != 1:
                        bad.append(("axial", name, nu, n))
                elif int(steps.max()) != 1:
                    bad.append(("king", name, nu, n))
    status = "PASS" if not bad else "FAIL"
    acceptance_report(3, status,
                      "bijective, nested, unit axial / 4x4 king adjacent, n<=4")
    assert not bad, bad


def test_04_low_order_identities(acceptance_report):
    bad = []
    for name in KERNEL_NAMES:
        k = load_bundled(name)
        for nu in range(12):
            if build_curve(nu, 1, k) != k.path:
                bad.append(("order1", name, nu))
        for nu in IMPROPER:
            if build_curve(nu, 2, k) != build_curve(5, 2, k):
                bad.append(("order2", name, nu))
    status = "PASS" if not bad else "FAIL"
    acceptance_report(4, status,
                      "order 1 is the kernel; improper order 2 collapses to variant 5")
    assert not bad, bad


def test_05_dilation_convergence(unit, acceptance_report):
    t0 = time.perf_counter()
    sig = {nu: [dilation_factor(build_curve(nu, n, unit)) for n in range(1, 8)]
           for nu in (0, 1)}
    dt = time.perf_counter() - t0
    ok = True
    for vals in sig.values():
        ok = ok and all(a <= b for a, b in zip(vals, vals[1:]))
        ok = ok and 5 < vals[-1] < 6
        ok = ok and all(v < 6 for v in vals)
    status = "PASS" if ok and dt < 60.0 else "FAIL"
    acceptance_report(
        5, status,
        f"sigma nondecreasing, order 7: {float(sig[0][-1]):.4f} and "
        f"{float(sig[1][-1]):.4f} in (5, 6), {dt:.1f}s")
    assert ok, {k: [float(v) for v in vs] for k, vs in sig.items()}
    assert dt < 60.0


def test_06_kernel_non_degradation(acceptance_report):
    kernels = {name: load_bundled(name) for name in KERNEL_NAMES}
    worst = Fraction(0)
    for n in range(3, 7):
        base = dilation_factor(build_curve(0, n, kernels["unit"]))
        for name in ("mouse", "frog"):
            gap = abs(dilation_factor(build_curve(0, n, kernels[name])) - base)
            worst = max(worst, gap)
    status = "PASS" if worst < 1 else "FAIL"
    acceptance_report(6, status,
                      f"4x4-kernel sigma within 1.0 of unit, n=3..6, "
                      f"worst gap {float(worst):.4f}")
    assert worst < 1, float(worst)


def test_07_reference_statistics(acceptance_report):
    stats = {}
    for name in KERNEL_NAMES:
        k = load_bundled(name)
        for nu in range(12):
            stats[(name, nu)] = diff_stats(reference_map(nu, k))

    # direct reading of the published reference row, printed precision;
    # its minimum is the interior one (the global minimum sits at a corner)
    s = stats[("unit", 0)]
    ref = reference_map(0, load_bundled("unit"))
    interior_min = Fraction(int(ref.numerators[1:-1, 1:-1].min()), ref.denominator)
    direct = (round(s.mean) == 262 and s.max == 20480 and interior_min == 3
              and s.median == Fraction(43, 4)
              and abs(s.entropy_bits - 5.71) <= 0.005
              and abs(s.pct_below_mean - 90) <= Fraction(1, 20))

    problems = []
    if not direct:
        # fallback: ordering, per-kernel constancy, below-mean share
        for name in KERNEL_NAMES:
            means = {nu: stats[(name, nu)].mean for nu in range(12)}
            ranked = sorted(means, key=means.get)
            if ranked[-1] != 2:
                problems.append(("a", name, "largest mean", ranked[-1]))
            if set(ranked[:2]) != {8, 10}:
                problems.append(("a", name, "smallest means", ranked[:2]))
        medians = {}
        entropy_span = {}
        for name in KERNEL_NAMES:
            meds = {stats[(name, nu)].median for nu in range(12)}
            if len(meds) != 1:
                problems.append(("b", name, "median not constant", meds))
            medians[name] = meds.pop()
            ents = [stats[(name, nu)].entropy_bits for nu in range(12)]
            entropy_span[name] = (min(ents), max(ents))
            if max(ents) - min(ents) >= 0.05:
                problems.append(("b", name, "entropy spread", max(ents) - min(ents)))
        if len(set(medians.values())) != len(medians):
            problems.append(("b", "medians shared across kernels", medians))
        spans = sorted(entropy_span.values())
        for (lo_a, hi_a), (lo_b, hi_b) in zip(spans, spans[1:]):
            if lo_b - hi_a <= 0.2:
                problems.append(("b", "entropy bands not separated", (hi_a, lo_b)))
        share_ok = sum(
            1 for v in stats.values()
            if Fraction(179, 2) <= v.pct_below_mean <= 91)
        low = min(float(v.pct_below_mean) for v in stats.values())
        if share_ok != len(stats):
            problems.append(("c", f"{share_ok}/{len(stats)} rows in [89.5, 91.0]",
                             f"lowest {low:.4f}"))

    if direct:
        detail = "direct: published reference row reproduced"
        status = "PASS"
    else:
        failed = sorted({p[0] for p in problems})
        status = "PASS" if not problems else "FAIL"
        detail = (f"fallback (direct row not reproduced): "
                  f"{'all three parts hold' if not problems else 'parts ' + ', '.join(failed) + ' fail'}"
                  f"{'' if not problems else f'; {problems[-1][1]}, {problems[-1][2]}'}")
    acceptance_report(7, status, detail)
    assert direct or not problems, problems


def test_08_barrier_walls(unit, acceptance_report):
    tol = Fraction(1, REFERENCE_SIDE // 2)
    maps = {nu: reference_map(nu, unit) for nu in range(12)}

    # Variant 4 is (R, I, I, -I) in RULE_SETS and variant 2 (Liu 1) is
    # (-I, I, I, -I): their traversal quadrants 2-4 (upper left, upper
    # right, lower right) carry the same labels.  Variant 4 is the
    # paper's curve: its map maximum rounds to the published variant-4
    # maxima of the mouse and frog tables, and no other variant's does.
    premises = []
    half = REFERENCE_SIDE // 2
    n = reference_order(unit)
    g4 = build_curve(4, n, unit).label_grid()
    g2 = build_curve(2, n, unit).label_grid()
    for q, (xs, ys) in ((2, (slice(0, half), slice(half, None))),
                        (3, (slice(half, None), slice(half, None))),
                        (4, (slice(half, None), slice(0, half)))):
        if not np.array_equal(g4[xs, ys], g2[xs, ys]):
            premises.append(f"quadrant {q} of variant 4 differs from variant 2")
    rounds_to_published = [
        nu for nu in range(12)
        if all(abs(diff_stats(maps[nu]).max - v) <= Fraction(1, 2)
               for v in PUBLISHED_V4_MAX)]
    if rounds_to_published != [4]:
        premises.append(f"variants with a maximum rounding to {PUBLISHED_V4_MAX}: "
                        f"{rounds_to_published}")

    # Each expectation comes from the two quadrant maps of RULE_SETS[nu]
    # beside the seam: maps[0] and maps[1] for "1-2", maps[2] and maps[3]
    # for "3-4", maps[3] and maps[0] for "4-1".
    expected = (
        # variant 0 (R .. -R): Hilbert's transposed end quadrants face
        # each other along the whole lower seam
        [(0, "4-1", "full")]
        # variants 0 (R, I | I, -R), 1 (V, V | -V, -V), 3 (H, V | -V, H)
        # and 5 (H, V | -V, -V) on both horizontal seams, and variant 4's
        # "1-2" seam, whose pair (R, I) is variant 0's: the Hilbert half
        + [(nu, b, ">= 3/4") for nu in (0, 1, 3, 5) for b in ("1-2", "3-4")]
        + [(4, "1-2", ">= 3/4")]
        # the reversal-based variants, whose maps act on variant 5's
        # curve, on both horizontal seams, and variant 4's "3-4" seam,
        # whose pair (I, -I) is variant 2's: the Liu-1 half, where
        # variant 2 measures 65/128 on both horizontal seams
        + [(nu, b, "<= 1/2") for nu in IMPROPER for b in ("1-2", "3-4")]
        + [(4, "3-4", "<= 1/2")]
    )
    masks = {nu: barrier_mask(maps[nu]) for nu in {nu for nu, _, _ in expected}}
    violations = []
    for nu, boundary, claim in expected:
        run = boundary_run_fraction(masks[nu], boundary)
        if claim == "full":
            ok = run == 1
        elif claim == ">= 3/4":
            ok = run >= Fraction(3, 4) - tol
        else:
            ok = run <= Fraction(1, 2) + tol
        if not ok:
            violations.append((nu, boundary, float(run), f"expected {claim}"))
    checked = len(expected)
    status = "PASS" if not violations and not premises else "FAIL"
    acceptance_report(
        8, status,
        f"{checked - len(violations)}/{checked} boundary runs within one cell "
        f"of the claimed span"
        + "".join(f"; variant {nu} {b} = {r:.4f} ({why})"
                  for nu, b, r, why in violations)
        + "".join(f"; premise fails: {p}" for p in premises))
    assert not premises, premises
    assert not violations, violations


def test_09_center_profile_asymmetry(unit, acceptance_report):
    worst = Fraction(0)
    for nu in (0, 1, 3, 8, 9, 10):
        prof = boundary_profile(reference_map(nu, unit))
        half = len(prof) // 2
        upper = sum(prof[:half], Fraction(0)) / half
        lower = sum(prof[half:], Fraction(0)) / half
        worst = max(worst, upper / lower)
    status = "PASS" if worst < Fraction(1, 2) else "FAIL"
    acceptance_report(9, status,
                      f"upper/lower center-line mean ratio <= {float(worst):.4f} "
                      f"for the six flat-top variants")
    assert worst < Fraction(1, 2), float(worst)


def test_10_cli_determinism(tmp_path, acceptance_report):
    jobs = [
        ["generate", "--nu", "all", "--order", "3", "--kernel", "mouse"],
        ["analyze", "--nu", "5", "--order", "4", "--convention", "neighbors"],
        ["dilation", "--nu", "1", "--order", "4"],
        ["diffmap", "--nu", "7", "--order", "4", "--format", "pgm"],
        ["diffmap", "--nu", "7", "--order", "4"],
        ["validate-kernel", "frog"],
        ["reproduce-tables", "--kernel", "unit"],
    ]
    stable = True
    for i, argv in enumerate(jobs):
        outs = []
        for attempt in ("a", "b"):
            spot = tmp_path / f"job{i}{attempt}"
            spot.mkdir()
            target = spot if "all" in argv else spot / "artifact"
            assert cli.main([*argv, "-o", str(target)]) == 0, argv
            outs.append({f.name: f.read_bytes() for f in spot.rglob("*")
                         if f.is_file()})
        stable = stable and outs[0] == outs[1]
    status = "PASS" if stable else "FAIL"
    acceptance_report(10, status,
                      f"{len(jobs)} command forms re-run byte-identical")
    assert stable
