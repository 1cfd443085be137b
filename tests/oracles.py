"""Independent reference implementations for the tests.

Deliberately written in a different style from the library (bit
tricks, dict lookups, quadratic loops) so that agreement between the
two is evidence and not an artifact of shared code.
"""

from fractions import Fraction


def hilbert_d2xy(order: int, d: int) -> tuple[int, int]:
    """Classic iterative index-to-point walk for the Hilbert curve.

    Orientation: enters at (0, 0), leaves at (2**order - 1, 0), first
    quadrant traversed transposed.
    """
    x = y = 0
    s = 1
    t = d
    while s < (1 << order):
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


def hilbert_xy2d(order: int, x: int, y: int) -> int:
    d = 0
    s = (1 << order) // 2
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def is_space_filling_walk(side: int, cells) -> bool:
    """Every cell of the side x side grid exactly once, one king step at a time."""
    pts = [(int(x), int(y)) for x, y in cells]
    grid = {(x, y) for x in range(side) for y in range(side)}
    if len(pts) != len(grid) or set(pts) != grid:
        return False
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if max(abs(x1 - x0), abs(y1 - y0)) != 1:
            return False
    return True


def first_fault(side: int, cells):
    """(fault class name, step) of the earliest fault of a walk, or None.

    One pass with a set finds the first cell outside the grid or already
    seen; then the count is checked (its step is None); then each step.
    """
    pts = [(int(x), int(y)) for x, y in cells]
    seen = set()
    for i, pt in enumerate(pts):
        if not (0 <= pt[0] < side and 0 <= pt[1] < side):
            return "OutOfBounds", i
        if pt in seen:
            return "RevisitedCell", i
        seen.add(pt)
    if len(pts) != side * side:
        return "NotSpaceFilling", None
    for i in range(len(pts) - 1):
        if max(abs(pts[i + 1][0] - pts[i][0]), abs(pts[i + 1][1] - pts[i][1])) != 1:
            return "NonAdjacentStep", i
    return None


def brute_strokes(cells) -> str:
    """Stroke letters of a king walk, one dict lookup per step."""
    letter = {(0, 1): "u", (1, 0): "r", (0, -1): "d", (-1, 0): "l",
              (1, 1): "a", (1, -1): "b", (-1, -1): "g", (-1, 1): "t"}
    pts = [(int(x), int(y)) for x, y in cells]
    return "".join(letter[(x1 - x0, y1 - y0)] for (x0, y0), (x1, y1) in zip(pts, pts[1:]))


def brute_curve_csv(nu: int, order: int, name_field: str, side: int, cells) -> str:
    """Curve CSV text: the header, then one line per cell."""
    text = "%d,%d,%s,%d\n" % (nu, order, name_field, side)
    for i, (x, y) in enumerate(cells):
        text += "%d,%d,%d\n" % (i, int(x), int(y))
    return text


def parse_curve_csv(text: str):
    """(header fields, [x, y] cells) of curve-CSV text; the index column must count 0, 1, 2, ..."""
    lines = text.splitlines()
    nu, n, name, side = lines[0].split(",")
    head = {"nu": int(nu), "n": int(n), "kernel": name.encode("ascii").decode("unicode_escape"),
            "side": int(side)}
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    assert all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows] == list(range(len(rows)))
    return head, [row[1:] for row in rows]


def brute_dilation(cells) -> Fraction:
    """All-pairs worst squared-distance over index-distance ratio."""
    # best so far is num/den; d2/gap beats it iff d2*den > num*gap
    num, den = 0, 1
    pts = [(int(x), int(y)) for x, y in cells]
    for i in range(len(pts)):
        xi, yi = pts[i]
        for j in range(i + 1, len(pts)):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            d2 = dx * dx + dy * dy
            if d2 * den > num * (j - i):
                num, den = d2, j - i
    return Fraction(num, den)


def brute_diff_values(cells, fixed8: bool) -> dict[tuple[int, int], Fraction]:
    """Per-cell mean absolute label difference over existing neighbors."""
    label = {(int(x), int(y)): i for i, (x, y) in enumerate(cells)}
    out = {}
    for (x, y), lab in label.items():
        diffs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                other = label.get((x + dx, y + dy))
                if other is not None:
                    diffs.append(abs(lab - other))
        out[(x, y)] = Fraction(sum(diffs), 8 if fixed8 else len(diffs))
    return out


def brute_stats(values) -> dict:
    """Mean, extremes, median, entropy and below-mean share of a value list."""
    import math

    vals = sorted(values)
    n = len(vals)
    mean = sum(vals, Fraction(0)) / n
    if n % 2:
        median = vals[n // 2]
    else:
        median = (vals[n // 2 - 1] + vals[n // 2]) / 2
    counts = {}
    for v in vals:
        counts[v] = counts.get(v, 0) + 1
    entropy = -sum((c / n) * math.log2(c / n) for c in counts.values())
    below = sum(1 for v in vals if v < mean)
    return {
        "mean": mean,
        "max": vals[-1],
        "min": vals[0],
        "median": median,
        "entropy_bits": entropy,
        "pct_below_mean": Fraction(100 * below, n),
    }


def brute_diffmap_csv(numerators, den: int) -> str:
    """Difference-map CSV built one Fraction per cell, top row first."""
    side = len(numerators)
    lines = []
    for y in range(side - 1, -1, -1):
        cells = []
        for x in range(side):
            v = Fraction(int(numerators[x][y]), den)
            cells.append(str(v.numerator) if v.denominator == 1 else "%.6g" % float(v))
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


def brute_pgm(gray) -> str:
    """Plain PGM of a [x][y] gray-level grid, one pixel at a time."""
    side = len(gray)
    text = "P2\n%d %d\n255\n" % (side, side)
    for y in range(side - 1, -1, -1):
        row = ""
        for x in range(side):
            row += ("" if x == 0 else " ") + str(int(gray[x][y]))
        text += row + "\n"
    return text


def brute_ppm(gray, flags) -> str:
    """Plain PPM of a gray grid with flagged pixels blue, one pixel at a time."""
    side = len(gray)
    text = "P3\n%d %d\n255\n" % (side, side)
    for y in range(side - 1, -1, -1):
        pixels = []
        for x in range(side):
            g = int(gray[x][y])
            pixels.append("0 0 255" if flags[x][y] else "%d %d %d" % (g, g, g))
        text += " ".join(pixels) + "\n"
    return text


def brute_barrier(numerators) -> set[tuple[int, int]]:
    """Cells above mean + population standard deviation, in exact Fractions.

    Works on the numerators alone: a common denominator scales the
    value, the mean and the deviation alike.
    """
    vals = {(x, y): Fraction(int(v))
            for x, column in enumerate(numerators) for y, v in enumerate(column)}
    n = len(vals)
    mean = sum(vals.values(), Fraction(0)) / n
    var = sum(((v - mean) ** 2 for v in vals.values()), Fraction(0)) / n
    return {c for c, v in vals.items() if v > mean and (v - mean) ** 2 > var}
