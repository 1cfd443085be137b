"""Deterministic text artifact writers.

Every writer renders integers exactly and rationals through one shared
six-significant-digit rule, so repeated runs produce byte-identical
files on any platform.
"""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from typing import IO

import numpy as np

from .core import CurvePath, _ascii_int, _is_power_of_two, check_budget
from .locality import BarrierMask, DifferenceMap, DiffStats


def fmt6(x) -> str:
    """Decimal rendering with at most six significant digits.

    Integers print without a decimal point; everything else goes through
    printf %.6g. Exact inputs (int, Fraction) stay exact whenever the
    decimal expansion fits the rule.
    """
    if isinstance(x, bool):
        raise TypeError("fmt6 expects a number")
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return str(x.numerator)
    return f"{float(x):.6g}"


def _escape_name(name: str) -> str:
    """ASCII, comma-free form of a kernel name for the curve-CSV header.

    Backslashes, control and non-ASCII characters take Python escape
    sequences and commas become ``\\x2c``; printable ASCII names are
    unchanged.
    """
    return name.encode("unicode_escape").decode("ascii").replace(",", r"\x2c")


def _unescape_name(text: str) -> str:
    return text.encode("ascii").decode("unicode_escape")


# rows of the curve CSV rendered and written at a time
_CURVE_CSV_CHUNK = 1 << 14


def write_curve_csv(fh: IO[str], p: CurvePath, nu: int, order: int, kernel_name: str) -> None:
    """One header line `nu,n,kernel,side`, then one line `i,x,y` per step."""
    fh.write(f"{nu},{order},{_escape_name(kernel_name)},{p.side}\n")
    for start in range(0, len(p.cells), _CURVE_CSV_CHUNK):
        block = p.cells[start:start + _CURVE_CSV_CHUNK]
        rows = np.empty((len(block), 3), dtype=np.int64)
        rows[:, 0] = np.arange(start, start + len(block))
        rows[:, 1:] = block
        fh.write(("%d,%d,%d\n" * len(block)) % tuple(rows.ravel().tolist()))


def read_curve_csv(fh: IO[str]) -> tuple[dict, CurvePath]:
    """Inverse of write_curve_csv. Returns (header fields, path).

    Empty lines are skipped.  A malformed file raises ValueError: header
    numbers that are not ASCII digits or a side that is not a power of
    two within core.MAX_CELLS, both refused before the body is read; a
    row that is not three int64 fields, a gap in the index, or a
    CurveError.
    """
    first = fh.readline().strip().split(",")
    if len(first) != 4:
        raise ValueError("curve CSV: bad header")
    nu, n, name, side = first
    head = {"nu": _ascii_int(nu, "curve CSV: nu"), "n": _ascii_int(n, "curve CSV: n"),
            "kernel": _unescape_name(name), "side": _ascii_int(side, "curve CSV: side")}
    if not _is_power_of_two(head["side"]):
        raise ValueError(f"curve CSV: side must be a power of two, got {head['side']}")
    check_budget(head["side"] ** 2)
    with warnings.catch_warnings():  # an empty body warns, then fails the shape check
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    if rows.shape[1] != 3:
        raise ValueError("curve CSV: expected rows i,x,y")
    gaps = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
    if len(gaps):
        raise ValueError(f"curve CSV: step {int(rows[gaps[0], 0])} out of order")
    return head, CurvePath(head["side"], rows[:, 1:])


def _write_rows(fh: IO[str], text: np.ndarray, sep: str) -> None:
    """Write a [x, y] grid of cell strings, top row first, columns left to right."""
    for row in text.T[::-1].tolist():
        fh.write(sep.join(row))
        fh.write("\n")


def write_diffmap_csv(fh: IO[str], m: DifferenceMap) -> None:
    """Grid of map values, top row first, columns left to right.

    Each distinct value is rendered once through fmt6: as an int when the
    denominator divides it, else as the true quotient of the two ints,
    which Python rounds correctly to the float of the exact Fraction.
    """
    den = m.denominator
    # asking for counts keeps np.unique on its sorting path, which beats
    # both its hash path and return_inverse here; each cell then finds its
    # level by binary search
    values = np.unique(m.numerators, return_counts=True)[0]
    text = np.array([fmt6(v // den) if v % den == 0 else fmt6(v / den)
                     for v in values.tolist()], dtype=object)
    _write_rows(fh, text[np.searchsorted(values, m.numerators)], ",")


def _log_gray(m: DifferenceMap) -> np.ndarray:
    """8-bit gray levels on a log scale, brightest at the map maximum."""
    v = m.numerators / float(m.denominator)
    top = math.log1p(v.max())
    if top == 0.0:
        return np.zeros(v.shape, dtype=np.int64)
    g = np.floor(255.0 * np.log1p(v) / top + 0.5).astype(np.int64)
    return np.clip(g, 0, 255)


# pixel text by gray level; the PPM's extra last entry is a barrier cell
_PGM_PIXELS = np.array([str(v) for v in range(256)], dtype=object)
_PPM_PIXELS = np.array([f"{v} {v} {v}" for v in range(256)] + ["0 0 255"], dtype=object)


def write_diffmap_pgm(fh: IO[str], m: DifferenceMap) -> None:
    """Plain PGM (P2), log-scaled gray, top row first."""
    fh.write(f"P2\n{m.side} {m.side}\n255\n")
    _write_rows(fh, _PGM_PIXELS[_log_gray(m)], " ")


def write_barrier_ppm(fh: IO[str], m: DifferenceMap, mask: BarrierMask) -> None:
    """Plain PPM (P3): the PGM rendering with barrier cells in blue."""
    fh.write(f"P3\n{m.side} {m.side}\n255\n")
    _write_rows(fh, _PPM_PIXELS[np.where(mask.flags, 256, _log_gray(m))], " ")


STATS_FIELDS = ("mean", "max", "min", "median", "entropy_bits", "pct_below_mean",
                "convention", "order")


def json_record(row: dict) -> str:
    """One-line JSON object in the row's key order.

    Numbers go through fmt6 and print unquoted, so a record carries
    exactly the printed precision; strings and bools go through
    json.dumps, which escapes them.
    """
    parts = []
    for k, v in row.items():
        text = json.dumps(v) if isinstance(v, (str, bool)) else fmt6(v)
        parts.append(f"{json.dumps(k)}: {text}")
    return "{" + ", ".join(parts) + "}"


def stats_record(s: DiffStats, convention: str, order: int,
                 extra: dict | None = None) -> str:
    """One-line JSON record; field order is fixed by STATS_FIELDS."""
    row = dict(extra or {})
    row.update((field, getattr(s, field)) for field in STATS_FIELDS[:-2])
    row.update(convention=convention, order=order)
    return json_record(row)
