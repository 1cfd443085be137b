"""Deterministic text artifact writers.

Every writer renders integers exactly and rationals through one shared
six-significant-digit rule, so repeated runs produce byte-identical
files on any platform.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import IO

import numpy as np

from .core import CurvePath
from .locality import DifferenceMap, DiffStats


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


# cells rendered and written at a time, in whole rows: a map up to side
# 256 is one band
_BAND = 1 << 16


def _write_bands(fh: IO[str], m: DifferenceMap, cell_text, sep: str) -> None:
    """Write one text per cell of the map, top row first, columns left to right.

    Rows go in bands of at most _BAND cells: cell_text(num, band) gives
    the [x, y] array of strings of the numerators num of the rows in the
    slice band (rows are y, the map's second axis).
    """
    rows = max(1, _BAND // m.side)
    for hi in range(m.side, 0, -rows):
        band = slice(max(0, hi - rows), hi)
        for row in cell_text(m.numerators[:, band], band).T[::-1].tolist():
            fh.write(sep.join(row))
            fh.write("\n")


def write_diffmap_csv(fh: IO[str], m: DifferenceMap) -> None:
    """Grid of map values, top row first, columns left to right.

    Each distinct value of a band is rendered once through fmt6: as an
    int when the denominator divides it, else as the true quotient of the
    two ints, which Python rounds correctly to the float of the exact
    Fraction.
    """
    den = m.denominator

    def cell_text(num: np.ndarray, band: slice) -> np.ndarray:
        # asking for counts keeps np.unique on its sorting path, which beats
        # both its hash path and return_inverse here; each cell then finds
        # its level by binary search
        values = np.unique(num, return_counts=True)[0]
        text = np.array([fmt6(v // den) if v % den == 0 else fmt6(v / den)
                         for v in values.tolist()], dtype=object)
        return text[np.searchsorted(values, num)]

    _write_bands(fh, m, cell_text, ",")


def _log_gray(numerators: np.ndarray, den: int, top: float) -> np.ndarray:
    """8-bit gray levels of map numerators on a log scale; top is log1p of the map maximum."""
    if top == 0.0:
        return np.zeros(numerators.shape, dtype=np.int64)
    g = np.floor(255.0 * np.log1p(numerators / float(den)) / top + 0.5).astype(np.int64)
    return np.clip(g, 0, 255)


# pixel text by gray level; the PPM's extra last entry, 256, is a barrier cell
_PGM_PIXELS = np.array([str(v) for v in range(256)], dtype=object)
_PPM_PIXELS = np.array([f"{v} {v} {v}" for v in range(256)] + ["0 0 255"], dtype=object)


def write_diffmap_pgm(fh: IO[str], m: DifferenceMap) -> None:
    """Plain PGM (P2), log-scaled gray, top row first."""
    fh.write(f"P2\n{m.side} {m.side}\n255\n")
    # one scale for every band: division is monotone, so the largest
    # numerator gives the largest value
    top = math.log1p(float(m.numerators.max()) / m.denominator)
    _write_bands(fh, m, lambda num, band: _PGM_PIXELS[_log_gray(num, m.denominator, top)], " ")


def write_barrier_ppm(fh: IO[str], m: DifferenceMap, mask: np.ndarray) -> None:
    """Plain PPM (P3): the PGM rendering with the cells of the bool [x, y] mask in blue."""
    fh.write(f"P3\n{m.side} {m.side}\n255\n")
    top = math.log1p(float(m.numerators.max()) / m.denominator)
    _write_bands(fh, m, lambda num, band: _PPM_PIXELS[np.where(
        mask[:, band], 256, _log_gray(num, m.denominator, top))], " ")


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
