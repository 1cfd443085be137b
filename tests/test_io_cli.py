import contextlib
import hashlib
import io as _io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhck import cli, core, io, kernels, locality
from hhck.affine import build_curve
from hhck.core import CurvePath
from hhck.io import (
    STATS_FIELDS,
    _log_gray,
    fmt6,
    stats_record,
    write_barrier_ppm,
    write_curve_csv,
    write_diffmap_csv,
    write_diffmap_pgm,
)
from hhck.kernels import KERNEL_SHA256, load_bundled
from hhck.locality import DIVISOR_CONVENTIONS, DifferenceMap, barrier_mask, diff_stats, \
    difference_map

from oracles import brute_curve_csv, brute_diffmap_csv, brute_pgm, brute_ppm, hilbert_d2xy, \
    is_space_filling_walk, parse_curve_csv

BAD_KERNEL = "side 2\norigin 0 0\nstrokes rul\n"
UNIT_KERNEL = "side 2\norigin 0 0\nstrokes urd\n"


class TestFmt6:
    @pytest.mark.parametrize("value,text", [
        (0, "0"),
        (20480, "20480"),
        (Fraction(5, 1), "5"),
        (Fraction(5, 2), "2.5"),
        (Fraction(114687, 4), "28671.8"),
        (Fraction(1, 3), "0.333333"),
        (0.5, "0.5"),
        (5.90588, "5.90588"),
    ])
    def test_values(self, value, text):
        assert fmt6(value) == text

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            fmt6(True)


class TestCurveCsv:
    def test_header_plus_one_line_per_step(self, unit):
        p = build_curve(0, 2, unit)
        buf = _io.StringIO()
        write_curve_csv(buf, p, 0, 2, "unit")
        lines = buf.getvalue().splitlines()
        assert len(lines) == 17
        assert lines[0] == "0,2,unit,4"
        assert lines[1] == "0,0,0"

    def test_steps_match_reference_walk(self, unit):
        p = build_curve(0, 2, unit)
        buf = _io.StringIO()
        write_curve_csv(buf, p, 0, 2, "unit")
        for i, line in enumerate(buf.getvalue().splitlines()[1:]):
            want = hilbert_d2xy(2, i)
            assert line == f"{i},{want[0]},{want[1]}"

    def test_roundtrip(self, mouse):
        p = build_curve(9, 2, mouse)
        buf = _io.StringIO()
        write_curve_csv(buf, p, 9, 2, "mouse")
        head, cells = parse_curve_csv(buf.getvalue())
        assert head == {"nu": 9, "n": 2, "kernel": "mouse", "side": 8}
        assert cells == p.cells.tolist()

    @pytest.mark.parametrize("name", ["a,b", "back\\slash", "caf\u00e9", "tab\tand\nline"])
    def test_kernel_name_escaped_and_restored(self, unit, name):
        buf = _io.StringIO()
        write_curve_csv(buf, unit.path, 0, 1, name)
        header = buf.getvalue().splitlines()[0]
        assert header.isascii() and header.count(",") == 3
        assert parse_curve_csv(buf.getvalue())[0]["kernel"] == name

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
    @pytest.mark.parametrize("name,order", [("unit", 5), ("mouse", 4), ("frog", 3)])
    def test_bundled_kernels_match_reference(self, monkeypatch, name, order, chunk):
        # chunks of 1 and 7 rows cross chunk boundaries, 7 unevenly
        monkeypatch.setattr(io, "_CURVE_CSV_CHUNK", chunk)
        k = load_bundled(name)
        for nu in (0, 1, 4, 6, 9):
            p = build_curve(nu, order, k)
            buf = _io.StringIO()
            write_curve_csv(buf, p, nu, order, name)
            assert buf.getvalue() == brute_curve_csv(nu, order, name, p.side, p.cells.tolist())

    @pytest.mark.parametrize("name,field", [
        ("a,b", r"a\x2cb"),
        ("back\\slash", r"back\\slash"),
        ("caf\u00e9", r"caf\xe9"),
        ("tab\tand\nline", r"tab\tand\nline"),
    ])
    def test_escaped_names_match_reference(self, monkeypatch, mouse, name, field):
        monkeypatch.setattr(io, "_CURVE_CSV_CHUNK", 5)
        p = build_curve(2, 2, mouse)
        buf = _io.StringIO()
        write_curve_csv(buf, p, 2, 2, name)
        assert buf.getvalue() == brute_curve_csv(2, 2, field, p.side, p.cells.tolist())

    @pytest.mark.parametrize("name,nu", [("unit", 0), ("mouse", 6), ("frog", 11)])
    def test_order_eight_reads_back(self, name, nu):
        p = build_curve(nu, 8, load_bundled(name))
        buf = _io.StringIO()
        write_curve_csv(buf, p, nu, 8, name)
        head, cells = parse_curve_csv(buf.getvalue())
        assert head == {"nu": nu, "n": 8, "kernel": name, "side": p.side}
        assert cells == p.cells.tolist()


class TestDiffmapCsv:
    def test_order_one_values_top_row_first(self, unit):
        buf = _io.StringIO()
        write_diffmap_csv(buf, difference_map(unit.path))
        assert buf.getvalue() == "0.5,0.5\n0.75,0.75\n"


class TestPgmPpm:
    def test_pgm_shape_and_scaling(self, unit):
        p = build_curve(0, 3, unit)
        m = difference_map(p)
        buf = _io.StringIO()
        write_diffmap_pgm(buf, m)
        lines = buf.getvalue().splitlines()
        assert lines[:3] == ["P2", "8 8", "255"]
        body = [int(v) for ln in lines[3:] for v in ln.split()]
        assert len(body) == 64
        assert all(0 <= v <= 255 for v in body)
        assert max(body) == 255

    def test_pgm_rows_top_first(self, unit):
        m = difference_map(unit.path)
        buf = _io.StringIO()
        write_diffmap_pgm(buf, m)
        rows = buf.getvalue().splitlines()[3:]
        # bottom row holds the map maximum, so it renders brighter
        assert rows[1] == "255 255"
        assert rows[0] != rows[1]

    def test_ppm_marks_flagged_cells_blue(self, unit):
        p = build_curve(0, 4, unit)
        m = difference_map(p)
        mask = barrier_mask(m)
        buf = _io.StringIO()
        write_barrier_ppm(buf, m, mask)
        lines = buf.getvalue().splitlines()
        assert lines[:3] == ["P3", "16 16", "255"]
        vals = [int(v) for ln in lines[3:] for v in ln.split()]
        triples = list(zip(vals[0::3], vals[1::3], vals[2::3]))
        assert len(triples) == 256
        assert triples.count((0, 0, 255)) == int(mask.sum())


def full_gray(m: DifferenceMap) -> np.ndarray:
    """Gray levels of the whole map at once, scaled by the largest quotient."""
    return _log_gray(m.numerators, m.denominator, math.log1p((m.numerators / m.denominator).max()))


class _Sink:
    """A text handle that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)


class TestPixelBands:
    # bands of 1, 3 and 5 rows (side 16 leaves a last band of 1 row) and the whole map
    @pytest.mark.parametrize("band", [1, 3 * 16, 5 * 16, 1 << 16])
    def test_bands_write_the_same_bytes(self, monkeypatch, mouse, band):
        monkeypatch.setattr(io, "_BAND", band)
        for nu in (0, 3, 9):
            m = difference_map(build_curve(nu, 3, mouse), "neighbors", 3)
            gray, mask = full_gray(m), barrier_mask(m)
            assert render(write_diffmap_csv, m) == brute_diffmap_csv(m.numerators, 120), nu
            assert render(write_diffmap_pgm, m) == brute_pgm(gray), nu
            assert render(write_barrier_ppm, m, mask) == brute_ppm(gray, mask), nu

    def test_flat_map_is_black(self):
        m = DifferenceMap(np.zeros((2, 2), dtype=np.int32), 8, 0)
        assert render(write_diffmap_pgm, m) == "P2\n2 2\n255\n0 0\n0 0\n"

    @pytest.mark.parametrize("write", [write_diffmap_csv, write_diffmap_pgm, write_barrier_ppm],
                             ids=["csv", "pgm", "ppm"])
    def test_writers_hold_a_band_not_the_map(self, unit, write):
        # side 1024: one band is 64 rows, a sixteenth of the map
        m = difference_map(build_curve(0, 10, unit))
        args = (m, barrier_mask(m)) if write is write_barrier_ppm else (m,)
        tracemalloc.start()
        try:
            write(_Sink(), *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"{peak / 2 ** 20:.1f} MiB above the map and mask"


def render(write, *args) -> str:
    buf = _io.StringIO()
    write(buf, *args)
    return buf.getvalue()


class TestWritersMatchReference:
    @pytest.mark.parametrize("convention", DIVISOR_CONVENTIONS)
    @pytest.mark.parametrize("name,order", [("unit", 5), ("mouse", 3), ("frog", 3)])
    def test_bundled_kernels(self, name, order, convention):
        kernel = load_bundled(name)
        for nu in (0, 1, 4, 6, 9):
            m = difference_map(build_curve(nu, order, kernel), convention, order)
            gray = full_gray(m)
            mask = barrier_mask(m)
            assert mask.any()
            assert render(write_diffmap_csv, m) == brute_diffmap_csv(m.numerators, m.denominator)
            assert render(write_diffmap_pgm, m) == brute_pgm(gray)
            assert render(write_barrier_ppm, m, mask) == brute_ppm(gray, mask)

    @pytest.mark.parametrize("name,order", [("unit", 5), ("mouse", 4), ("frog", 4)])
    def test_neighbors_csv_every_variant(self, name, order):
        # denominator 120 is where %.6g rounds most levels
        kernel = load_bundled(name)
        for nu in range(12):
            m = difference_map(build_curve(nu, order, kernel), "neighbors", order)
            assert render(write_diffmap_csv, m) == brute_diffmap_csv(m.numerators, 120), nu

    def test_csv_values_of_a_million_and_more(self):
        # 1000000 and 1000001 are integers, so fmt6 prints every digit;
        # 1000000.5 is not, and %.6g rounds it
        num = np.array([[8_000_000, 8_000_004], [8_000_008, 2_000_000_000]], dtype=np.int32)
        m = DifferenceMap(num, 8, 0)
        text = render(write_diffmap_csv, m)
        assert text == "1e+06,250000000\n1000000,1000001\n"
        assert text == brute_diffmap_csv(num, 8)


class TestStatsRecord:
    def test_parses_and_orders_fields(self, unit):
        m = difference_map(unit.path, order=1)
        rec = stats_record(diff_stats(m), "divisor8", 1,
                           extra={"nu": 0, "kernel": "unit"})
        row = json.loads(rec)
        assert list(row) == ["nu", "kernel", *STATS_FIELDS]
        assert row["mean"] == 0.625
        assert row["pct_below_mean"] == 50
        assert row["convention"] == "divisor8"
        assert row["order"] == 1

    def test_numeric_fields_unquoted_strings_quoted(self, unit):
        rec = stats_record(diff_stats(difference_map(unit.path)), "divisor8", 1)
        assert '"mean": 0.625' in rec
        assert '"convention": "divisor8"' in rec


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliUsage:
    @pytest.mark.parametrize("argv", [
        ("generate", "--nu", "12"),
        ("generate", "--nu", "twelve"),
        ("generate", "--nu", "all"),                 # fan-out without --output
        ("generate", "--order", "0"),
        ("diffmap", "--format", "pgm"),              # pgm to stdout
        ("analyze", "--divisor8"),                   # removed alias
        ("frobnicate",),                             # argparse rejection
        ("generate", "--backend", "sideways"),
        # each command takes only its own flags
        ("generate", "--format", "csv"),
        ("analyze", "--format", "json-record"),
        ("dilation", "--convention", "divisor8"),
        ("reproduce-tables", "--nu", "3"),
        ("reproduce-tables", "--order", "8"),
        ("validate-kernel", "unit", "--order", "2"),
        # an empty --output names no file: not stdout, not the cwd
        ("diffmap", "--format", "pgm", "-o", ""),
        ("generate", "--nu", "all", "--order", "2", "-o", ""),
        # --nu and --order take ASCII digits only, as kernel files do
        ("analyze", "--nu", "1_0"),
        ("analyze", "--nu", "+3"),
        ("analyze", "--nu", "\u0663"),                # ARABIC-INDIC DIGIT THREE
        ("analyze", "--order", "1_1"),
        ("analyze", "--order", "+3"),
        ("analyze", "--order", "\u0663"),
    ])
    def test_exit_one(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a regressed "-o ''" would write here
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE
        assert out == ""

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == cli.EXIT_OK


class TestCliGenerate:
    def test_stdout_matches_reference(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--nu", "0", "--order", "2")
        assert code == cli.EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 17
        for i, line in enumerate(lines[1:]):
            x, y = hilbert_d2xy(2, i)
            assert line == f"{i},{x},{y}"

    def test_nu_is_parsed_as_an_integer(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--nu", "03", "--order", "2")
        assert code == cli.EXIT_OK
        assert out == run_cli(capsys, "generate", "--nu", "3", "--order", "2")[1]

    def test_both_backends_agree(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--nu", "7", "--order", "3",
                               "--kernel", "frog", "--backend", "both")
        assert code == cli.EXIT_OK
        assert len(out.splitlines()) == 1 + 16 * 16

    def test_fan_out_writes_twelve_files(self, capsys, tmp_path):
        out_dir = tmp_path / "curves"
        code, _, _ = run_cli(capsys, "generate", "--nu", "all", "--order", "1",
                             "-o", str(out_dir))
        assert code == cli.EXIT_OK
        names = sorted(f.name for f in out_dir.iterdir())
        assert names == [f"generate-unit-n1-nu{k:02d}.csv" for k in range(12)]

    def test_reruns_byte_identical(self, capsys, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run_cli(capsys, "generate", "--nu", "all", "--order", "2",
                                 "--kernel", "mouse", "-o", str(d))
            assert code == cli.EXIT_OK
        for f in sorted(dirs[0].iterdir()):
            assert f.read_bytes() == (dirs[1] / f.name).read_bytes()

    @pytest.mark.parametrize("stem", ["a,b", "caf\u00e9"])
    def test_kernel_file_name_in_header_reads_back(self, capsys, tmp_path, stem):
        kernel_file = tmp_path / f"{stem}.kernel"
        kernel_file.write_text(UNIT_KERNEL)
        target = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "generate", "--kernel", str(kernel_file),
                             "--order", "2", "-o", str(target))
        assert code == cli.EXIT_OK
        head, cells = parse_curve_csv(target.read_text("ascii"))
        assert head == {"nu": 0, "n": 2, "kernel": stem, "side": 4}
        assert cells == build_curve(0, 2, load_bundled("unit")).cells.tolist()

    def test_fan_out_names_files_by_kernel_name(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "kdir").mkdir()
        (tmp_path / "kdir" / "my.kernel").write_text(UNIT_KERNEL)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "generate", "--nu", "all", "--order", "2",
                               "--kernel", "kdir/my.kernel", "-o", "out")
        assert code == cli.EXIT_OK, err
        names = sorted(f.name for f in (tmp_path / "out").iterdir())
        assert names == [f"generate-my-n2-nu{k:02d}.csv" for k in range(12)]

    def test_order_over_cell_budget_exits_one_before_building(self, capsys, monkeypatch):
        def refuse(nu, order, kernel):
            raise AssertionError("built a curve over the cell budget")

        for backend in ("affine", "tag"):
            monkeypatch.setitem(cli.BACKENDS, backend, refuse)
        for argv in (["generate", "--order", "20"],
                     ["analyze", "--order", "13", "--backend", "both"],
                     ["diffmap", "--kernel", "mouse", "--order", "12"],
                     ["dilation", "--order", "99999999999"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == cli.EXIT_USAGE, argv
            assert out == "" and "cells" in err

    def test_cell_budget_admits_its_largest_curve(self, unit):
        # order 12 on the unit kernel is side 4096, exactly MAX_CELLS cells
        assert cli.MAX_CELLS == 4096 ** 2
        cli._check_budget(12, unit)
        with pytest.raises(cli.UsageError):
            cli._check_budget(13, unit)

    @pytest.mark.parametrize("argv,exit_code", [
        (["--order", "20"], cli.EXIT_USAGE),
        (["--kernel", "{bad}"], cli.EXIT_KERNEL),
    ], ids=["over-budget", "bad-kernel"])
    def test_fan_out_failing_before_any_build_leaves_no_directory(
            self, capsys, tmp_path, argv, exit_code):
        bad = tmp_path / "bad.kernel"
        bad.write_text(BAD_KERNEL)
        out_dir = tmp_path / "out"
        argv = [str(bad) if a == "{bad}" else a for a in argv]
        code, _, _ = run_cli(capsys, "generate", "--nu", "all", *argv, "-o", str(out_dir))
        assert code == exit_code
        assert not out_dir.exists()


class TestCliAnalysis:
    def test_dilation_record(self, capsys):
        code, out, _ = run_cli(capsys, "dilation", "--order", "2")
        assert code == cli.EXIT_OK
        row = json.loads(out)
        assert row == {"nu": 0, "order": 2, "kernel": "unit", "sigma": 2.5}

    def test_analyze_record(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--order", "1", "--convention", "divisor8")
        assert code == cli.EXIT_OK
        row = json.loads(out)
        assert row["mean"] == 0.625
        assert row["entropy_bits"] == 1
        assert row["convention"] == "divisor8"

    def test_diffmap_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "diffmap", "--order", "1")
        assert code == cli.EXIT_OK
        assert out == "0.5,0.5\n0.75,0.75\n"

    def test_diffmap_pgm_writes_companion_ppm(self, capsys, tmp_path):
        target = tmp_path / "map.pgm"
        code, _, _ = run_cli(capsys, "diffmap", "--order", "4", "--format", "pgm",
                             "-o", str(target))
        assert code == cli.EXIT_OK
        assert target.read_text().startswith("P2\n16 16\n255\n")
        companion = tmp_path / "map.barrier.ppm"
        assert companion.read_text().startswith("P3\n16 16\n255\n")

    # sha256 of stdout; the neighbors convention's denominator 120 is where
    # %.6g rounding shows, and the benchmark checks only divisor8 output
    @pytest.mark.parametrize("argv,digest", [
        (["diffmap", "--convention", "neighbors", "--order", "6", "--nu", "9"],
         "6bfdc6f1f9f6a88f2de3b83d975b0c1cff3db952ca6079a02fd20e1fc446554c"),
        (["reproduce-tables", "--kernel", "frog", "--convention", "neighbors"],
         "5ce6c0219124f6cfed913eb2fd61d20bb93c252b59fd9347fce5409affa115e1"),
    ], ids=["diffmap", "reproduce-tables"])
    def test_neighbors_output_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_validate_kernel_checksum(self, capsys):
        code, out, _ = run_cli(capsys, "validate-kernel", "unit")
        assert code == cli.EXIT_OK
        row = json.loads(out)
        assert row == {"kernel": "unit", "side": 2,
                       "sha256": KERNEL_SHA256["unit"], "valid": True}

    @pytest.mark.parametrize("command", ["dilation", "validate-kernel", "analyze"])
    def test_kernel_path_with_quote_round_trips(self, capsys, tmp_path, command):
        path = tmp_path / 'say "hi".kernel'
        path.write_text(UNIT_KERNEL)
        argv = [command, str(path)] if command == "validate-kernel" \
            else [command, "--kernel", str(path), "--order", "2"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK
        row = json.loads(out)
        # every record names the kernel by its file stem
        assert row["kernel"] == path.stem

    def test_reproduce_tables_shape(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-tables")
        assert code == cli.EXIT_OK
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert [r["nu"] for r in rows] == list(range(12))
        assert all(r["order"] == 8 for r in rows)
        assert all(r["convention"] == "divisor8" for r in rows)
        by_nu = {r["nu"]: r for r in rows}
        assert by_nu[0]["max"] == 20480
        assert by_nu[0]["median"] == 10.75


class TestCliFailures:
    def test_invalid_kernel_path_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "badkernel.txt"
        bad.write_text(BAD_KERNEL)
        code, _, err = run_cli(capsys, "validate-kernel", str(bad))
        assert code == cli.EXIT_KERNEL
        assert "BadEntryExit" in err

    def test_non_ascii_kernel_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "accent.kernel"
        bad.write_bytes("# caf\u00e9\n".encode("utf-8") + UNIT_KERNEL.encode("ascii"))
        code, _, err = run_cli(capsys, "validate-kernel", str(bad))
        assert code == cli.EXIT_KERNEL
        assert "KernelFormatError" in err

    @pytest.mark.parametrize("origin", [2 ** 63, 10 ** 23, -2 ** 70, 1])
    def test_huge_origin_exits_two(self, capsys, tmp_path, origin):
        bad = tmp_path / "far.kernel"
        bad.write_text(f"side 2\norigin {origin} 0\nstrokes urd\n")
        code, _, err = run_cli(capsys, "validate-kernel", str(bad))
        assert code == cli.EXIT_KERNEL
        assert "KernelFormatError: origin" in err and "Traceback" not in err

    def test_kernel_side_over_cell_budget_exits_two_before_walking(
            self, capsys, tmp_path, monkeypatch):
        def refuse(s, side):
            raise AssertionError("walked a kernel over the cell budget")

        monkeypatch.setattr(core, "strokes_to_path", refuse)
        big = tmp_path / "big.kernel"
        big.write_text("side 8192\norigin 0 0\nstrokes urd\n")
        code, _, err = run_cli(capsys, "validate-kernel", str(big))
        assert code == cli.EXIT_KERNEL
        assert "cells" in err

    def test_kernel_file_over_byte_cap_exits_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "long.kernel"
        path.write_text("# note\n" * 10 + UNIT_KERNEL)
        size = path.stat().st_size
        monkeypatch.setattr(kernels, "MAX_KERNEL_BYTES", size)
        assert run_cli(capsys, "validate-kernel", str(path))[0] == cli.EXIT_OK
        monkeypatch.setattr(kernels, "MAX_KERNEL_BYTES", size - 1)
        code, _, err = run_cli(capsys, "validate-kernel", str(path))
        assert code == cli.EXIT_KERNEL
        assert f"longer than {size - 1} bytes" in err

    def test_missing_kernel_file_exits_four(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "validate-kernel", str(tmp_path / "nope.kernel"))
        assert code == cli.EXIT_IO

    def test_unwritable_output_exits_four(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        code, _, _ = run_cli(capsys, "generate", "-o", str(target))
        assert code == cli.EXIT_IO

    def test_backend_mismatch_exits_three(self, capsys, monkeypatch, tmp_path):
        true_tag = cli.BACKENDS["tag"]

        def corrupted(nu, order, kernel):
            p = true_tag(nu, order, kernel)
            cells = p.cells.copy()
            cells[[5, 6]] = cells[[6, 5]]
            return CurvePath(p.side, cells)

        monkeypatch.setitem(cli.BACKENDS, "tag", corrupted)
        for extra in ([], ["--nu", "all", "-o", str(tmp_path)]):
            code, _, err = run_cli(capsys, "generate", "--order", "2",
                                   "--backend", "both", *extra)
            assert code == cli.EXIT_MISMATCH, extra
            assert "step 5" in err

    @pytest.mark.parametrize("kind,step", [("shorter", 16), ("longer", 64), ("longer-differing", 1)],
                             ids=["shorter", "longer", "longer-differing"])
    def test_backend_length_mismatch_exits_three(self, capsys, monkeypatch, kind, step):
        true_tag = cli.BACKENDS["tag"]

        def tag(nu, order, kernel):
            if kind == "shorter":
                # the first quarter of a grown curve is a curve one order lower
                p = true_tag(nu, order, kernel)
                return CurvePath(p.side // 2, p.cells[:len(p) // 4])
            # transposed, variant 0 one order higher starts with the asked-for curve
            p = true_tag(nu, order + 1, kernel)
            return CurvePath(p.side, p.cells[:, ::-1] if kind == "longer" else p.cells)

        monkeypatch.setitem(cli.BACKENDS, "tag", tag)
        code, out, err = run_cli(capsys, "generate", "--order", "3", "--backend", "both")
        assert code == cli.EXIT_MISMATCH
        assert out == "" and f"at step {step}:" in err and "Traceback" not in err

    def test_mismatch_reported_from_run(self, monkeypatch, capsys):
        def stub(nu, order, kernel):
            p = cli.BACKENDS["affine"](nu, order, kernel)
            return CurvePath(p.side, np.flipud(p.cells).copy())

        monkeypatch.setitem(cli.BACKENDS, "tag", stub)
        args = cli._parser().parse_args(["generate", "--nu", "1", "--order", "2",
                                         "--backend", "both"])
        assert cli.run(args) == cli.EXIT_MISMATCH
        assert "backend disagreement" in capsys.readouterr().err


# values any fuzzed flag may take besides its own: out of range, over the
# cell budget, a non-ASCII digit that int() reads as 3, empty
FUZZ_VALUES = ("-1", "0", "1", "2", "3", "13", "99999999999", "\u0663", "all", "")
FUZZ_FLAGS = {
    "generate": ("--nu", "--order", "--backend"),
    "analyze": ("--nu", "--order", "--backend", "--convention"),
    "dilation": ("--nu", "--order", "--backend"),
    "diffmap": ("--nu", "--order", "--backend", "--convention", "--format"),
    "validate-kernel": (),
    "reproduce-tables": ("--convention",),
}
# kernel files written into the working directory of each example
FUZZ_KERNEL_FILES = {
    "bad.kernel": BAD_KERNEL.encode("ascii"),
    "accent.kernel": "# caf\u00e9\n".encode("utf-8") + UNIT_KERNEL.encode("ascii"),
    "caf\u00e9.kernel": UNIT_KERNEL.encode("ascii"),
}
# each flag's usual values; the empty output name exits 1
FUZZ_CHOICES = {
    "--nu": ("0", "1", "3", "all"), "--order": ("1", "2", "3"),
    "--backend": ("affine", "tag", "both"), "--convention": DIVISOR_CONVENTIONS,
    "--format": ("csv", "pgm"), "-o": ("out", "no-dir/out", ""),
    "--kernel": (*kernels.BUILTIN_KERNELS, "caf\u00e9.kernel"),
}
FUZZ_ODD = {"--kernel": ("bad.kernel", "accent.kernel", "missing.kernel", "no-dir/out")}


def fuzz_value(flag):
    return st.sampled_from(FUZZ_CHOICES[flag]) | \
        st.sampled_from(FUZZ_ODD.get(flag, ()) + FUZZ_VALUES)


@st.composite
def cli_argvs(draw):
    """A command with its own flags, sometimes one it does not take, in any order."""
    command = draw(st.sampled_from(list(FUZZ_FLAGS)))
    argv = [command]
    if command == "validate-kernel":
        argv.append(draw(fuzz_value("--kernel")))
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[command] + ("--kernel", "-o")), unique=True))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_CHOICES))))
    for flag in flags:
        argv += [flag, draw(fuzz_value(flag))]
    return argv


def _capped(build):
    """build, refusing any curve of more than 1,024 cells (order first: no huge power)."""
    def capped(nu, order, kernel):
        assert order <= 5 and len(kernel.path) * 4 ** (order - 1) <= 1024, (nu, order)
        return build(nu, order, kernel)
    return capped


@given(cli_argvs())
@settings(max_examples=200)
def test_fuzzed_argv_ends_in_a_documented_exit(argv):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        for name, data in FUZZ_KERNEL_FILES.items():
            Path(name).write_bytes(data)
        # a build past 1,024 cells fails the test: the drawn orders in the
        # budget are at most 3 (256 cells), and orders past it must be
        # refused before any build; the reference side shrinks so that
        # reproduce-tables builds 256 cells too
        for name, build in list(cli.BACKENDS.items()):
            mp.setitem(cli.BACKENDS, name, _capped(build))
        mp.setattr(locality, "REFERENCE_SIDE", 16)
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in range(5), code
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    if code != cli.EXIT_OK:
        return
    if "-o" in argv:
        assert text == ""
    elif argv[0] == "generate":
        head, cells = parse_curve_csv(text)
        assert is_space_filling_walk(head["side"], cells)
    elif argv[0] == "diffmap":
        rows = [line.split(",") for line in text.splitlines()]
        assert rows and all(len(row) == len(rows) for row in rows)
        assert all(math.isfinite(float(v)) for row in rows for v in row)
    else:
        assert text.endswith("\n")
        assert all(isinstance(json.loads(line), dict) for line in text.splitlines())


def peak_rss_mib(cwd, *argv) -> float:
    """Peak RSS of one ``python -m hhck.cli`` child, from os.wait4 (ru_maxrss is KiB on Linux)."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen([sys.executable, "-m", "hhck.cli", *argv], cwd=cwd,
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == cli.EXIT_OK, argv
    return usage.ru_maxrss / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_nu_all_keeps_no_finished_curve(tmp_path):
    # the loop holds one top-order curve at a time: 32 MiB is four
    # order-10 unit curves of int32 cells
    one = peak_rss_mib(tmp_path, "dilation", "--nu", "0", "--order", "10", "-o", "one.json")
    every = peak_rss_mib(tmp_path, "dilation", "--nu", "all", "--order", "10", "-o", "all")
    assert every <= one + 32, (one, every)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_order_eleven_map_and_dilation_hold_no_second_copy(tmp_path):
    # order 11 (side 2048): the CSV writer holds a band, as the PGM and
    # PPM writers do, and dilation_factor's pyramid and seed scan are
    # int32 beside the 32 MiB of int32 cells
    pgm = peak_rss_mib(tmp_path, "diffmap", "--order", "11", "--format", "pgm", "-o", "map.pgm")
    csv = peak_rss_mib(tmp_path, "diffmap", "--order", "11", "-o", "map.csv")
    assert csv <= pgm + 8, (pgm, csv)
    curve = peak_rss_mib(tmp_path, "generate", "--order", "11", "-o", "curve.csv")
    sigma = peak_rss_mib(tmp_path, "dilation", "--order", "11")
    assert sigma <= curve + 64, (curve, sigma)
    # the map stays int32 (16 MiB at side 2048), and its label grid and
    # differences are made a band and an offset at a time: an int64 copy
    # read +64 MiB, and a whole-curve scatter with two live diffs +32
    assert pgm <= curve + 24, (curve, pgm)
    stats = peak_rss_mib(tmp_path, "analyze", "--order", "11")
    assert stats <= curve + 30, (curve, stats)


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_child(imports, **env) -> list:
    """Task count, unchanged environment and OPENBLAS_NUM_THREADS of a child that runs imports."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import json, os; before = dict(os.environ); {imports}; "
            "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ) == before,"
            " os.environ.get('OPENBLAS_NUM_THREADS')]))")
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code], env=dict(clean, PYTHONPATH=str(src), **env),
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/task")
def test_hhck_loads_numpy_with_one_blas_thread():
    # no OpenBLAS worker spins beside the main thread, and the pin is undone
    assert blas_child("import hhck") == [1, True, None]


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc/self/task; OpenBLAS starts at most one thread per CPU")
def test_callers_blas_thread_count_is_kept():
    assert blas_child("import hhck", OPENBLAS_NUM_THREADS="2") == [2, True, "2"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/task")
def test_numpy_imported_first_keeps_its_pool():
    assert blas_child("import numpy; import hhck") == blas_child("import numpy")
