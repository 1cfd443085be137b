"""Smoke runs of the scripts in scripts/, which import library internals.

Each script runs as the README says, from the repository root with
PYTHONPATH=src, at a small size.
"""

import contextlib
import fcntl
import importlib.util
import inspect
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhck import cli
from hhck.affine import build_curve
from hhck.core import CurvePath, KernelSpec, strokes_to_path
from hhck.kernels import BUILTIN_KERNELS, load_bundled

ROOT = Path(__file__).resolve().parent.parent

# the finalists a full find_kernels.py run prints, best first
FINALISTS = {
    "mouse": ["rulalurburdgdad", "adtalurburdgdad"],
    "frog": ["rtrturdadadgrgr", "rtrturrgradgrgr", "rtrtububurdgrgr", "rtrtubrtrrdgrgr"],
}


def run_script(*argv):
    return subprocess.run([sys.executable, str(Path("scripts", argv[0])), *argv[1:]],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def find_kernels():
    spec = importlib.util.spec_from_file_location("find_kernels",
                                                  ROOT / "scripts" / "find_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv,header", [
    (["dilation_sweep.py", "--orders", "1", "3", "--kernels", "unit"], "order,sigma_unit"),
    (["boundary_profiles.py", "--nu", "0"], "row,nu00"),
    (["resolve_convention.py", "--orders", "4", "5"],
     "order side convention mean max min median entr pct columns matching"),
], ids=["dilation_sweep", "boundary_profiles", "resolve_convention"])
def test_script_runs(argv, header):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == header.split()


def test_convention_scan_result():
    # the scan result the README and the locality docstring cite
    proc = run_script("resolve_convention.py", "--orders", "8", "8")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[2]: line.split()[-1] for line in proc.stdout.splitlines()[1:3]}
    assert rows == {"divisor8": "max,interior_min,median", "neighbors": "interior_min,median"}


@pytest.mark.parametrize("argv,first", [
    (["dilation_sweep.py", "--orders", "1", "7"], "order,"),
    (["boundary_profiles.py", "--nu", *map(str, range(12))], "row,"),
    (["find_kernels.py"], "5092 Hamiltonian king paths"),
    (["resolve_convention.py", "--orders", "4", "9"], "order "),
], ids=["dilation_sweep", "boundary_profiles", "find_kernels", "resolve_convention"])
def test_script_ends_quietly_when_stdout_closes(argv, first):
    # unbuffered, every row is its own write.  dilation_sweep,
    # find_kernels and resolve_convention print their first line before
    # the work behind the next; boundary_profiles writes about 25 kB into
    # a one-page pipe.  Either way rows are still to come when the reader
    # closes after the first line.
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, str(Path("scripts", argv[0])), *argv[1:]],
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
                            stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    with os.fdopen(read_end) as out:
        assert out.readline().startswith(first)
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err, err
    assert proc.returncode == 1


def test_find_kernels_enumeration(find_kernels):
    seeds = find_kernels.enumerate_seed_paths()
    assert len(seeds) == 5092
    assert not any(find_kernels.has_crossing(load_bundled(name).path)
                   for name in BUILTIN_KERNELS)
    plain = [s for s in seeds
             if not find_kernels.has_crossing(CurvePath(4, np.array(s, dtype=np.int64)))]
    assert len(plain) == 900


@pytest.mark.parametrize("name", ["mouse", "frog"])
def test_find_kernels_recovers_bundled_kernel(find_kernels, name):
    kernel = load_bundled(name)
    published = getattr(find_kernels, f"{name.upper()}_MAX")
    assert find_kernels.fits(find_kernels.fingerprint(kernel),
                             getattr(find_kernels, f"{name.upper()}_PRINT"))
    maxima, minima = find_kernels.variant_maxima_and_minima(kernel)
    assert minima == getattr(find_kernels, f"{name.upper()}_MIN")
    assert len(maxima) == 12
    assert all(abs(m - t) <= 1 for m, t in zip(maxima, published))
    # ranked from the printed order reversed, so the sort has work to do
    finalists = [KernelSpec("kernel", strokes_to_path(s, 4))
                 for s in reversed(FINALISTS[name])]
    ranked = sorted(finalists, key=lambda k: find_kernels.rank_key(k, published))
    assert [k.strokes for k in ranked] == FINALISTS[name]
    assert FINALISTS[name][0] == kernel.strokes


def test_readme_quick_start_runs():
    # the README's one python block, run as written; its first line prints side and cells
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "8 64"


def test_readme_curve_csv_recipe_reads_generate_output(tmp_path):
    # the README's two curve-CSV expressions, evaluated as written, on a
    # kernel file whose stem holds a comma and a '#'
    readme = (ROOT / "README.md").read_text("utf-8")
    load, unescape = (re.search(rf"`({start}[^`]*)`", readme).group(1)
                      for start in (r"np\.loadtxt\(path", r"name\.encode"))
    kernel_file = tmp_path / "a,b#c.kernel"
    kernel_file.write_text("side 2\norigin 0 0\nstrokes urd\n")
    path = tmp_path / "c.csv"
    code = cli.main(["generate", "--kernel", str(kernel_file), "--nu", "9", "--order", "3",
                     "-o", str(path)])
    assert code == cli.EXIT_OK
    rows = eval(load, {"np": np, "path": path})
    cells = build_curve(9, 3, load_bundled("unit")).cells
    assert np.array_equal(rows[:, 0], np.arange(len(cells)))
    assert np.array_equal(rows[:, 1:], cells)
    name = path.read_text("ascii").split("\n", 1)[0].split(",")[2]
    assert eval(unescape, {"name": name}) == "a,b#c"


def test_readme_command_lines_run(monkeypatch, tmp_path):
    # every line of the README's "Command line" block, run in an empty
    # directory with its repository paths resolved against the root
    readme = (ROOT / "README.md").read_text("utf-8")
    lines = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1).splitlines()
    assert lines and all(line.startswith("hhck ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line, comments=True)
        argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv[1:])
        assert code == cli.EXIT_OK, line
        assert "-o" in argv or out.getvalue(), line


def test_names_the_benchmark_tracer_binds_exist():
    # perfbench/tracing.py rebinds these names to timing wrappers in every
    # traced run, its self-test included; renaming one breaks the benchmark
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, attr, _ in tracing.TRACED:
        assert mod_name.startswith("hhck.")
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)
    for mod_name in tracing.MODULES:
        importlib.import_module(mod_name)
    for mod_name in tracing.CURVEPATH_CALLERS:
        assert importlib.import_module(mod_name).CurvePath is CurvePath, mod_name
    assert callable(importlib.import_module("hhck.affine").build_curve.cache_info)
    # every library call of perfbench/worker.py and the tracer, in the
    # shape they make it: dropping or renaming an argument fails here
    nu = n = k = p = m = mask = s = fh = c = side = cells = object()
    calls = [
        ("hhck.kernels", "resolve_kernel", (k,), {}),
        ("hhck.affine", "build_curve", (nu, n, k), {}),
        ("hhck.tags", "generate", (nu, n, k), {}),
        ("hhck.locality", "difference_map", (p,), {"convention": c, "order": n}),
        ("hhck.locality", "diff_stats", (m,), {}),
        ("hhck.io", "stats_record", (s, c, n), {"extra": {}}),
        ("hhck.locality", "barrier_mask", (m,), {}),
        ("hhck.locality", "boundary_profile", (m,), {}),
        ("hhck.locality", "boundary_run_fraction", (mask, s), {}),
        ("hhck.io", "write_diffmap_csv", (fh, m), {}),
        ("hhck.io", "write_diffmap_pgm", (fh, m), {}),
        ("hhck.io", "write_barrier_ppm", (fh, m, mask), {}),
        ("hhck.locality", "dilation_factor", (p,), {}),
        ("hhck.core", "CurvePath", (side, cells), {}),
    ]
    for mod_name, attr, args, kwargs in calls:
        fn = getattr(importlib.import_module(mod_name), attr)
        inspect.signature(fn).bind(*args, **kwargs)
