"""Smoke runs of the scripts in scripts/, which import library internals.

Each script runs as the README says, from the repository root with
PYTHONPATH=src, at a small size.
"""

import fcntl
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hhck.core import CurvePath, StrokeString, strokes_to_path, validate_kernel
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
    finalists = [validate_kernel(strokes_to_path(StrokeString(s, (0, 0)), 4))
                 for s in reversed(FINALISTS[name])]
    ranked = sorted(finalists, key=lambda k: find_kernels.rank_key(k, published))
    assert [k.strokes.strokes for k in ranked] == FINALISTS[name]
    assert FINALISTS[name][0] == kernel.strokes.strokes
