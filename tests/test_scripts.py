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

from hhck.core import CurvePath
from hhck.kernels import BUILTIN_KERNELS, load_bundled

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,header", [
    (["dilation_sweep.py", "--orders", "1", "3", "--kernels", "unit"], "order,sigma_unit"),
    (["boundary_profiles.py", "--nu", "0"], "row,nu00"),
    (["resolve_convention.py", "--orders", "4", "5"],
     "order side convention mean max min median entr pct columns matching"),
], ids=["dilation_sweep", "boundary_profiles", "resolve_convention"])
def test_script_runs(argv, header):
    proc = subprocess.run([sys.executable, str(Path("scripts", argv[0])), *argv[1:]],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == header.split()



@pytest.mark.parametrize("argv", [
    ["dilation_sweep.py", "--orders", "1", "7"],
    ["boundary_profiles.py", "--nu", *map(str, range(12))],
], ids=["dilation_sweep", "boundary_profiles"])
def test_script_ends_quietly_when_stdout_closes(argv):
    # unbuffered, every row is its own write.  dilation_sweep prints its
    # header before it builds a curve; boundary_profiles writes about
    # 25 kB into a one-page pipe.  Either way rows are still to come when
    # the reader closes after the first line.
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, str(Path("scripts", argv[0])), *argv[1:]],
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1"),
                            stdout=write_end, stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    with os.fdopen(read_end) as out:
        assert out.readline().startswith(("order,", "row,"))
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err, err
    assert proc.returncode == 1


def test_find_kernels_enumeration():
    spec = importlib.util.spec_from_file_location("find_kernels",
                                                  ROOT / "scripts" / "find_kernels.py")
    find_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(find_kernels)
    seeds = find_kernels.enumerate_seed_paths()
    assert len(seeds) == 5092
    assert not any(find_kernels.has_crossing(load_bundled(name).path)
                   for name in BUILTIN_KERNELS)
    plain = [s for s in seeds
             if not find_kernels.has_crossing(CurvePath(4, np.array(s, dtype=np.int64)))]
    assert len(plain) == 900
