"""Homogeneous Hilbert curves grown from arbitrary kernels.

Twelve curve variants (Hilbert, Moore, four Liu curves and six
reversal-based ones) are generated by two independent engines, an
affine recursion and a stroke-rewriting tag system, and analyzed for
locality: dilation factor, neighbor difference maps and their
statistics, locality barriers and quadrant boundary profiles.

hhck runs on one thread and calls no BLAS routine, so it loads numpy
with a one-thread OpenBLAS pool unless the caller set a thread count or
imported numpy first, and leaves ``os.environ`` as it found it.

Under glibc it also sets malloc's mmap threshold to 1 MiB and its trim
threshold to 16 MiB, once.  By default a freed array goes back to the
kernel, mapped or trimmed off the heap top, and the next array of that
size faults the same pages in again.  With these settings every array
of a side-256 curve comes from a heap that keeps up to 16 MiB free at
its top, and larger blocks are still mapped and unmapped.  Setting
either threshold turns glibc's dynamic threshold off, so both are set.
A caller who set ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_``,
``MALLOC_TOP_PAD_``, ``MALLOC_MMAP_MAX_`` or a ``glibc.malloc.`` entry
in ``GLIBC_TUNABLES`` keeps their own policy.
"""

import os as _os

# OpenBLAS reads its thread count once, when numpy loads it, and every
# extra pool worker busy-waits about 0.1 s of CPU before it sleeps.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(v in _os.environ for v in _THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
                "MALLOC_MMAP_MAX_")
if (not any(v in _os.environ for v in _MALLOC_VARS)
        and "glibc.malloc." not in _os.environ.get("GLIBC_TUNABLES", "")):
    import ctypes as _ctypes  # numpy imports it too

    try:
        _mallopt = _ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt, or no C library by name
        pass
    else:
        _mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD

from .core import (
    BadEntryExit,
    CurveError,
    CurvePath,
    DiscontinuousJunction,
    GridPoint,
    KernelFormatError,
    KernelSpec,
    NonAdjacentStep,
    NotSpaceFilling,
    OutOfBounds,
    RevisitedCell,
    STROKES,
    STROKE_VECTORS,
    format_kernel_text,
    parse_kernel_text,
    path_to_strokes,
    strokes_to_path,
)
from .affine import (
    AffineMap,
    RULE_SETS,
    apply_affine,
    build_curve,
    grow_once,
)
from .tags import TAG_RULES, expand
from .tags import generate as tag_generate
from .locality import (
    DEFAULT_CONVENTION,
    DIVISOR_CONVENTIONS,
    DiffStats,
    DifferenceMap,
    REFERENCE_SIDE,
    barrier_mask,
    boundary_profile,
    boundary_run_fraction,
    diff_stats,
    difference_map,
    dilation_factor,
    reference_order,
)
from .kernels import BUILTIN_KERNELS, kernel_checksum, load_bundled, resolve_kernel

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
