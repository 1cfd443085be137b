"""Homogeneous Hilbert curves grown from arbitrary kernels.

Twelve curve variants (Hilbert, Moore, four Liu curves and six
reversal-based ones) are generated by two independent engines, an
affine recursion and a stroke-rewriting tag system, and analyzed for
locality: dilation factor, neighbor difference maps and their
statistics, locality barriers and quadrant boundary profiles.

hhck runs on one thread and calls no BLAS routine, so it loads numpy
with a one-thread OpenBLAS pool unless the caller set a thread count or
imported numpy first, and leaves ``os.environ`` as it found it.
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
    RuleSet,
    apply_affine,
    build_curve,
    grow_once,
)
from .tags import TAG_RULES, TagRule, expand
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
