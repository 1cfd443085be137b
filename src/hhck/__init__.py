"""Homogeneous Hilbert curves grown from arbitrary kernels.

Twelve curve variants (Hilbert, Moore, four Liu curves and six
reversal-based ones) are generated by two independent engines, an
affine recursion and a stroke-rewriting tag system, and analyzed for
locality: dilation factor, neighbor difference maps and their
statistics, locality barriers and quadrant boundary profiles.
"""

from .core import (
    AXIAL_STROKES,
    BadEntryExit,
    CurveError,
    CurvePath,
    DIAGONAL_STROKES,
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
    StrokeString,
    format_kernel_text,
    parse_kernel_text,
    path_to_strokes,
    reverse,
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
    BarrierMask,
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
