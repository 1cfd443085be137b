"""Bundled kernels and kernel file loading.

Three kernels ship with the package:

    unit   the 2x2 up-right-down seed; grows the twelve classic curves
    mouse  a 4x4 seed with diagonal strokes
    frog   a 4x4 seed with diagonal strokes

The mouse and frog cell sequences were recovered by exhaustive search
over all valid 4x4 kernels, filtered on the per-variant difference-map
statistics of the curve families they grow (medians, interior minima,
and the twelve map maxima within printed rounding); ties were broken by
a documented deterministic rule (see scripts/find_kernels.py).  The
chosen sequences are pinned by checksum here and verified by the test
suite.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..core import MAX_CELLS, KernelFormatError, KernelSpec, format_kernel_text, parse_kernel_text

BUILTIN_KERNELS = ("unit", "mouse", "frog")

#: Longest kernel file read: the strokes of the largest kernel plus 64 KiB.
MAX_KERNEL_BYTES = MAX_CELLS + (1 << 16)

# sha256 of the canonical three-line kernel text
KERNEL_SHA256 = {
    "unit": "0035b0e51c93e9b8f50015534f1f4d5fb17dc6ddefaa5ede857c75ed5d729599",
    "mouse": "86a42e535ba207432033e4de94c6d8c2f1bd3f135fdadbde67d2ef237bc5a205",
    "frog": "d61fcde5013f4b066e148b9f7e7b3171bddf87fc7720a18d96e6af52c2bf8a94",
}


def kernel_checksum(spec: KernelSpec) -> str:
    """sha256 of the canonical kernel text; pins a transcription."""
    # imported here: hashlib loads OpenSSL, which only checksums need
    import hashlib

    return hashlib.sha256(format_kernel_text(spec).encode("ascii")).hexdigest()


def load_bundled(name: str) -> KernelSpec:
    """Load one of the shipped kernels by name."""
    if name not in BUILTIN_KERNELS:
        raise KernelFormatError(f"unknown kernel {name!r}, expected one of {BUILTIN_KERNELS}")
    text = resources.files("hhck.kernels").joinpath(f"{name}.kernel").read_text("ascii")
    return parse_kernel_text(text, name)


def resolve_kernel(name_or_path: str) -> KernelSpec:
    """A bundled kernel name, or a path to a kernel file."""
    if name_or_path in BUILTIN_KERNELS:
        return load_bundled(name_or_path)
    path = Path(name_or_path)
    with open(path, "rb") as fh:
        data = fh.read(MAX_KERNEL_BYTES + 1)
    if len(data) > MAX_KERNEL_BYTES:
        raise KernelFormatError(f"{path}: longer than {MAX_KERNEL_BYTES} bytes")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise KernelFormatError(f"{path}: byte {exc.start} is not ASCII") from exc
    return parse_kernel_text(text, path.stem)
