"""One BLAS thread while fedanon computes.

numpy's bundled OpenBLAS starts one thread per core. At fedanon's sizes a
product such as the attack MLP's 32-row forward pass is handed to a second
thread that then spins for the whole fit, and two processes on one machine
oversubscribe its cores. `one_thread()` pins OpenBLAS to one thread for the
block it guards. OpenBLAS splits a product's output between its threads,
not its reductions, so every result is bitwise the same at any count.

Only the OpenBLAS that numpy's wheels bundle is found: numpy >= 2 ships
`numpy.libs/libscipy_openblas*` with `scipy_openblas_{get,set}_num_threads64_`,
numpy 1.x `libopenblas64_*` with `openblas_{get,set}_num_threads64_`. Any
other BLAS (a system OpenBLAS, MKL, Accelerate) is left alone.
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

# (library name pattern, thread-count getter, setter) of each bundled build
_BUILDS = (
    ("libscipy_openblas*", "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("libopenblas64_*", "openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


class ThreadControl(NamedTuple):
    """OpenBLAS's calls that read and set its process-wide thread count."""

    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas() -> ThreadControl | None:
    """The thread-count calls of numpy's bundled OpenBLAS, or None. Looked
    up once, on first use, so importing fedanon loads nothing."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for pattern, get, set_ in _BUILDS:
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
                getter, setter = getattr(lib, get), getattr(lib, set_)
            except (OSError, AttributeError):
                continue
            getter.restype, getter.argtypes = ctypes.c_int, []
            setter.restype, setter.argtypes = None, [ctypes.c_int]
            return ThreadControl(getter, setter)
    return None


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS at one thread and restore the previous
    count on the way out, also on an exception; a no-op without a bundled
    OpenBLAS. The count is process-wide, so enter it from one thread at a
    time."""
    blas = _openblas()
    if blas is None:
        yield
        return
    previous = blas.get()
    blas.set(1)
    try:
        yield
    finally:
        blas.set(previous)
