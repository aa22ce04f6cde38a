"""Thread count and kernel set of the OpenBLAS that numpy ships with.

numpy wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_-<hash>.so``
and export its thread controls as ``scipy_openblas_{get,set}_num_threads64_``.
The count is process-wide: OpenBLAS has no per-thread setting that leaves
other threads alone (in 0.3.31 its ``_local`` setter changes the count that
every thread sees).
The library is built for many CPUs and picks its kernels (its core, such as
``SkylakeX`` or ``Haswell``) when it loads, by the CPU or by the
``OPENBLAS_CORETYPE`` environment variable; ``core`` names the one it runs.
Products can give other bits on other cores, so a run's log names its core.
A numpy built against another BLAS, or a wheel laid out differently, has no
such library; then ``num_threads`` and ``core`` return None and
``single_threaded`` changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from collections.abc import Iterator

import numpy as np

_LIBRARY_GLOB = "libscipy_openblas64_-*.so"
_GET = "scipy_openblas_get_num_threads64_"
_SET = "scipy_openblas_set_num_threads64_"
_CORE = "scipy_openblas_get_corename64_"


@functools.cache
def _controls():
    """``(get, set, core)``: the getter and setter of numpy's OpenBLAS
    thread count and the getter of its core name, or None if missing.

    Opening the library numpy has already loaded returns that same copy, so
    the calls act on the BLAS that numpy's matmul runs on.
    """
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, _LIBRARY_GLOB))):
        try:
            lib = ctypes.CDLL(path)
            get, set_, core_ = getattr(lib, _GET), getattr(lib, _SET), getattr(lib, _CORE)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        core_.argtypes, core_.restype = [], ctypes.c_char_p
        return get, set_, core_
    return None


def num_threads() -> int | None:
    """numpy's BLAS thread count, or None when it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[0]()


def core() -> str | None:
    """The core whose kernels numpy's BLAS runs, such as ``SkylakeX``, or
    None when it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[2]().decode()


@contextlib.contextmanager
def single_threaded() -> Iterator[None]:
    """Run the block with numpy's BLAS at one thread, restoring the previous
    count on the way out, also on error. Without the thread controls the
    block runs with BLAS as it was."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_, _ = controls
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)
