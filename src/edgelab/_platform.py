"""The one platform decision: numpy's bundled OpenBLAS, or any other BLAS.

:func:`openblas` binds the routines the package calls from the OpenBLAS of
numpy's wheel; any other BLAS, or a library lacking one of them, gets None.
So there are two routes: a pool pinned to one BLAS thread with the margin-row
SVD, or the |k| solved in turn by np.linalg.svd.  Nothing is looked up at
import; callers go through this module, so one substitution switches both.
"""

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np


def usable_cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _library_files():
    """numpy's bundled OpenBLAS files; the first is the copy numpy has loaded."""
    return sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))


@functools.cache
def openblas():
    """The routines bound from numpy's bundled OpenBLAS, by short name:
    ``get_num_threads``, ``set_num_threads`` and the LAPACKE routines the
    spectrum's SVD calls; None without the library or any one of them."""
    try:
        lib = ctypes.CDLL(str(_library_files()[0]))
    except (IndexError, OSError):
        return None
    i, ch, L = ctypes.c_int64, ctypes.c_char, ctypes.c_int  # L: LAPACKE's matrix_layout
    d, z = (np.ctypeslib.ndpointer(t, flags="F") for t in (np.float64, np.complex128))
    signatures = {  # name: (restype, *argtypes)
        "get_num_threads": (ctypes.c_int,),
        "set_num_threads": (None, ctypes.c_int),
        "dlange": (ctypes.c_double, L, ch, i, i, d, i),
        "zlange": (ctypes.c_double, L, ch, i, i, z, i),
        "dlascl": (i, L, ch, i, i, ctypes.c_double, ctypes.c_double, i, i, d, i),
        "zlascl": (i, L, ch, i, i, ctypes.c_double, ctypes.c_double, i, i, z, i),
        "dgebrd": (i, L, i, i, d, i, d, d, d, d),
        "zgebrd": (i, L, i, i, z, i, d, d, z, z),
        "dbdsdc": (i, L, ch, ch, i, d, d, d, i, d, i, ctypes.c_void_p, ctypes.c_void_p),
        "dormbr": (i, L, ch, ch, ch, i, i, i, d, i, d, d, i),
        "zunmbr": (i, L, ch, ch, ch, i, i, i, z, i, z, z, i),
    }
    routines = {}
    for name, (restype, *argtypes) in signatures.items():
        family = "openblas" if name.endswith("_threads") else "LAPACKE"
        if (routine := getattr(lib, f"scipy_{family}_{name}64_", None)) is None:
            return None
        routine.argtypes, routine.restype = argtypes, restype
        routines[name] = routine
    return routines


_PIN_LOCK = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, whose results do not depend on the
    caller's count, and restore that count on exit; yields whether it pinned.
    The count is process-wide: one thread at a time saves, pins, restores it."""
    if (blas := openblas()) is None:
        yield False
        return
    with _PIN_LOCK:
        saved = blas["get_num_threads"]()
        blas["set_num_threads"](1)
        try:
            yield True
        finally:
            blas["set_num_threads"](saved)
