"""OpenBLAS thread count for gpde's small dense algebra.

numpy and scipy each load their own OpenBLAS.  On the few-hundred-row
matrices of a domain expert, waking a second BLAS thread costs more than the
call itself, so gpde's public entry points run on one thread and give the
caller's count back on return.
The libraries are found in ``/proc/self/maps`` and driven through their
exported ``*_set_num_threads`` functions with ctypes, as threadpoolctl does.
Where none is found (no ``/proc``, MKL, Accelerate) this module does nothing.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading
from contextlib import contextmanager

logger = logging.getLogger(__name__)

# (get, set) pairs, first match per library: numpy's copy, scipy's, plain OpenBLAS.
_SYMBOLS = [
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
]

_lock = threading.Lock()
_libs: list | None = None  # (file name, get, set) per library, found on first use
_depth = 0  # open blas_threads entries, over all Python threads
_saved: list[int] = []


def _find_libraries() -> list:
    """Every loaded OpenBLAS that exports one of the ``_SYMBOLS`` pairs."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                path = fields[5].strip() if len(fields) == 6 else ""
                if "openblas" in os.path.basename(path) and ".so" in path and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                found.append((os.path.basename(path), getter, setter))
                break
    return found


@contextmanager
def blas_threads(n: int):
    """Run the body with ``n`` threads in every OpenBLAS found.

    Entries are counted across Python threads: the outermost sets the count
    and the last exit restores what it found, so nested and concurrent gpde
    calls all run at the outermost entry's ``n``.  The count is
    process-wide, so while any gpde call is open, BLAS work that other Python
    threads do outside gpde also runs at ``n``.  A count changed from another
    thread during the body is overwritten on exit.
    """
    global _libs, _depth, _saved
    with _lock:
        if _depth == 0:
            first = _libs is None
            if first:
                _libs = _find_libraries()
                if not _libs:
                    logger.debug("no OpenBLAS thread control found; BLAS threads left alone")
            _saved = [get() for _, get, _ in _libs]
            for _, _, setter in _libs:
                setter(n)
            if first:
                for (name, get, _), before in zip(_libs, _saved):
                    logger.debug("BLAS %s: %d threads outside gpde calls, %d inside",
                                 name, before, get())
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, _, setter), count in zip(_libs, _saved):
                    setter(count)

