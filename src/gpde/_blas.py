"""Floating-point environment for gpde's small dense algebra: the OpenBLAS
thread count, flushing subnormals to zero during a fit, and how many CPUs
gpde's own work may keep busy.

numpy and scipy each load their own OpenBLAS.  On the few-hundred-row
matrices of a domain expert, waking a second BLAS thread costs more than the
call itself, so gpde's public entry points run on one thread and give the
caller's count back on return.
The libraries are found in ``/proc/self/maps`` and driven through their
exported ``*_set_num_threads`` functions with ctypes, as threadpoolctl does.
Where none is found (no ``/proc``, MKL, Accelerate) this module does nothing.

At short length-scales the RBF kernel underflows, and x86-64 cores take a
slow microcode path for every subnormal operand, so a hyperparameter fit can
spend most of its time in ``dpotrf``/``dpotri`` on numbers below 2.2e-308.
:func:`flush_subnormals` sets the SSE control register's flush-to-zero and
denormals-are-zero bits (MXCSR FTZ|DAZ) for the calling thread, through
libm's ``fegetenv``/``fesetenv`` with ctypes, and restores just those two
bits on exit.  A subnormal term is below half an ulp of any normal number
it is added to, so the fit's sums, factors and hyperparameters come out
with the same bits either way; tests check this at a length-scale where the
kernel underflows.  Prediction does not flush: its outputs can themselves be
subnormal.  Other Python threads, and OpenBLAS's own worker threads, keep
their own MXCSR; a thread started inside the scope inherits it, as POSIX
threads inherit the floating-point environment.  Off Linux x86-64, or where
a self-check finds the bits have no effect, the scope does nothing.

One rule says how many CPUs gpde's work in a process may use,
:func:`usable_cpus`: the CPUs the process may run on
(``os.sched_getaffinity``), or 1 where the platform cannot tell, or 1
inside :func:`one_cpu`.  A fit runs its two L-BFGS-B starts on two Python
threads only where more than one CPU is usable (and the fit is large
enough, see ``gpde.gp_core.fit_detailed``), and ``run_benchmark``
forks one process per usable CPU and runs its work inside ``one_cpu``, so
its processes, which already fill every CPU, each fit on one thread.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import sys
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
_one_cpu = 0  # open one_cpu entries, over all Python threads
_saved: list[int] = []
# (fegetenv, fesetenv) when flushing works on this machine, () when it does
# not; looked up on first use
_fenv: tuple | None = None

FLUSH_BITS = 0x8040  # MXCSR bit 15, flush to zero, and bit 6, denormals are zero


class _FenvT(ctypes.Structure):
    """x86-64 ``fenv_t`` of glibc and musl: the 28-byte x87 environment, then MXCSR."""

    _fields_ = [("x87", ctypes.c_uint16 * 14), ("mxcsr", ctypes.c_uint32)]


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


def usable_cpus() -> int:
    """How many CPUs gpde's work in this process may keep busy: 1 inside
    :func:`one_cpu` and where the platform cannot tell, else the CPUs the
    process may run on."""
    if _one_cpu or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def one_cpu():
    """Run the body with :func:`usable_cpus` at 1, in this process and in
    the processes it forks inside the body: for work that already fills
    every CPU with processes.  Entries are counted across Python threads."""
    global _one_cpu
    with _lock:
        _one_cpu += 1
    try:
        yield
    finally:
        with _lock:
            _one_cpu -= 1


def _set_flush_bits(fenv: tuple, bits: int) -> int:
    """Set the calling thread's MXCSR FTZ|DAZ bits to ``bits``; return what they were."""
    get, set_ = fenv
    env = _FenvT()
    if get(ctypes.byref(env)) != 0:
        raise OSError("fegetenv failed")
    before = env.mxcsr & FLUSH_BITS
    env.mxcsr = (env.mxcsr & ~FLUSH_BITS) | bits
    if set_(ctypes.byref(env)) != 0:
        raise OSError("fesetenv failed")
    return before


def _find_fenv() -> tuple:
    """libm's ``(fegetenv, fesetenv)`` if setting FTZ|DAZ through them flushes
    ``sys.float_info.min * 0.5`` to zero here, else ``()``."""
    if sys.platform != "linux" or platform.machine() != "x86_64":
        logger.debug("subnormals not flushed in fits: %s %s is not Linux x86-64",
                     sys.platform, platform.machine())
        return ()
    try:
        libm = ctypes.CDLL("libm.so.6")
        fenv = (libm.fegetenv, libm.fesetenv)
        for fn in fenv:
            fn.argtypes, fn.restype = [ctypes.POINTER(_FenvT)], ctypes.c_int
        before = _set_flush_bits(fenv, FLUSH_BITS)
        try:
            flushed = sys.float_info.min * 0.5 == 0.0  # evaluated now, under FTZ
        finally:
            _set_flush_bits(fenv, before)
    except (OSError, AttributeError) as exc:
        logger.debug("subnormals not flushed in fits: no usable libm fenv (%s)", exc)
        return ()
    if not flushed:
        logger.debug("subnormals not flushed in fits: MXCSR FTZ|DAZ had no effect")
        return ()
    logger.debug("subnormals flushed to zero in fits (MXCSR FTZ|DAZ, per thread)")
    return fenv


@contextmanager
def flush_subnormals():
    """Run the body with subnormals flushed to zero in the calling thread.

    Sets MXCSR FTZ|DAZ and on exit restores those two bits as the entry
    found them, so nested scopes and a caller that flushes already are left
    as they were; every other MXCSR bit is the body's.  Where flushing is not
    available (see the module docstring) the body runs as it is.
    """
    global _fenv
    if _fenv is None:
        with _lock:
            if _fenv is None:
                _fenv = _find_fenv()
    fenv = _fenv
    if not fenv:
        yield
        return
    before = _set_flush_bits(fenv, FLUSH_BITS)
    try:
        yield
    finally:
        _set_flush_bits(fenv, before)
