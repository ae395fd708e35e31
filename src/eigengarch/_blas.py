"""One OpenBLAS thread for the package's numerical work.

The package's BLAS calls are small (L-BFGS-B steps, T x p products, p x p
eigendecompositions, the FHS draws). With more threads, OpenBLAS helpers
busy-wait between such calls and compete with the caller for a core.
``single_threaded`` sets every loaded OpenBLAS copy to one thread for the
outermost decorated call and restores the caller's counts when the last one
returns. The thread count is process-wide, so this module's state is too.
Where no OpenBLAS is loaded it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading

_SYMBOLS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_")

_lock = threading.Lock()
_depth = 0          # decorated calls in progress, over all threads
_saved: list = []   # the caller's counts, restored when _depth returns to 0
_libs = None        # library file name -> (get, set), found on first use


def _libraries() -> dict:
    global _libs
    if _libs is None:
        try:
            with open("/proc/self/maps") as fh:
                paths = {parts[5] for parts in map(str.split, fh)
                         if len(parts) == 6 and "openblas" in os.path.basename(parts[5])}
        except OSError:
            paths = set()
        found = {}
        for path in sorted(paths):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for pattern in _SYMBOLS:
                try:
                    get, set_ = (getattr(lib, pattern.format(v)) for v in ("get", "set"))
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found[os.path.basename(path)] = (get, set_)
                break
        _libs = found
    return _libs


def thread_counts() -> dict:
    """Current thread count of every loaded OpenBLAS, by library file name."""
    return {name: get() for name, (get, _) in _libraries().items()}


def single_threaded(fn):
    """Run ``fn`` with every loaded OpenBLAS on one thread.

    Nested and concurrent calls share one pin: the first to enter sets the
    counts to one and the last to leave restores the caller's counts, also
    when ``fn`` raises.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                libs = _libraries().values()
                _saved = [get() for get, _ in libs]
                for _, set_ in libs:
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for (_, set_), n in zip(_libraries().values(), _saved):
                        set_(n)

    return wrapper


@single_threaded
def pinned_thread_counts() -> dict:
    """Thread count of every loaded OpenBLAS inside the package's calls."""
    return thread_counts()
