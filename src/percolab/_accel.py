"""Optional numba compilation of the one kernel, _kernels.dfs_explore.

When numba imports, ``njit(f)`` is ``numba.njit(cache=True)(f)`` and the
kernel receives numpy arrays.  Otherwise ``njit(f)`` is
``memoryview_kernel(f)``: the interpreter runs ``f`` on plain Python
containers of its ndarray arguments, whose items index as Python ints
instead of numpy scalars, several times faster in a loop.  A uint8
array travels as a bytearray copy, the fastest of these to index, and
is copied back after the call; any other array as a memoryview.  Either
way writes reach the caller's arrays.  So a kernel body may only index,
take ``len`` and assign items of its flat array arguments, which both
paths allow.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["memoryview_kernel", "njit"]


def _container(a):
    if not isinstance(a, np.ndarray):
        return a
    return bytearray(a) if a.dtype == np.uint8 else memoryview(a)


def memoryview_kernel(func):
    """``func`` called with every uint8 ndarray argument as a bytearray,
    copied back afterwards, and every other one as a memoryview."""

    @functools.wraps(func)
    def kernel(*args):
        views = [_container(a) for a in args]
        try:
            return func(*views)
        finally:
            for a, v in zip(args, views):
                if isinstance(v, bytearray) and a.flags.writeable:
                    a[:] = np.frombuffer(v, dtype=np.uint8)

    kernel.py_func = func  # as on a numba dispatcher
    return kernel


try:
    from numba import njit as _numba_njit
except ImportError:
    njit = memoryview_kernel
else:

    def njit(func):
        return _numba_njit(cache=True)(func)
