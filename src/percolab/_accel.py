"""Optional numba compilation of the one kernel, _kernels.dfs_explore.

When numba imports, ``njit(f)`` is ``numba.njit(cache=True)(f)`` and the
kernel receives numpy arrays.  Otherwise ``njit(f)`` is
``memoryview_kernel(f)``: the interpreter runs ``f`` on memoryviews of
its ndarray arguments, whose items index as plain Python ints and bools
instead of numpy scalars, several times faster in a loop.  Writes go
through to the caller's arrays.  So a kernel body may only index, take
``len`` and assign items of its array arguments, which both paths allow.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["memoryview_kernel", "njit"]


def memoryview_kernel(func):
    """``func`` called with every ndarray argument as a memoryview."""

    @functools.wraps(func)
    def kernel(*args):
        return func(*[memoryview(a) if isinstance(a, np.ndarray) else a for a in args])

    kernel.py_func = func  # as on a numba dispatcher
    return kernel


try:
    from numba import njit as _numba_njit
except ImportError:
    njit = memoryview_kernel
else:

    def njit(func):
        return _numba_njit(cache=True)(func)
