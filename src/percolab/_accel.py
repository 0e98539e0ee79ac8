"""Optional numba compilation of the loops in _kernels.

``njit(f)`` is ``numba.njit(cache=True)(f)`` when numba imports and
``f`` itself otherwise; the kernels are plain functions over numpy
arrays either way.
"""

from __future__ import annotations

__all__ = ["njit"]

try:
    from numba import njit as _numba_njit
except ImportError:

    def njit(func):
        return func

else:

    def njit(func):
        return _numba_njit(cache=True)(func)
