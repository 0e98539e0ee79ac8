import numpy as np
import pytest

from percolab import _accel, _kernels


def _numba_importable() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def test_memoryview_kernel_converts_only_arrays():
    probe = _accel.memoryview_kernel(lambda a, k, b: (type(a), k, type(b)))
    assert probe(np.zeros(3, dtype=np.int32), 4, [1]) == (memoryview, 4, list)
    assert probe.py_func.__name__ == "<lambda>"


@pytest.mark.skipif(_numba_importable(), reason="numba compiles the kernels")
def test_interpreted_kernels_take_memoryviews():
    assert _accel.njit is _accel.memoryview_kernel
    assert _kernels.dfs_explore.py_func.__name__ == "dfs_explore"


def test_fallback_dfs_writes_reach_caller_with_short_order(c6):
    # cycle 0-1-2-3-4-5-0; vertex 0 starts rejected and the root order
    # [4, 1] is shorter than n
    explore = _accel.memoryview_kernel(_kernels.dfs_explore.py_func)
    n = c6.n
    state = np.zeros(n, dtype=np.uint8)
    state[0] = _kernels.W_REJECTED
    comp = np.full(n, -1, dtype=np.int32)
    depth = np.full(n, -1, dtype=np.int32)
    acc = np.empty(n, dtype=np.int32)
    starts = np.empty(n, dtype=np.int64)
    queries = np.zeros(n, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    ptr = np.zeros(n, dtype=np.int64)
    order = np.array([4, 1], dtype=np.int64)
    out = explore(c6.neighbors, c6.d, order, np.ones(n, dtype=np.uint8), state,
                  comp, depth, acc, starts, queries, stack, ptr)
    assert out == (5, 1, 5)
    assert state.tolist() == [_kernels.W_REJECTED] + [_kernels.S_DONE] * 5
    assert comp.tolist() == [-1, 0, 0, 0, 0, 0]
    assert depth.tolist() == [-1, 3, 2, 1, 0, 1]
    assert acc[:5].tolist() == [4, 3, 2, 1, 5]
    assert starts[0] == 0 and queries[0] == 5

