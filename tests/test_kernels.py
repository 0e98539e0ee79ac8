import numpy as np
import pytest

from percolab import _accel, _kernels
from percolab.percolation import _explore


def _numba_importable() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def test_memoryview_kernel_converts_only_arrays():
    probe = _accel.memoryview_kernel(lambda a, k, b, c: (type(a), k, type(b), type(c)))
    assert probe(np.zeros(3, dtype=np.int32), 4, [1], np.zeros(2, dtype=np.uint8)) == (
        memoryview, 4, list, bytearray)
    assert probe.py_func.__name__ == "<lambda>"


def test_memoryview_kernel_copies_uint8_writes_back():
    def write(a, b):
        a[1] = 7
        b[0] = 9
        raise RuntimeError("after the writes")

    a = np.zeros(3, dtype=np.uint8)
    b = np.zeros(2, dtype=np.int64)
    readonly = np.zeros(2, dtype=np.uint8)
    readonly.flags.writeable = False
    with pytest.raises(RuntimeError):
        _accel.memoryview_kernel(write)(a, b)
    assert a.tolist() == [0, 7, 0]
    assert b.tolist() == [9, 0]
    with pytest.raises(RuntimeError):  # the copy of a read-only array is not written back
        _accel.memoryview_kernel(write)(readonly, b)
    assert readonly.tolist() == [0, 0]


@pytest.mark.skipif(_numba_importable(), reason="numba compiles the kernels")
def test_interpreted_kernels_take_memoryviews():
    assert _accel.njit is _accel.memoryview_kernel
    assert _kernels.dfs_explore.py_func.__name__ == "dfs_explore"


def _outputs(n, m):
    """acc, accd, starts, estart, stack (m entries each) and ptr (n)."""
    return (np.full(m, -1, dtype=np.int64), np.full(m, -1, dtype=np.int32),
            np.full(m, -1, dtype=np.int64), np.full(m, -1, dtype=np.int64),
            np.empty(m, dtype=np.int64), np.empty(n, dtype=np.int64))


def test_fallback_dfs_writes_reach_caller(c6):
    # cycle 0-1-2-3-4-5-0; vertex 0 starts rejected, so the five coins
    # (fewer than n) accept the path 1-2-3-4-5 as one epoch
    explore = _accel.memoryview_kernel(_kernels.dfs_explore.py_func)
    n = c6.n
    state = np.zeros(n, dtype=np.uint8)
    state[0] = _kernels.W_REJECTED
    acc, accd, starts, estart, stack, ptr = _outputs(n, 5)
    out = explore(c6.neighbors, c6.d, np.ones(5, dtype=np.uint8), state,
                  acc, accd, starts, estart, stack, ptr)
    assert out == (5, 1, 5)
    assert state.tolist() == [_kernels.W_REJECTED] + [_kernels.S_DONE] * 5
    assert acc.tolist() == [1, 2, 3, 4, 5]
    assert accd.tolist() == [0, 1, 2, 3, 4]
    assert starts.tolist() == [0, -1, -1, -1, -1]
    assert estart.tolist() == [0, -1, -1, -1, -1]
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, np.ones(5, dtype=np.uint8),
        np.array([_kernels.W_REJECTED, 0, 0, 0, 0, 0], dtype=np.uint8))
    assert (used, accepted, epoch_starts.tolist()) == (5, 5, [0])
    assert comp.tolist() == [-1, 0, 0, 0, 0, 0]
    assert depth.tolist() == [-1, 0, 1, 2, 3, 4]


def test_dfs_epochs_in_acceptance_order(c6):
    # root 0 heads, then tails for 1 and 5: a one-vertex epoch; root 2
    # heads, 3 heads, 4 tails: a second epoch; 1, 4 and 5 are rejected
    coins = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
    explore = _accel.memoryview_kernel(_kernels.dfs_explore.py_func)
    acc, accd, starts, estart, stack, ptr = _outputs(6, 6)
    state = np.zeros(6, dtype=np.uint8)
    out = explore(c6.neighbors, c6.d, coins, state, acc, accd, starts, estart, stack, ptr)
    assert out == (6, 2, 3)
    assert acc[:3].tolist() == [0, 2, 3]
    assert accd[:3].tolist() == [0, 0, 1]
    assert starts[:2].tolist() == [0, 3]
    assert estart[:2].tolist() == [0, 1]
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, coins, np.zeros(6, dtype=np.uint8))
    assert (used, accepted, epoch_starts.tolist()) == (6, 3, [0, 3])
    assert comp.tolist() == [0, -1, 1, 1, -1, -1]
    assert depth.tolist() == [0, -1, 0, 1, -1, -1]


def test_dfs_all_tails_opens_no_epoch(c6):
    state = np.zeros(6, dtype=np.uint8)
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, np.zeros(6, dtype=np.uint8), state)
    assert (used, accepted, epoch_starts.size) == (6, 0, 0)
    assert comp.tolist() == [-1] * 6
    assert depth.tolist() == [-1] * 6
    assert state.tolist() == [_kernels.W_REJECTED] * 6
