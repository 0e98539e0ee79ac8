import numpy as np
import pytest

from percolab import _kernels
from percolab.generators import GenSpec, generate
from percolab.percolation import _explore


def _kernel(g, coins, state):
    """dfs_explore on the containers _explore hands it."""
    return _kernels.dfs_explore(memoryview(g.neighbors), g.d, bytes(coins), bytearray(state))


def test_fallback_dfs_writes_reach_caller(c6):
    # cycle 0-1-2-3-4-5-0; vertex 0 starts out, so the five coins (fewer
    # than n) accept the path 1-2-3-4-5 as one epoch
    state = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)
    assert _kernel(c6, [1] * 5, state) == (5, [1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0], [0])
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, np.ones(5, dtype=np.uint8), state)
    assert (used, accepted, epoch_starts.tolist()) == (5, 5, [0])
    assert comp.tolist() == [-1, 0, 0, 0, 0, 0]
    assert depth.tolist() == [-1, 0, 1, 2, 3, 4]
    assert state.tolist() == [1, 0, 0, 0, 0, 0]  # the caller's state is not written


def test_dfs_epochs_in_acceptance_order(c6):
    # root 0 heads, then tails for 1 and 5: a one-vertex epoch; root 2
    # heads, 3 heads, 4 tails: a second epoch; 1, 4 and 5 are rejected
    coins = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
    assert _kernel(c6, coins, bytes(6)) == (6, [0, 2, 3], [0, 0, 1], [0, 3], [0, 1])
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, coins, np.zeros(6, dtype=np.uint8))
    assert (used, accepted, epoch_starts.tolist()) == (6, 3, [0, 3])
    assert comp.tolist() == [0, -1, 1, 1, -1, -1]
    assert depth.tolist() == [0, -1, 0, 1, -1, -1]


def test_dfs_all_tails_opens_no_epoch(c6):
    assert _kernel(c6, bytes(6), bytes(6)) == (6, [], [], [], [])
    used, comp, depth, epoch_starts, accepted = _explore(
        c6.neighbors, c6.d, np.zeros(6, dtype=np.uint8), np.zeros(6, dtype=np.uint8))
    assert (used, accepted, epoch_starts.size) == (6, 0, 0)
    assert comp.tolist() == [-1] * 6
    assert depth.tolist() == [-1] * 6


def test_explore_rejects_a_coin_count_other_than_the_untouched_vertices():
    # the kernel's root search runs past the end of state given extra
    # coins (it hung on some streams), so the count is checked before it runs
    g = generate(GenSpec("random_regular", n=30, d=3, seed=4))
    state = np.zeros(30, dtype=np.uint8)
    state[[3, 17]] = 1
    rng = np.random.default_rng(8)
    for size in (29, 30, 31, 32, 27):
        coins = (rng.random(size) < 0.5).astype(np.uint8)
        with pytest.raises(ValueError, match=f"^{size} coins for 28 untouched vertices"):
            _explore(g.neighbors, g.d, coins, state)
