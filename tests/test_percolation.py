import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from percolab.generators import GenSpec, generate
from oracles import TAG_SAMPLE, run_dfs_reference, sample_vertices
from percolab.percolation import (
    CoinStream,
    PercolationSample,
    _explore,
    _induced_csr,
    components_oracle,
    run_dfs,
)
from percolab.rng import make_generator


def test_sample_vertices_bounds_and_determinism():
    assert sample_vertices(50, 0.0, 1).retained_count == 0
    assert sample_vertices(50, 1.0, 1).retained_count == 50
    a = sample_vertices(10_000, 0.3, 7)
    b = sample_vertices(10_000, 0.3, 7)
    c = sample_vertices(10_000, 0.3, 8)
    assert np.array_equal(a.membership, b.membership)
    assert not np.array_equal(a.membership, c.membership)
    assert abs(a.retained_count / 10_000 - 0.3) < 0.03
    with pytest.raises(ValueError):
        sample_vertices(5, 1.5, 0)


def test_sample_matches_tagged_generator():
    # draw i is a pure function of (seed, i) under the sampling tag
    rng = make_generator(123, TAG_SAMPLE)
    expect = rng.random(64) < 0.4
    got = sample_vertices(64, 0.4, 123).membership
    assert np.array_equal(expect, got)


def test_coin_stream_basics():
    s = CoinStream(100, 0.5, 3)
    t = CoinStream(100, 0.5, 3)
    assert np.array_equal(s.flips, t.flips)
    assert s.n == 100
    u = CoinStream.from_bits([1, 0, 1])
    assert u.flips.tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        CoinStream(4, -0.1, 0)
    assert CoinStream.from_bits(np.array([True, False, True])).flips.tolist() == [1, 0, 1]
    assert CoinStream.from_bits([]).n == 0
    # a 2 would read as tails in the root search and as heads at a stack top
    for bits in ([2, 1, 1, 1, 1, 1], [1, 2, 1, 1, 1, 1], [1, 0.5], [-1, 0]):
        with pytest.raises(ValueError, match="coins must be 0 or 1, got"):
            CoinStream.from_bits(bits)
    for bits in ([[1, 0], [1, 1]], 1):
        with pytest.raises(ValueError, match="coins must be 1-D, got shape"):
            CoinStream.from_bits(bits)


def test_run_dfs_stream_guards(q4):
    s = CoinStream(16, 0.5, 0)
    # nothing writes the coins, so exploring one stream twice gives one trace
    assert _traces_equal(run_dfs(q4, s), run_dfs(q4, s))
    with pytest.raises(ValueError, match="coins"):
        run_dfs(q4, CoinStream(8, 0.5, 0))


def _traces_equal(a, b):
    return (
        np.array_equal(a.epoch_starts, b.epoch_starts)
        and np.array_equal(a.component_of, b.component_of)
        and np.array_equal(a.depth, b.depth)
        and a.accepted_count == b.accepted_count
        and a.rejected_count == b.rejected_count
        and a.consumed == b.consumed
    )


# graphs the seeded sweep adds to the fixtures: random regular graphs of
# every degree from 3 to 12, a hypercube, a clique union and a blow-up
_SWEEP_GRAPHS = {
    **{f"rr_d{d}": GenSpec("random_regular", n=60, d=d, seed=d) for d in range(3, 13)},
    "q5": GenSpec("hypercube", n=32, d=5),
    "cliques": GenSpec("clique_union", n=48, d=5),
    "blowup": GenSpec("blowup", n=60, d=6, seed=2, blowup_factor=2,
                      base_family="random_regular"),
}


@pytest.mark.parametrize("gname", ["k4", "c6", "q4", "petersen", "rr_small", *_SWEEP_GRAPHS])
def test_kernel_matches_reference(gname, request):
    g = generate(_SWEEP_GRAPHS[gname]) if gname in _SWEEP_GRAPHS else request.getfixturevalue(gname)
    tails_ends = 0
    # none, subcritical, the acceptance config's (1+eps)/d at eps=0.2, dense, all
    for p in (0.0, 1 / (2 * g.d), 1.2 / g.d, 0.25, 0.5, 0.75, 1.0):
        for seed in range(3):
            stream = CoinStream(g.n, p, seed)
            tails_ends += p > 0 and not stream.flips[-1]
            tr_k = run_dfs(g, stream)
            tr_r = run_dfs_reference(g, CoinStream(g.n, p, seed))
            assert _traces_equal(tr_k, tr_r), f"{gname} seed={seed} p={p}"
    assert tails_ends  # some streams that draw heads end in a tails run


def test_hand_worked_clique_trace(k4):
    # coins 1,0,1,1 on K4: root 0 accepted, neighbor 1 rejected,
    # neighbors 2 and 3 accepted, all in one epoch of 4 coins
    tr = run_dfs(k4, CoinStream.from_bits([1, 0, 1, 1]))
    assert tr.num_epochs == 1
    assert tr.epoch_starts.tolist() == [0]
    assert tr.component_of.tolist() == [0, -1, 0, 0]
    assert tr.depth.tolist() == [0, -1, 1, 2]
    assert tr.accepted_count == 3 and tr.rejected_count == 1
    assert tr.summary() == {
        "epochs": 1, "accepted": 3, "rejected": 1, "largest_epoch": 3, "coins": 4,
    }


def test_all_tails_and_all_heads(c6):
    tr0 = run_dfs(c6, CoinStream.from_bits([0] * 6))
    assert tr0.num_epochs == 0 and tr0.accepted_count == 0
    assert tr0.epoch_sizes().size == 0
    tr1 = run_dfs(c6, CoinStream.from_bits([1] * 6))
    assert tr1.num_epochs == 1 and tr1.accepted_count == 6
    assert tr1.epoch_sizes().tolist() == [6]


def test_explore_leaves_the_keep_out_mask_unwritten(c6):
    # cycle 0-1-2-3-4-5-0; vertex 0 is kept out, so the five coins (fewer
    # than n) accept the path 1-2-3-4-5 as one epoch
    keep_out = np.array([True, False, False, False, False, False])
    used, comp, depth, epoch_starts, accepted = _explore(c6, np.ones(5, dtype=np.uint8), keep_out)
    assert (used, accepted, epoch_starts.tolist()) == (5, 5, [0])
    assert comp.tolist() == [-1, 0, 0, 0, 0, 0]
    assert depth.tolist() == [-1, 0, 1, 2, 3, 4]
    assert keep_out.tolist() == [True, False, False, False, False, False]


def test_dfs_epochs_in_acceptance_order(c6):
    # root 0 heads, then tails for 1 and 5: a one-vertex epoch; root 2
    # heads, 3 heads, 4 tails: a second epoch; 1, 4 and 5 are rejected
    coins = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
    used, comp, depth, epoch_starts, accepted = _explore(c6, coins)
    assert (used, accepted, epoch_starts.tolist()) == (6, 3, [0, 3])
    assert comp.tolist() == [0, -1, 1, 1, -1, -1]
    assert depth.tolist() == [0, -1, 0, 1, -1, -1]


def test_dfs_all_tails_opens_no_epoch(c6):
    used, comp, depth, epoch_starts, accepted = _explore(c6, np.zeros(6, dtype=np.uint8))
    assert (used, accepted, epoch_starts.size) == (6, 0, 0)
    assert comp.tolist() == [-1] * 6
    assert depth.tolist() == [-1] * 6


def test_explore_rejects_a_coin_count_other_than_the_untouched_vertices():
    # the root search runs past the end of the state given extra coins
    # (it hung on some streams), so the count is checked before it runs
    g = generate(GenSpec("random_regular", n=30, d=3, seed=4))
    keep_out = np.zeros(30, dtype=bool)
    keep_out[[3, 17]] = True
    rng = np.random.default_rng(8)
    for size in (29, 30, 31, 32, 27):
        coins = (rng.random(size) < 0.5).astype(np.uint8)
        with pytest.raises(ValueError, match=f"^{size} coins for 28 untouched vertices"):
            _explore(g, coins, keep_out)


def test_epochs_are_components(rr_small):
    g = rr_small
    for seed in range(20):
        stream = CoinStream(g.n, 0.4, seed)
        flips = stream.flips.copy()
        tr = run_dfs(g, stream)
        # accepted set is exactly the heads pattern in visit order; both
        # number components by smallest member, so the labels agree id for id
        sample = PercolationSample.from_membership(0.4, seed, tr.accepted_mask())
        labels = components_oracle(g, sample)
        assert np.array_equal(tr.component_of, labels)
        assert tr.num_epochs == (labels.max() + 1 if sample.retained_count else 0)
        assert tr.accepted_count == int(flips.sum())


def test_accepted_set_is_bernoulli_pattern(q4):
    # every vertex consumes exactly one coin, so the number of accepted
    # vertices equals the number of heads regardless of graph structure
    for seed in range(30):
        s = CoinStream(16, 0.35, seed)
        heads = int(s.flips.sum())
        tr = run_dfs(q4, s)
        assert tr.accepted_count == heads
        assert tr.consumed == 16


def test_components_oracle_labels(c6):
    sample = PercolationSample.from_membership(
        0.5, 0, np.array([1, 1, 0, 1, 1, 0], dtype=bool)
    )
    labels = components_oracle(c6, sample)
    assert labels.tolist() == [0, 0, -1, 1, 1, -1]
    empty = PercolationSample.from_membership(0.5, 0, np.zeros(6, dtype=bool))
    assert components_oracle(c6, empty).tolist() == [-1] * 6


def test_induced_csr_bfs_skips_excluded_vertex(c6):
    # cycle 0-1-2-3-4-5-0 without 3: rows follow kept, columns ascend
    mask = np.ones(6, dtype=bool)
    mask[3] = False
    kept, adj = _induced_csr(c6, mask)
    assert kept.tolist() == [0, 1, 2, 4, 5]
    assert [adj.indices[adj.indptr[i]:adj.indptr[i + 1]].tolist() for i in range(5)] == [
        [1, 4], [0, 2], [1], [4], [0, 3]]
    order = breadth_first_order(adj, 0, return_predecessors=False)
    assert kept[order].tolist() == [0, 1, 5, 2, 4]

