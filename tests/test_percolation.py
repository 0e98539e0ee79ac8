import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from percolab.generators import GenSpec, generate
from percolab.percolation import (
    CoinStream,
    PercolationSample,
    canonicalize_labels,
    _induced_csr,
    components_oracle,
    run_dfs,
    run_dfs_reference,
    sample_vertices,
)
from percolab.rng import make_generator, TAG_SAMPLE


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
    assert s.n == 100 and s.consumed == 0
    u = CoinStream.from_bits([1, 0, 1])
    assert u.flips.tolist() == [1, 0, 1]
    with pytest.raises(ValueError):
        CoinStream(4, -0.1, 0)


def test_run_dfs_stream_guards(q4):
    s = CoinStream(16, 0.5, 0)
    run_dfs(q4, s)
    assert s.consumed == 16
    with pytest.raises(ValueError, match="consumed"):
        run_dfs(q4, s)
    with pytest.raises(ValueError, match="coins"):
        run_dfs(q4, CoinStream(8, 0.5, 0))


def test_priority_validation(q4):
    with pytest.raises(ValueError, match="permutation"):
        run_dfs(q4, CoinStream(16, 0.5, 0), priority=np.zeros(16, dtype=np.int64))


def _traces_equal(a, b):
    return (
        np.array_equal(a.epoch_starts, b.epoch_starts)
        and np.array_equal(a.component_of, b.component_of)
        and np.array_equal(a.depth, b.depth)
        and np.array_equal(a.accepted_order, b.accepted_order)
        and np.array_equal(a.queries_per_epoch, b.queries_per_epoch)
        and a.accepted_count == b.accepted_count
        and a.rejected_count == b.rejected_count
        and a.consumed == b.consumed
    )


@pytest.mark.parametrize("gname", ["k4", "c6", "q4", "petersen", "rr_small"])
def test_kernel_matches_reference(gname, request):
    g = request.getfixturevalue(gname)
    for seed in range(10):
        p = [0.0, 0.25, 0.5, 0.75, 1.0][seed % 5]
        tr_k = run_dfs(g, CoinStream(g.n, p, seed))
        tr_r = run_dfs_reference(g, CoinStream(g.n, p, seed))
        assert _traces_equal(tr_k, tr_r), f"{gname} seed={seed} p={p}"


@pytest.mark.parametrize("gname", ["q4", "petersen", "rr_small"])
def test_kernel_matches_reference_under_priority(gname, request):
    g = request.getfixturevalue(gname)
    rng = np.random.default_rng(77)
    for seed in range(5):
        perm = rng.permutation(g.n)
        tr_k = run_dfs(g, CoinStream(g.n, 0.5, seed), priority=perm)
        tr_r = run_dfs_reference(g, CoinStream(g.n, 0.5, seed), priority=perm)
        assert _traces_equal(tr_k, tr_r)


def test_identity_priority_is_default(q4):
    tr_a = run_dfs(q4, CoinStream(16, 0.6, 4))
    tr_b = run_dfs(q4, CoinStream(16, 0.6, 4), priority=np.arange(16))
    assert _traces_equal(tr_a, tr_b)


def test_hand_worked_clique_trace(k4):
    # coins 1,0,1,1 on K4: root 0 accepted, neighbor 1 rejected,
    # neighbors 2 and 3 accepted, all in one epoch of 4 queries
    tr = run_dfs(k4, CoinStream.from_bits([1, 0, 1, 1]))
    assert tr.num_epochs == 1
    assert tr.epoch_starts.tolist() == [0]
    assert tr.component_of.tolist() == [0, -1, 0, 0]
    assert tr.accepted_order.tolist() == [0, 2, 3]
    assert tr.queries_per_epoch.tolist() == [4]
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


def test_epochs_are_components(rr_small):
    g = rr_small
    for seed in range(20):
        stream = CoinStream(g.n, 0.4, seed)
        flips = stream.flips.copy()
        tr = run_dfs(g, stream)
        # accepted set is exactly the heads pattern in visit order; compare
        # partitions against the scipy oracle on the same vertex set
        sample = PercolationSample.from_membership(0.4, seed, tr.accepted_mask())
        labels = components_oracle(g, sample)
        assert np.array_equal(
            canonicalize_labels(tr.component_of), canonicalize_labels(labels)
        )
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
        assert sum(tr.queries_per_epoch) <= 16


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


def test_canonicalize_labels():
    raw = np.array([2, 2, -1, 0, 0, 1])
    assert canonicalize_labels(raw).tolist() == [0, 0, -1, 3, 3, 5]
    assert canonicalize_labels(np.array([-1, -1])).tolist() == [-1, -1]
