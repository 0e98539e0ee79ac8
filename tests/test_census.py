import numpy as np
import pytest

from percolab.census import (
    _brute_acyclic_count,
    _brute_tree_count,
    _closed_acyclic_count,
    _closed_tree_count,
    _sample_forest_depth,
    count_acyclic_connected_ksets,
    count_trees_bruteforce,
    longest_cycle_lower_bound,
    take_census,
    validate_cycle,
)
from percolab.generators import GenSpec, generate, petersen_graph
from percolab.percolation import CoinStream, PercolationSample, run_dfs, sample_vertices


def _full(g):
    return PercolationSample.from_membership(1.0, 0, np.ones(g.n, dtype=bool))


def _members(g, ids):
    mask = np.zeros(g.n, dtype=bool)
    mask[list(ids)] = True
    return PercolationSample.from_membership(0.5, 0, mask)


# ----------------------------------------------------------------------
# component census
# ----------------------------------------------------------------------
def test_census_full_clique(k4):
    c = take_census(k4, _full(k4))
    assert c.num_components == 1
    assert c.largest == 4 and c.second_largest == 0
    assert c.largest_edges == 6 and c.retained_edges == 6
    assert c.tree_counts.tolist() == [0, 0, 0, 0, 0]
    assert c.straggler_vertices == 0 and c.straggler_edges == 0
    assert c.cycle_lb >= 3


def test_census_one_vertex_per_clique():
    g = generate(GenSpec("clique_union", n=12, d=3))
    c = take_census(g, _members(g, [0, 4, 8]))
    assert c.num_components == 3
    assert c.largest == 1 and c.second_largest == 1
    assert c.tree_count(1) == 3  # the largest component is itself a 1-tree
    assert c.sizes.tolist() == [1, 1, 1]
    assert c.edges.tolist() == [0, 0, 0]
    assert c.straggler_vertices == 0
    assert c.cycle_lb == 0


def test_census_mixed_components(c6):
    # {0,1} path, {3} isolated on the 6-cycle
    c = take_census(c6, _members(c6, [0, 1, 3]))
    assert c.sizes.tolist() == [2, 1]
    assert c.edges.tolist() == [1, 0]
    assert c.largest == 2 and c.second_largest == 1
    assert c.tree_count(1) == 1 and c.tree_count(2) == 1
    assert c.small_tree_vertices() == 3
    assert c.cycle_lb == 0


def test_census_orders_by_size_then_root(cliques60):
    g = cliques60
    # components of sizes 3, 3, 2 living in cliques 2, 0, 1
    c = take_census(g, _members(g, [12, 13, 14, 0, 1, 2, 6, 7]))
    assert c.sizes.tolist() == [3, 3, 2]
    assert c.roots[0] < c.roots[1]  # tie broken by vertex id
    assert c.largest == 3 and c.second_largest == 3
    assert np.flatnonzero(c.labels == c.labels[c.roots[0]]).tolist() == [0, 1, 2]
    assert (c.labels >= 0).sum() == 8


def test_census_straggler_accounting(q4):
    sample = sample_vertices(q4.n, 0.6, 12)
    c = take_census(q4, sample, k_max=3)
    assert c.sizes.sum() == sample.retained_count == c.retained
    assert np.all(np.diff(c.sizes) <= 0)
    assert c.retained_edges == c.edges.sum()
    rest_s, rest_e = c.sizes[1:], c.edges[1:]
    small_tree = (rest_s <= 3) & (rest_e == rest_s - 1)
    assert c.straggler_vertices == rest_s.sum() - rest_s[small_tree].sum()
    assert c.straggler_edges == rest_e.sum() - rest_e[small_tree].sum()
    assert sample.membership[c.roots].all()


def test_census_random_invariants(rr_small):
    for seed in range(8):
        sample = sample_vertices(rr_small.n, 0.35, seed)
        c = take_census(rr_small, sample, k_max=5)
        assert c.tree_counts.size == 6
        assert c.sizes.sum() == sample.retained_count
        if c.num_components >= 2:
            assert c.second_largest == c.sizes[1]
        # every component labeled tree must satisfy e = v - 1
        for k in range(1, 6):
            assert c.tree_count(k) == int(
                np.count_nonzero((c.sizes == k) & (c.edges == k - 1))
            )


def test_census_k_max_guards(k4):
    with pytest.raises(ValueError):
        take_census(k4, _full(k4), k_max=0)
    c = take_census(k4, _full(k4), k_max=2)
    with pytest.raises(ValueError):
        c.tree_count(3)
    with pytest.raises(ValueError):
        c.tree_count(0)


def test_census_empty_sample(q4):
    c = take_census(q4, _members(q4, []))
    assert c.num_components == 0
    assert c.largest == 0 and c.second_largest == 0
    assert c.retained_edges == 0 and c.cycle_lb == 0
    assert c.to_summary()["components"] == 0


# ----------------------------------------------------------------------
# cycle lower bound and witnesses
# ----------------------------------------------------------------------
def test_cycle_bound_on_cycle_graph(c6):
    lb, cyc = longest_cycle_lower_bound(c6, _full(c6), with_witness=True)
    assert lb == 6
    assert sorted(cyc) == [0, 1, 2, 3, 4, 5]
    assert validate_cycle(c6, cyc, _full(c6))


def test_cycle_bound_on_petersen(petersen):
    lb, cyc = longest_cycle_lower_bound(petersen, _full(petersen), with_witness=True)
    assert lb >= 5  # girth of the Petersen graph
    assert len(cyc) == lb
    assert validate_cycle(petersen, cyc, _full(petersen))


def test_cycle_bound_forest(c6):
    sample = _members(c6, [0, 1, 2])
    assert longest_cycle_lower_bound(c6, sample) == 0
    lb, cyc = longest_cycle_lower_bound(c6, sample, with_witness=True)
    assert lb == 0 and cyc is None


def test_cycle_bound_matches_census(q4):
    for seed in range(6):
        sample = sample_vertices(q4.n, 0.7, seed)
        assert take_census(q4, sample).cycle_lb == longest_cycle_lower_bound(q4, sample)


_BLOWUP = GenSpec("blowup", blowup_factor=2, base=GenSpec("random_regular", n=30, d=4, seed=2))

# cycle_lb at p = 0, 0.2, 0.35, 0.6, 1 for sample seeds 0 and 3, as the
# stand-alone cycle scan that preceded the dfs_explore forest computed them
_PINNED_CYCLE_LB = [
    (GenSpec("random_regular", n=200, d=6, seed=1), [0, 0, 4, 6, 7, 31, 65, 83, 168, 168]),
    (GenSpec("random_regular", n=1000, d=10, seed=2),
     [0, 0, 55, 55, 181, 245, 436, 480, 855, 855]),
    (GenSpec("hypercube", n=16, d=4), [0, 0, 0, 0, 0, 4, 6, 6, 12, 12]),
    ("petersen", [0, 0, 0, 0, 0, 0, 5, 5, 9, 9]),
    (GenSpec("clique_union", n=60, d=5), [0, 0, 3, 3, 4, 4, 6, 5, 6, 6]),
    (_BLOWUP, [0, 0, 3, 0, 15, 18, 27, 28, 48, 48]),
    (GenSpec("blowup", blowup_factor=3, base=GenSpec("hypercube", n=8, d=3)),
     [0, 0, 0, 0, 6, 10, 10, 12, 18, 18]),
]


@pytest.mark.parametrize("gspec,pinned", _PINNED_CYCLE_LB)
def test_cycle_bound_pinned_with_valid_witness(gspec, pinned):
    g = petersen_graph() if gspec == "petersen" else generate(gspec)
    cases = [(p, seed) for p in (0.0, 0.2, 0.35, 0.6, 1.0) for seed in (0, 3)]
    for (p, seed), expected in zip(cases, pinned):
        sample = sample_vertices(g.n, p, seed)
        assert longest_cycle_lower_bound(g, sample) == expected, (p, seed)
        assert take_census(g, sample).cycle_lb == expected
        lb, cyc = longest_cycle_lower_bound(g, sample, with_witness=True)
        assert lb == expected
        if expected:
            assert len(cyc) == lb and validate_cycle(g, cyc, sample)
        else:
            assert cyc is None


@pytest.mark.parametrize("gspec", [spec for spec, _ in _PINNED_CYCLE_LB])
def test_exploration_depth_is_sample_forest_depth(gspec):
    # the exploration's stack is a DFS of the retained subgraph in the same
    # neighbour order, so its depth is the sample walk's and the census can
    # take its cycle bound from the exploration instead of walking again
    g = petersen_graph() if gspec == "petersen" else generate(gspec)
    for p in (0.0, 0.2, 0.35, 0.6, 1.0):
        for seed in (0, 3):
            trace = run_dfs(g, CoinStream(g.n, p, seed))
            sample = PercolationSample.from_membership(p, seed, trace.accepted_mask())
            assert np.array_equal(trace.depth, _sample_forest_depth(g, sample.membership))
            walked = take_census(g, sample).cycle_lb
            assert take_census(g, sample, 4, trace.depth).cycle_lb == walked
            assert walked == longest_cycle_lower_bound(g, sample)


def test_census_depth_from_any_dfs_forest(rr_small):
    # under a permuted priority the forest differs, but it still has no
    # cross edges: a cycle shows as a back edge of some length >= 3
    rng = np.random.default_rng(5)
    for seed in range(6):
        trace = run_dfs(rr_small, CoinStream(rr_small.n, 0.5, seed),
                        priority=rng.permutation(rr_small.n))
        sample = PercolationSample.from_membership(0.5, seed, trace.accepted_mask())
        c = take_census(rr_small, sample, 4, trace.depth)
        assert (c.cycle_lb >= 3) == (c.retained_edges > c.retained - c.num_components)
        assert c.cycle_lb <= c.largest
    with pytest.raises(ValueError, match="forest depth must be"):
        take_census(rr_small, sample, 4, trace.depth[:-1])
    with pytest.raises(ValueError, match="forest depth must be"):
        take_census(rr_small, sample, 4, np.zeros(rr_small.n, dtype=np.int32))


def test_cycle_bound_empty_and_full_blowup():
    g = generate(_BLOWUP)
    empty = _members(g, [])
    assert longest_cycle_lower_bound(g, empty, with_witness=True) == (0, None)
    assert take_census(g, empty).cycle_lb == 0
    lb, cyc = longest_cycle_lower_bound(g, _full(g), with_witness=True)
    assert lb == 48 == take_census(g, _full(g)).cycle_lb
    assert len(cyc) == lb and validate_cycle(g, cyc, _full(g))


def test_validate_cycle_rejections(c6, k4):
    full = _full(c6)
    assert not validate_cycle(c6, None, full)
    assert not validate_cycle(c6, [0, 1], full)  # too short
    assert not validate_cycle(c6, [0, 1, 0], full)  # repeated vertex
    assert not validate_cycle(c6, [0, 1, 3], full)  # 1-3 not an edge
    assert validate_cycle(k4, [0, 1, 2], _full(k4))
    assert not validate_cycle(k4, [0, 1, 2], _members(k4, [0, 1]))  # 2 not retained


def test_validate_cycle_rejects_ids_outside_the_graph(c6):
    full = _full(c6)
    # -1 would wrap to 5, closing 5-0-1 wrongly; 6 is past the table
    assert not validate_cycle(c6, [-1, 0, 1], full)
    assert not validate_cycle(c6, [-1, 0, 1])
    assert not validate_cycle(c6, [4, 5, 6], full)
    assert validate_cycle(c6, [0, 1, 2, 3, 4, 5], full)


# ----------------------------------------------------------------------
# exact subgraph counts: brute force vs closed forms vs literature
# ----------------------------------------------------------------------
def test_clique_tree_counts(k4):
    # K4: 4 singletons, 6 edges, 12 paths (= 4 * C(3,2)), 16 spanning trees
    assert [count_trees_bruteforce(k4, k) for k in (1, 2, 3, 4)] == [4, 6, 12, 16]


def test_spanning_tree_counts_match_literature(petersen, q4, k4):
    # Cayley: K4 has 4^2 = 16; Petersen has 2000; Q4 has 42467328
    assert count_trees_bruteforce(k4, 4) == 16
    assert count_trees_bruteforce(petersen, 10) == 2000
    assert count_trees_bruteforce(q4, 16) == 42_467_328


def test_hypercube_small_tree_counts(q4):
    assert count_trees_bruteforce(q4, 2) == 32
    assert count_trees_bruteforce(q4, 3) == 96
    assert count_trees_bruteforce(q4, 4) == 352


@pytest.mark.parametrize(
    "gspec, trees, acyclic",
    [
        # Q_d: no triangles and n*C(d,2)/4 four-cycles
        (GenSpec("hypercube", n=1024, d=10),
         [1024, 5120, 46080, 537600], [1024, 5120, 46080, 491520]),
        # 100 disjoint K6: every 3-set and 4-set holds a triangle
        (GenSpec("clique_union", n=600, d=5), [600, 1500, 6000, 24000], [600, 1500, 0, 0]),
        # the values of the per-edge loop counters these closed forms replaced
        (GenSpec("random_regular", n=2000, d=8, seed=1),
         [2000, 8000, 56000, 503823], [2000, 8000, 55823, 499505]),
    ],
)
def test_closed_forms_beyond_bruteforce_reach(gspec, trees, acyclic):
    g = generate(gspec)
    assert [count_trees_bruteforce(g, k) for k in (1, 2, 3, 4)] == trees
    assert [count_acyclic_connected_ksets(g, k) for k in (1, 2, 3, 4)] == acyclic


@pytest.mark.parametrize(
    "gspec",
    [
        GenSpec("clique_union", n=4, d=3),
        GenSpec("hypercube", n=16, d=4),
        GenSpec("random_regular", n=24, d=3, seed=2),
        GenSpec("random_regular", n=60, d=6, seed=13),
        GenSpec("clique_union", n=60, d=5),
    ],
)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_forms_match_bruteforce(gspec, k):
    g = generate(gspec)
    assert _closed_tree_count(g, k) == _brute_tree_count(g, k)
    assert _closed_acyclic_count(g, k) == _brute_acyclic_count(g, k)


def test_cycle_graph_counts(c6):
    # paths of each length and one spanning "tree" shy of the full cycle
    assert count_trees_bruteforce(c6, 3) == 6
    assert count_acyclic_connected_ksets(c6, 3) == 6
    assert count_trees_bruteforce(c6, 6) == 6  # drop any one edge
    assert count_acyclic_connected_ksets(c6, 6) == 0  # induced keeps all 6 edges


def test_acyclic_vs_tree_counts(k4, q4):
    # induced-tree sets never exceed tree subgraphs
    for g in (k4, q4):
        for k in range(1, 5):
            assert count_acyclic_connected_ksets(g, k) <= count_trees_bruteforce(g, k)
    assert count_acyclic_connected_ksets(k4, 3) == 0  # every triple is a triangle
    assert count_acyclic_connected_ksets(k4, 2) == 6


def test_count_dispatch_limits():
    g = generate(GenSpec("random_regular", n=100, d=3, seed=1))
    # n > 64 falls back to closed forms for k <= 4
    assert count_trees_bruteforce(g, 2) == 150
    assert count_trees_bruteforce(g, 3) == 100 * 3
    assert count_trees_bruteforce(g, 200) == 0
    with pytest.raises(ValueError, match="k <= 4"):
        count_trees_bruteforce(g, 5)
    with pytest.raises(ValueError, match="k <= 4"):
        count_acyclic_connected_ksets(g, 5)
    with pytest.raises(ValueError):
        count_trees_bruteforce(g, 0)
