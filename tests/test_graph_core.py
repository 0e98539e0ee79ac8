import numpy as np
import pytest

from oracles import has_edge
from percolab.graph_core import (
    RegularGraph,
    VertexSet,
    edge_count_between,
    external_neighborhood,
)


def _k4_edges():
    u = np.array([0, 0, 0, 1, 1, 2])
    v = np.array([1, 2, 3, 2, 3, 3])
    return u, v


def test_from_edges_builds_sorted_rows(k4):
    assert k4.n == 4 and k4.d == 3
    for i in range(4):
        row = k4.nbrs2d[i]
        assert list(row) == sorted(set(range(4)) - {i})
    # rows are the implicit d-wide slices of the flat array
    assert [k4.neighbors[3 * i:3 * i + 3].tolist() for i in range(4)] == k4.nbrs2d.tolist()
    assert k4.nbrs2d[np.int32(3)].tolist() == [0, 1, 2]


def test_has_edge_and_edge_list(c6):
    assert has_edge(c6, 0, 1) and has_edge(c6, 5, 0)
    assert not has_edge(c6, 0, 3)
    u, v = c6.edge_list()
    pairs = list(zip(u.tolist(), v.tolist()))
    assert pairs == sorted(pairs)
    assert len(pairs) == 6
    assert all(a < b for a, b in pairs)


def test_has_edge_broadcasts_and_rejects_outside_ids(c6):
    u = np.array([[0], [2]])
    v = np.array([1, 3, 5])
    assert has_edge(c6, u, v).tolist() == [[True, False, True], [True, True, False]]
    # -1 would read row n-1 (5 ~ 0) and 6 would read past the table
    assert not has_edge(c6, -1, 0) and not has_edge(c6, 0, -1)
    assert not has_edge(c6, 6, 5) and not has_edge(c6, 5, 6)
    assert has_edge(c6, np.array([-1, 5, 6]), 0).tolist() == [False, True, False]


def test_from_edges_rejects_self_loop():
    u, v = _k4_edges()
    u[5] = 3
    with pytest.raises(ValueError, match="self-loop at vertex 3"):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_rejects_wrong_degree():
    u = np.array([0, 0, 0, 1, 1, 2])
    v = np.array([1, 2, 3, 2, 3, 0])  # duplicate 0-2, vertex 3 underfull
    with pytest.raises(ValueError, match="^vertex 0 has degree 4, expected 3$"):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_degree_message_on_sorted_keys():
    u = np.array([0, 0, 0, 1, 1, 1])
    v = np.array([1, 2, 3, 2, 3, 3])  # (lo, hi) order; 1 has four, 2 two
    for dtype in (np.int32, np.int64):
        with pytest.raises(ValueError, match="^vertex 1 has degree 4, expected 3$"):
            RegularGraph.from_edges(4, 3, u.astype(dtype), v.astype(dtype))


def test_from_edges_repeat_message_names_the_least_vertex():
    # 2-regular with three doubled edges: 0-5, 1-4 and 2-3
    u = np.array([0, 0, 1, 1, 2, 2])
    v = np.array([5, 5, 4, 4, 3, 3])
    msg = "^repeated neighbor at vertex 0$"
    with pytest.raises(ValueError, match=msg):
        RegularGraph.from_edges(6, 2, u.astype(np.int32), v.astype(np.int32))
    # shuffled and flipped, int64: vertex 2's repeat comes first in input order
    su = np.array([3, 2, 4, 5, 1, 0], dtype=np.int64)
    sv = np.array([2, 3, 1, 0, 4, 5], dtype=np.int64)
    with pytest.raises(ValueError, match=msg):
        RegularGraph.from_edges(6, 2, su, sv)


def test_from_edges_rejects_duplicate_edge():
    u = np.array([0, 0, 0, 1, 1, 1])
    v = np.array([1, 2, 3, 2, 3, 2])
    # the repeat of 1-2 also leaves vertex 1 overfull, which the degree check
    # names first; a repeat at the right degrees is the test above
    with pytest.raises(ValueError, match="^vertex 1 has degree 4, expected 3$"):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_rejects_odd_nd():
    with pytest.raises(ValueError, match="even"):
        RegularGraph.from_edges(3, 3, np.array([0]), np.array([1]))


def test_from_edges_rejects_out_of_range():
    u, v = _k4_edges()
    v = v.copy()
    v[5] = 9
    with pytest.raises(ValueError, match="out of range"):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_ignores_edge_order(rr_small):
    u, v = rr_small.edge_list()
    perm = np.random.default_rng(5).permutation(u.size)
    # shuffled order, and each edge given either way round
    flip = np.random.default_rng(6).random(u.size) < 0.5
    su = np.where(flip, v, u)[perm]
    sv = np.where(flip, u, v)[perm]
    g = RegularGraph.from_edges(rr_small.n, rr_small.d, su, sv)
    assert g.neighbors.dtype == np.int32
    assert np.array_equal(g.neighbors, rr_small.neighbors)
    assert g.structurally_equal(RegularGraph.from_edges(rr_small.n, rr_small.d, u, v))


def test_from_edges_int32_and_int64_give_equal_rows(rr_small):
    n, d = rr_small.n, rr_small.d
    u, v = rr_small.edge_list()
    perm = np.random.default_rng(7).permutation(u.size)
    for a, b in ((u, v), (v[perm], u[perm])):  # sorted, then shuffled and flipped
        wide = RegularGraph.from_edges(n, d, a.astype(np.int64), b.astype(np.int64))
        narrow = RegularGraph.from_edges(n, d, a.astype(np.int32), b.astype(np.int32))
        assert narrow.neighbors.dtype == wide.neighbors.dtype == np.int32
        assert np.array_equal(narrow.neighbors, rr_small.neighbors)
        assert np.array_equal(wide.neighbors, rr_small.neighbors)


def test_degree_one_graph_allowed():
    g = RegularGraph.from_edges(4, 1, np.array([0, 2]), np.array([1, 3]))
    assert g.d == 1 and has_edge(g, 2, 3)


# ----------------------------------------------------------------------
# vertex sets
# ----------------------------------------------------------------------
def test_vertex_set_basics():
    s = VertexSet.from_indices(10, [3, 7, 7])
    assert s.cardinality == 2
    assert np.flatnonzero(s.mask).tolist() == [3, 7]
    assert VertexSet.from_indices(5, []).cardinality == 0
    assert VertexSet.from_indices(5, np.arange(5)).cardinality == 5
    with pytest.raises(ValueError, match="out of range"):
        VertexSet.from_indices(4, [4])


def test_edge_count_between_counts_ordered_pairs(k4, c6):
    every = np.arange(4)
    # every edge inside B = C = V contributes twice
    assert edge_count_between(k4, every, every) == 4 * 3
    B, C = [0, 1], [2, 3]
    assert edge_count_between(k4, B, C) == 4
    assert edge_count_between(k4, C, B) == 4
    assert edge_count_between(k4, B, []) == 0
    # overlap on C6: B = {0,1}, C = {1,2}; ordered pairs (0,1) and (1,2),
    # while 1->0 misses C since 0 is not in it
    assert edge_count_between(c6, [0, 1], [1, 2]) == 2
    # the edge 01 inside B = C counts once per orientation
    assert edge_count_between(c6, [0, 1], [0, 1]) == 2
    # the smaller side may be either argument
    assert edge_count_between(c6, [0], np.arange(6)) == 2
    assert edge_count_between(c6, np.arange(6), [0]) == 2


def test_external_neighborhood(c6, k4):
    ext = external_neighborhood(c6, [0, 1])
    assert ext.dtype == bool and ext.shape == (6,)
    assert np.flatnonzero(ext).tolist() == [2, 5]
    assert not external_neighborhood(k4, np.arange(4)).any()
    assert not external_neighborhood(k4, []).any()


@pytest.mark.parametrize("bad", [[-1], [0, 4], [2, 9]])
def test_set_queries_reject_ids_outside_range(k4, bad):
    with pytest.raises(ValueError, match=r"out of range \[0, 4\)"):
        external_neighborhood(k4, bad)
    with pytest.raises(ValueError, match="out of range"):
        edge_count_between(k4, bad, [0])
    with pytest.raises(ValueError, match="out of range"):
        edge_count_between(k4, [0], bad)


def test_set_queries_reject_a_mask(k4):
    mask = np.array([False, True, True, False])
    with pytest.raises(TypeError, match="not a bool mask"):
        external_neighborhood(k4, mask)
    with pytest.raises(TypeError, match="not a bool mask"):
        edge_count_between(k4, [0], mask)

