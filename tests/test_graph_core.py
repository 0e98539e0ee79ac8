import numpy as np
import pytest

from percolab.graph_core import (
    GraphFormatError,
    RegularGraph,
    RegularityError,
    VertexSet,
    degree_into,
    edge_count_between,
    external_neighborhood,
    read_graph,
    write_graph,
)


def _k4_edges():
    u = np.array([0, 0, 0, 1, 1, 2])
    v = np.array([1, 2, 3, 2, 3, 3])
    return u, v


def test_from_edges_builds_sorted_rows(k4):
    assert k4.n == 4 and k4.d == 3
    for i in range(4):
        row = k4.neighbors_of(i)
        assert list(row) == sorted(set(range(4)) - {i})
    # rows are the implicit d-wide slices of the flat array
    assert [k4.neighbors_of(i).tolist() for i in range(4)] == k4.nbrs2d.tolist()
    assert k4.neighbors_of(np.int32(3)).tolist() == [0, 1, 2]


def test_has_edge_and_edge_list(c6):
    assert c6.has_edge(0, 1) and c6.has_edge(5, 0)
    assert not c6.has_edge(0, 3)
    u, v = c6.edge_list()
    pairs = list(zip(u.tolist(), v.tolist()))
    assert pairs == sorted(pairs)
    assert len(pairs) == 6
    assert all(a < b for a, b in pairs)


def test_from_edges_rejects_self_loop():
    u, v = _k4_edges()
    u[5] = 3
    with pytest.raises(RegularityError, match="self-loop at vertex 3"):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_rejects_wrong_degree():
    u = np.array([0, 0, 0, 1, 1, 2])
    v = np.array([1, 2, 3, 2, 3, 0])  # duplicate 0-2, vertex 3 underfull
    with pytest.raises(RegularityError):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_rejects_duplicate_edge():
    u = np.array([0, 0, 0, 1, 1, 1])
    v = np.array([1, 2, 3, 2, 3, 2])
    with pytest.raises(RegularityError):
        RegularGraph.from_edges(4, 3, u, v)


def test_from_edges_rejects_odd_nd():
    with pytest.raises(RegularityError, match="even"):
        RegularGraph.from_edges(3, 3, np.array([0]), np.array([1]))


def test_from_edges_rejects_out_of_range():
    u, v = _k4_edges()
    v = v.copy()
    v[5] = 9
    with pytest.raises(RegularityError, match="out of range"):
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


def test_degree_one_graph_allowed():
    g = RegularGraph.from_edges(4, 1, np.array([0, 2]), np.array([1, 3]))
    assert g.d == 1 and g.has_edge(2, 3)


# ----------------------------------------------------------------------
# vertex sets
# ----------------------------------------------------------------------
def test_vertex_set_basics():
    s = VertexSet.from_indices(10, [3, 7, 7])
    assert s.cardinality == 2
    assert s.contains(3) and not s.contains(4)
    assert s.indices().tolist() == [3, 7]
    s.mask[4] = True
    s.refresh()
    assert s.cardinality == 3
    assert VertexSet.empty(5).cardinality == 0
    assert VertexSet.full(5).cardinality == 5
    with pytest.raises(ValueError):
        VertexSet.from_indices(4, [4])


def test_degree_into(k4, c6):
    B = VertexSet.from_indices(4, [1, 2])
    assert degree_into(k4, 0, B) == 2
    assert degree_into(k4, 1, B) == 1  # only 2; 1 not its own neighbor
    assert degree_into(c6, 0, VertexSet.from_indices(6, [1, 5])) == 2
    with pytest.raises(ValueError):
        degree_into(k4, 9, B)
    with pytest.raises(ValueError):
        degree_into(c6, 0, B)  # size mismatch


def test_edge_count_between_counts_ordered_pairs(k4, c6):
    full = VertexSet.full(4)
    # every edge inside B = C = V contributes twice
    assert edge_count_between(k4, full, full) == 4 * 3
    B = VertexSet.from_indices(4, [0, 1])
    C = VertexSet.from_indices(4, [2, 3])
    assert edge_count_between(k4, B, C) == 4
    assert edge_count_between(k4, C, B) == 4
    assert edge_count_between(k4, B, VertexSet.empty(4)) == 0
    # overlap: B = {0,1}, C = {1,2} on C6 -> edges 01 (twice? only 0->1 and 1->0
    # with 0 in B, 1 in both) ordered pairs: (0,1), (1,2) and 1->0? 0 not in C.
    assert edge_count_between(c6, VertexSet.from_indices(6, [0, 1]),
                              VertexSet.from_indices(6, [1, 2])) == 2
    both = VertexSet.from_indices(6, [0, 1])
    assert edge_count_between(c6, both, both) == 2


def test_external_neighborhood(c6, k4):
    ext = external_neighborhood(c6, VertexSet.from_indices(6, [0, 1]))
    assert ext.indices().tolist() == [2, 5]
    assert external_neighborhood(k4, VertexSet.full(4)).cardinality == 0
    assert external_neighborhood(k4, VertexSet.empty(4)).cardinality == 0


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def test_write_read_roundtrip(tmp_path, q4, petersen):
    for name, g in [("q4", q4), ("pet", petersen)]:
        p = tmp_path / f"{name}.g"
        write_graph(g, p)
        h = read_graph(p)
        assert g.structurally_equal(h)
        assert all(h.neighbors_of(v).tolist() == g.neighbors_of(v).tolist() for v in range(g.n))


def test_read_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("nope\n1 1\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        read_graph(p)


def test_read_rejects_wrong_edge_count(tmp_path):
    p = tmp_path / "short.g"
    p.write_text("ndl-graph 1\n4 3\n0 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="expected 6 edge lines"):
        read_graph(p)


def test_read_rejects_unordered_edge(tmp_path):
    p = tmp_path / "ord.g"
    p.write_text("ndl-graph 1\n2 1\n1 0\n")
    with pytest.raises(GraphFormatError, match="line 3.*u < v"):
        read_graph(p)


def test_read_rejects_out_of_range_vertex(tmp_path):
    p = tmp_path / "oob.g"
    p.write_text("ndl-graph 1\n2 1\n0 5\n")
    with pytest.raises(GraphFormatError, match="line 3.*out of range"):
        read_graph(p)


def test_read_rejects_non_integer(tmp_path):
    p = tmp_path / "alpha.g"
    p.write_text("ndl-graph 1\n2 1\n0 x\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        read_graph(p)
