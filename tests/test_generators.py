import hashlib
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import cycle_graph, has_edge, petersen_graph
from percolab.generators import (
    GenSpec,
    _first_occurrence,
    generate,
)


def test_random_regular_is_seed_deterministic():
    a = generate(GenSpec("random_regular", n=500, d=7, seed=9))
    b = generate(GenSpec("random_regular", n=500, d=7, seed=9))
    c = generate(GenSpec("random_regular", n=500, d=7, seed=10))
    assert a.structurally_equal(b)
    assert not a.structurally_equal(c)


def test_random_regular_dense_degree():
    # d close to n stresses the pairing repair path
    g = generate(GenSpec("random_regular", n=100, d=20, seed=3))
    assert g.n == 100 and g.d == 20
    for v in (0, 17, 99):
        row = g.nbrs2d[v]
        assert np.all(np.diff(row) > 0) and v not in row


def test_genspec_validation_errors():
    with pytest.raises(ValueError, match="unknown family"):
        GenSpec("moebius", n=4, d=2).validate()
    with pytest.raises(ValueError, match="even"):
        GenSpec("random_regular", n=5, d=3).validate()
    with pytest.raises(ValueError, match="d < n"):
        GenSpec("random_regular", n=4, d=4).validate()
    with pytest.raises(ValueError, match="2\\^d"):
        GenSpec("hypercube", n=15, d=4).validate()
    with pytest.raises(ValueError, match="\\(d\\+1\\)"):
        GenSpec("clique_union", n=10, d=3).validate()
    with pytest.raises(ValueError, match="base_family other than blowup, got None"):
        GenSpec("blowup", n=8, d=4, blowup_factor=2).validate()
    with pytest.raises(ValueError, match="base_family other than blowup, got blowup"):
        GenSpec("blowup", n=8, d=4, blowup_factor=2, base_family="blowup").validate()
    with pytest.raises(ValueError, match=">= 2, got 1"):
        GenSpec("blowup", n=4, d=2, blowup_factor=1, base_family="hypercube").validate()


def test_hypercube_edges_are_bit_flips(q4):
    assert q4.n == 16 and q4.d == 4
    for v in range(16):
        expected = sorted(v ^ (1 << b) for b in range(4))
        assert q4.nbrs2d[v].tolist() == expected


def test_clique_union_blocks(cliques60):
    g = cliques60
    assert g.n == 60 and g.d == 5
    # within-block complete, across-block empty
    assert has_edge(g, 0, 5) and has_edge(g, 6, 11)
    assert not has_edge(g, 5, 6)
    assert not has_edge(g, 0, 59)


def test_blowup_structure():
    spec = GenSpec("blowup", n=24, d=9, blowup_factor=3, base_family="hypercube")
    g = generate(spec)
    assert g.n == 24 and g.d == 9
    base = generate(GenSpec("hypercube", n=8, d=3))
    for v in range(g.n):
        for w in g.nbrs2d[v]:
            # vertex v sits in the block of base vertex v // 3
            assert has_edge(base, v // 3, int(w) // 3)
        # blocks are independent sets
        blk = v // 3 * 3
        for w in range(blk, blk + 3):
            assert not has_edge(g, v, w)


def test_blowup_size_fields_checked():
    spec = GenSpec("blowup", n=16, d=6, seed=4, blowup_factor=2, base_family="hypercube")
    spec.validate()
    assert spec.base == GenSpec("hypercube", n=8, d=3, seed=4)
    with pytest.raises(ValueError, match="multiples of blowup_factor 2, got n=17 d=6"):
        replace(spec, n=17).validate()
    with pytest.raises(ValueError, match="hypercube needs n = 2\\^d, got n=8 d=4"):
        replace(spec, d=8).validate()  # the base is checked too


def test_reference_graphs(petersen, c6):
    assert petersen.n == 10 and petersen.d == 3
    assert has_edge(petersen, 0, 5) and has_edge(petersen, 5, 7)
    assert not has_edge(petersen, 5, 6)
    assert c6.n == 6 and c6.d == 2
    with pytest.raises(ValueError, match="^cycle needs n >= 3$"):
        cycle_graph(2)
    assert petersen_graph().structurally_equal(petersen)


def test_first_occurrence_matches_full_unique():
    rng = np.random.default_rng(3)
    for n, size in ((5, 6), (40, 300), (1000, 2000), (10**6, 50)):
        lo = rng.integers(0, n, size)
        hi = np.maximum(lo, rng.integers(0, n, size))
        key = lo << 32 | hi
        _, idx = np.unique(key, return_index=True)
        expected = np.zeros(size, dtype=bool)
        expected[idx] = True
        assert np.array_equal(_first_occurrence(lo, hi, np.sort(key), n), expected)


def test_generation_peak_memory_is_bounded():
    # n*d = 10^6 stubs.  At most these are live at once, in bytes per stub:
    # the int32 stubs (4); the round's n*d/2 int64 keys, their sorted copy
    # and the keys' low endpoints (4 each); a few n*d/2 bool masks.  The
    # CSR build holds less: the int32 edge halves and rows (4 each), one
    # int64 key array (4) and its int32 temporary (2).  About 18 bytes per
    # stub; 20 leaves room for small arrays and allocator noise.
    n, d = 50_000, 20
    generate(GenSpec("random_regular", n=500, d=4, seed=1))  # imports and first-call set-up
    tracemalloc.start()
    try:
        g = generate(GenSpec("random_regular", n=n, d=d, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.neighbors.nbytes == 4 * n * d
    assert peak <= 20 * n * d, f"generate peaked at {peak / (n * d):.1f} bytes per stub"


# SHA-256 of ``neighbors`` (int32 bytes) for fixed specs, paired with the
# number of pairing attempts a random_regular spec takes.  A change to the
# sampler that alters a single RNG call or a single accept decision moves
# these hashes.
_PINNED = [
    (GenSpec("random_regular", n=2000, d=8, seed=7), 1,
     "2317b7869a1a796cb4dd40a9eba477fb9d1f42458230cf0c764c66ee6740dd8b"),
    (GenSpec("random_regular", n=20000, d=20, seed=1), 3,
     "330567bb48d6f26e477424e250e33e2af815ebabc000ca30fcd8e8da8ab18aef"),
    (GenSpec("random_regular", n=50000, d=10, seed=1), 2,
     "444b0e1193d3cf93ce01233d087ab04c2ed42f35c256ad5ed9228bdc441f880f"),
    (GenSpec("random_regular", n=100, d=20, seed=3), 1,
     "c85c26018c2cc35fbd95de3c7b992873bc08e4624cd8f6b0cefe258dc026eb4e"),
    (GenSpec("hypercube", n=1024, d=10), 0,
     "e65ebdc96b61e2a50ebdf66eb2e38037b4dbcdb08bd386a63d0aa82842967509"),
    (GenSpec("clique_union", n=60, d=5), 0,
     "7fb4715b357716e0345cf1d0624640734cfdb1141cedf38f3b6cf2c6c5e68365"),
    (GenSpec("blowup", n=90, d=12, seed=2, blowup_factor=3, base_family="random_regular"), 2,
     "7dc38f2ec275046fb3886c4bef7eeec8c63e08dcf024149f43eb172c731306a5"),
]


@pytest.mark.parametrize("spec,attempts,digest", _PINNED,
                         ids=[f"{s.family}-{s.n}-{s.d}-{s.seed}" for s, _, _ in _PINNED])
def test_generation_is_pinned(spec, attempts, digest, caplog):
    with caplog.at_level(logging.DEBUG, logger="percolab.generators"):
        g = generate(spec)
    assert g.neighbors.dtype == np.int32
    assert hashlib.sha256(g.neighbors.tobytes()).hexdigest() == digest
    tried = [r for r in caplog.records if "pairing attempt" in r.getMessage()]
    assert len(tried) == attempts
    assert all("dead end" in r.getMessage() for r in tried[:-1])


def _debug_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "percolab.generators"]


# SHA-256 over 200 specs that restart often (185 dead ends, most of them a
# round that leaves one refused pair): each graph's neighbors, then its
# debug lines (attempts and rounds).  Computed with every stall round run
# in full, so it holds the dead-end shortcut to that loop's RNG stream,
# graphs and log.
_RESTART_DIGEST = "91da451bb2e9dec12da9f45e4577eef9b9881270e3301fad380570ab405c517a"


def test_dead_end_shortcut_keeps_graphs_and_log(caplog):
    sha = hashlib.sha256()
    with caplog.at_level(logging.DEBUG, logger="percolab.generators"):
        for n, d in ((30, 4), (100, 20)):
            for seed in range(100):
                caplog.clear()
                g = generate(GenSpec("random_regular", n=n, d=d, seed=seed))
                sha.update(g.neighbors.tobytes())
                for line in _debug_lines(caplog):
                    sha.update(line.encode())
    assert sha.hexdigest() == _RESTART_DIGEST


def test_one_pair_dead_end_counts_its_stall_rounds(caplog):
    # attempt 1 leaves one refused pair after round 2; the 50 stall rounds
    # that would follow count, as the loop would have run them
    with caplog.at_level(logging.DEBUG, logger="percolab.generators"):
        generate(GenSpec("random_regular", n=30, d=4, seed=0))
    lines = _debug_lines(caplog)
    assert lines[0] == "random_regular n=30 d=4 seed=0: pairing attempt 1 dead end after 52 rounds"
    assert lines[-1].endswith("done after 2 rounds") and len(lines) == 4
