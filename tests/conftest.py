import sys

import numpy as np
import pytest

from oracles import cycle_graph, petersen_graph
from percolab.generators import GenSpec, generate


@pytest.fixture(scope="session")
def k4():
    return generate(GenSpec("clique_union", n=4, d=3))


@pytest.fixture(scope="session")
def q4():
    return generate(GenSpec("hypercube", n=16, d=4))


@pytest.fixture(scope="session")
def c6():
    return cycle_graph(6)


@pytest.fixture(scope="session")
def petersen():
    return petersen_graph()


@pytest.fixture(scope="session")
def cliques60():
    return generate(GenSpec("clique_union", n=60, d=5))


@pytest.fixture(scope="session")
def rr_small():
    return generate(GenSpec("random_regular", n=200, d=6, seed=1))


@pytest.fixture(scope="session")
def rr_10k():
    return generate(GenSpec("random_regular", n=10_000, d=20, seed=41))


def _dense_extremes(g):
    """(lambda2, lambdaN) from numpy's dense eigvalsh of B = A - ((d+1)/n) J: the
    tests' oracle for compute_spectrum, which shares none of its code."""
    a = np.zeros((g.n, g.n))
    np.add.at(a, (np.repeat(np.arange(g.n), g.d), g.neighbors), 1.0)
    w = np.linalg.eigvalsh(a - (g.d + 1) / g.n)
    return float(w[-1]), float(w[0])


@pytest.fixture(scope="session")
def dense_extremes():
    return _dense_extremes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
