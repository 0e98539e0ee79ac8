"""Site-percolation laboratory for d-regular pseudo-random graphs.

Build a graph, certify its spectral expansion, percolate vertices with
a seeded coin stream, census the resulting components, and compare the
measurements against closed-form predictions.
"""

from .census import (
    ComponentCensus,
    longest_cycle_lower_bound,
    take_census,
)
from .generators import GenSpec, GenSpecError, GenerationError, generate
from .graph_core import (
    RegularGraph,
    RegularityError,
    VertexSet,
    edge_count_between,
    external_neighborhood,
)
from .harness import ExperimentConfig, compare, run_sweep
from .percolation import (
    CoinStream,
    DfsTrace,
    PercolationSample,
    components_oracle,
    run_dfs,
)
from .spectral import SpectralConvergenceError, SpectrumReport, compute_spectrum, delta_of_alpha
from .theory import TheoryPrediction, predict, solve_x, solve_y
from .verify import (
    ViolationReport,
    check_corollary_2_3,
    check_giant_expansion,
    check_lemma_2_4,
    check_mixing,
    check_stream_properties,
)

__version__ = "0.1.0"

__all__ = [
    "CoinStream",
    "ComponentCensus",
    "DfsTrace",
    "ExperimentConfig",
    "GenSpec",
    "GenSpecError",
    "GenerationError",
    "PercolationSample",
    "RegularGraph",
    "RegularityError",
    "SpectralConvergenceError",
    "SpectrumReport",
    "TheoryPrediction",
    "VertexSet",
    "ViolationReport",
    "check_corollary_2_3",
    "check_giant_expansion",
    "check_lemma_2_4",
    "check_mixing",
    "check_stream_properties",
    "compare",
    "components_oracle",
    "compute_spectrum",
    "delta_of_alpha",
    "edge_count_between",
    "external_neighborhood",
    "generate",
    "longest_cycle_lower_bound",
    "predict",
    "run_dfs",
    "run_sweep",
    "solve_x",
    "solve_y",
    "take_census",
]
