"""Counter-based random number generation.

Every stream in the package is keyed by (master_seed, trial_index,
purpose tag) through a Philox counter generator, so vertex sampling,
coin streams, subset draws etc. are mutually independent and do not
depend on scheduling or worker count.  Purpose tags are short strings
hashed to stable 32-bit integers.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "TAG_COINS",
    "TAG_GRAPH",
    "TAG_GROWTH",
    "TAG_PAIRS",
    "TAG_SUBSETS",
    "derive_key",
    "make_generator",
    "trial_seed",
]

TAG_COINS = "coin_stream"
TAG_GRAPH = "graph_gen"
TAG_PAIRS = "pair_sample"
TAG_SUBSETS = "subset_sample"
TAG_GROWTH = "bfs_growth"


def _tag_code(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def derive_key(*parts: int | str) -> tuple[int, ...]:
    """Normalize a mixed (int, str) key into a tuple of non-negative ints."""
    out = []
    for part in parts:
        if isinstance(part, str):
            out.append(_tag_code(part))
        else:
            code = int(part)
            # SeedSequence wants non-negative entropy words
            out.append(code & 0xFFFFFFFFFFFFFFFF)
    return tuple(out)


def make_generator(*parts: int | str) -> np.random.Generator:
    """Generator keyed by the given (seed, index, tag, ...) parts."""
    seq = np.random.SeedSequence(derive_key(*parts))
    return np.random.Generator(np.random.Philox(seq))


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic 63-bit per-trial seed, order-insensitive across workers."""
    seq = np.random.SeedSequence(derive_key(master_seed, trial_index))
    return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))
