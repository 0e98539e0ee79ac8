"""Graph family constructors.

Families: uniform-ish random d-regular graphs via the stub-pairing
(configuration) model, hypercubes, blow-ups of a base graph, and the
disjoint-clique-union negative control.

Pairing model: vertices contribute d stubs each; stubs are shuffled and
paired.  Self-loops and repeated edges are resolved by re-shuffling the
offending stubs only; a full restart happens when 50 rounds in a row
make no progress.  A round that leaves one refused pair settles the
attempt at once: that pair is a self-loop or an accepted edge, so every
later round refuses it too.  The attempt still draws the shuffles of the
stall rounds to come and counts them, so the RNG stream, the graph and
the logged round count are those of the full loop.  A whole-matching
restart on every collision would be exactly uniform but its success
probability decays like exp(-(d^2-1)/4), which is ~5e-44 at d=20, so
the repair variant (the standard practical sampler, asymptotically
uniform for d = O(n^{1/3})) is used instead.

Cost: one shuffle of the n*d stubs as int64 (numpy's shuffle swaps
8-byte items fastest, with the same draws for any dtype), cast to int32;
then per round one in-place sort of that round's int64 edge keys
lo << 32 | hi.  The sorted keys, bar the few refused, are the round's
new keys; those of later rounds, which touch only the few re-paired
stubs, are inserted into the accepted ones, one copy of them per round.
A restart repeats the whole attempt, shuffle included, so a graph seed
that needs k attempts costs about k times as much.  One attempt plus
the CSR build (``from_edges``) takes 0.31-0.37 s at n=200k, d=20 on 2
vCPUs, 0.16-0.23 s of it the shuffle, and holds at most 15.3 bytes of
arrays per stub (58.4 MiB there).  Attempts and rounds are logged at
DEBUG on ``percolab.generators``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph_core import RegularGraph, _pair_keys, _upper_edges
from .rng import TAG_GRAPH, make_generator

__all__ = [
    "FAMILIES",
    "GenSpec",
    "GenSpecError",
    "GenerationError",
    "generate",
]

log = logging.getLogger("percolab.generators")

FAMILIES = ("random_regular", "hypercube", "blowup", "clique_union")

RESTART_CAP = 1000
_STALL_ROUNDS = 50


class GenSpecError(ValueError):
    """Infeasible or inconsistent generation spec."""


class GenerationError(RuntimeError):
    """Sampler failed within its restart budget."""


@dataclass(frozen=True)
class GenSpec:
    """What to build: family, size, degree and seed.  A blow-up gives its
    own n, d and seed plus ``blowup_factor`` s and ``base_family``; it is
    built from ``base``, the base_family graph of size n/s, degree d/s
    and the same seed."""

    family: str
    n: int = 0
    d: int = 0
    seed: int = 0
    blowup_factor: int | None = None
    base_family: str | None = None

    @property
    def base(self) -> "GenSpec":
        """The base graph a blow-up is built from."""
        s = self.blowup_factor
        return GenSpec(self.base_family, self.n // s, self.d // s, self.seed)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise GenSpecError(f"unknown family {self.family!r}")
        for key in ("blowup_factor", "base_family"):
            if self.family != "blowup" and getattr(self, key) is not None:
                raise GenSpecError(f"{key} applies only to family blowup, not {self.family}")
        if self.family == "random_regular":
            if self.d < 1 or self.d >= self.n:
                raise GenSpecError(f"need 1 <= d < n, got n={self.n} d={self.d}")
            if self.n * self.d % 2 != 0:
                raise GenSpecError(f"n*d must be even, got n={self.n} d={self.d}")
        elif self.family == "hypercube":
            if self.d < 1 or self.n != 2**self.d:
                raise GenSpecError(f"hypercube needs n = 2^d, got n={self.n} d={self.d}")
        elif self.family == "clique_union":
            if self.d < 1 or self.n % (self.d + 1) != 0:
                raise GenSpecError(
                    f"clique_union needs (d+1) | n, got n={self.n} d={self.d}"
                )
        elif self.family == "blowup":
            s = self.blowup_factor
            if s is None or s < 2:
                raise GenSpecError(f"blowup_factor must be an integer >= 2, got {s}")
            if self.base_family in (None, "blowup"):
                raise GenSpecError(f"blowup needs a base_family other than blowup, "
                                   f"got {self.base_family}")
            if min(self.n, self.d) < 1 or self.n % s or self.d % s:
                raise GenSpecError(f"blowup needs n and d positive multiples of "
                                   f"blowup_factor {s}, got n={self.n} d={self.d}")
            self.base.validate()


def generate(spec: GenSpec) -> RegularGraph:
    """Build the graph described by ``spec``; deterministic given seed."""
    spec.validate()
    if spec.family == "random_regular":
        return _random_regular(spec.n, spec.d, spec.seed)
    if spec.family == "hypercube":
        return _hypercube(spec.d)
    if spec.family == "clique_union":
        return _clique_union(spec.n, spec.d)
    return _blowup(generate(spec.base), spec.blowup_factor)


# ----------------------------------------------------------------------
# random regular: stub pairing with per-round repair
# ----------------------------------------------------------------------
def _in_sorted(srt: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``key`` found in ``srt``, sorted and nonempty."""
    return srt[np.minimum(np.searchsorted(srt, key), srt.size - 1)] == key


def _first_occurrence(lo: np.ndarray, hi: np.ndarray, srt: np.ndarray, n: int) -> np.ndarray:
    """Mask of the first occurrence of each pair (lo, hi), given ``srt``,
    their keys (``_pair_keys``) sorted.

    Repeats are rare, so only the pairs that carry a repeated key go
    through the stable ``np.unique(return_index=True)``, picked out by a
    table over the low endpoint, then ``_in_sorted`` on srt's repeated keys.
    """
    first = np.ones(lo.size, dtype=bool)
    rep = srt[1:][srt[1:] == srt[:-1]]
    if rep.size:
        rep_lo = np.zeros(n, dtype=bool)
        rep_lo[rep >> 32] = True
        cand = np.flatnonzero(rep_lo[lo])
        carry = cand[_in_sorted(rep, _pair_keys(lo[cand], hi[cand]))]
        _, idx = np.unique(_pair_keys(lo[carry], hi[carry]), return_index=True)
        first[carry] = False
        first[carry[idx]] = True
    return first


def _try_pairing(n: int, d: int, rng: np.random.Generator):
    """One pairing attempt: ``(edges, rounds)``, where ``edges`` is the
    int32 pair (lo, hi) of the edges sorted by (lo, hi), or None at a dead end."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)  # the same draws for any dtype, and the fastest swap for 8-byte items
    pending = stubs.astype(np.int32)
    del stubs
    accepted = np.empty(0, dtype=np.int64)  # sorted edge keys
    stall = 0
    rounds = 0
    while pending.size:
        rounds += 1
        u = pending[0::2]
        v = pending[1::2]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        srt = _pair_keys(lo, hi)
        srt.sort()  # in place: a pair's key is rebuilt from (lo, hi) where it is needed
        # keep only the first occurrence of each key within this round
        first = _first_occurrence(lo, hi, srt, n)
        good = first & (lo != hi)
        if accepted.size:
            good &= ~_in_sorted(accepted, _pair_keys(lo, hi))
        # the round's new keys, sorted, are srt's distinct values bar the
        # few whose first occurrence is a self-loop or already accepted
        refused = first & ~good
        refused = _pair_keys(lo[refused], hi[refused])
        bad = ~good
        pending = np.concatenate([u[bad], v[bad]])
        del u, v, lo, hi, first, good, bad  # before srt's new keys are copied
        keep = np.empty(srt.size, dtype=bool)
        keep[0] = True
        np.not_equal(srt[1:], srt[:-1], out=keep[1:])
        keep[np.searchsorted(srt, refused)] = False
        new = srt[keep]
        if new.size:
            if accepted.size:
                accepted = np.insert(accepted, np.searchsorted(accepted, new), new)
            else:
                accepted = new
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_ROUNDS:
                return None, rounds  # dead end; caller restarts
        rng.shuffle(pending)
        if pending.size == 2:
            # one refused pair: a self-loop or an accepted edge, refused in
            # every later round too.  Draw the shuffles of the stall rounds
            # to come, so the stream stays as if they had run
            for _ in range(_STALL_ROUNDS - stall - 1):
                rng.shuffle(pending)
            return None, rounds + _STALL_ROUNDS - stall
    lo = np.right_shift(accepted, 32, out=np.empty(accepted.size, np.int32), casting="unsafe")
    hi = np.bitwise_and(accepted, 0xFFFFFFFF, out=np.empty(accepted.size, np.int32),
                        casting="unsafe")
    return (lo, hi), rounds


def _random_regular(n: int, d: int, seed: int) -> RegularGraph:
    rng = make_generator(seed, TAG_GRAPH)
    for attempt in range(1, RESTART_CAP + 1):
        edges, rounds = _try_pairing(n, d, rng)
        log.debug(
            "random_regular n=%d d=%d seed=%d: pairing attempt %d %s after %d rounds",
            n, d, seed, attempt, "dead end" if edges is None else "done", rounds,
        )
        if edges is not None:
            return RegularGraph.from_edges(n, d, *edges)
    raise GenerationError(
        f"pairing model failed after {RESTART_CAP} restarts for n={n} d={d}"
    )


# ----------------------------------------------------------------------
# deterministic families
# ----------------------------------------------------------------------
def _hypercube(d: int) -> RegularGraph:
    n = 2**d
    nbrs = np.arange(n, dtype=np.int64)[:, None] ^ (1 << np.arange(d, dtype=np.int64))
    return RegularGraph.from_edges(n, d, *_upper_edges(nbrs))


def _clique_union(n: int, d: int) -> RegularGraph:
    verts = np.arange(n, dtype=np.int64)[:, None]
    clique = verts // (d + 1) * (d + 1) + np.arange(d + 1)  # each vertex's clique, itself included
    return RegularGraph.from_edges(n, d, *_upper_edges(clique[clique != verts].reshape(n, d)))


def _blowup(base: RegularGraph, s: int) -> RegularGraph:
    """Replace every base vertex b by the independent block {s*b..s*b+s-1}."""
    n0, d0 = base.n, base.d
    n, d = s * n0, s * d0
    base_rows = base.nbrs2d.astype(np.int64)  # (n0, d0), sorted
    # block-expanded neighbor row for each base vertex, shared by its block
    expanded = (base_rows[:, :, None] * s + np.arange(s, dtype=np.int64)).reshape(n0, d)
    nbrs = np.repeat(expanded, s, axis=0)  # (n, d), rows stay sorted
    return RegularGraph.from_edges(n, d, *_upper_edges(nbrs))
