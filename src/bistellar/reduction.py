"""Reduction of combinatorial spheres to boundaries of simplices.

The search is greedy descent on (vertex count, for 2-spheres the
complexity, sum of squared vertex degrees) with seeded random
tie-breaking and random plateau walks as escapes.  A move is scored by a
degree diff without building the resulting complex.  The result is a
replay-verified ``MoveSequence`` recorded in the coordinates of the
canonical representative of the start class, so the certificate is
self-contained and deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, combinations, repeat

from .canonical import OKey, materialize, okey, ukey
from .errors import BudgetExhausted
from .moves import BistellarMove, apply_move, complexity_thirds, enumerate_moves
from .simplicial import OrientedComplex, Simplex


@dataclass(frozen=True)
class MoveSequence:
    """Replayable reduction certificate.

    Moves are (sigma, tau) pairs valid on the canonical representative of
    ``start`` and on its successive images.
    """

    start: OKey
    moves: tuple[tuple[Simplex, Simplex], ...]
    end: OKey

    def to_json(self) -> dict:
        return {
            "start_key": self.start.encode(),
            "end_key": self.end.encode(),
            "moves": [{"sigma": list(s), "tau": list(t)} for s, t in self.moves],
        }

    @staticmethod
    def from_json(data: dict) -> "MoveSequence":
        return MoveSequence(
            OKey.decode(data["start_key"]),
            tuple((tuple(m["sigma"]), tuple(m["tau"])) for m in data["moves"]),
            OKey.decode(data["end_key"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def replay(seq: MoveSequence) -> tuple[OrientedComplex, list[OrientedComplex]]:
    """Apply the certificate from its start representative; returns the final
    complex and all intermediate states (start included)."""
    state = materialize(seq.start)
    states = [state]
    for sig, tau in seq.moves:
        state = apply_move(BistellarMove(state, sig, tau))
        states.append(state)
    if okey(state) != seq.end:
        raise BudgetExhausted("certificate replay did not reach the recorded end key")
    return state, states


def _degrees(K: OrientedComplex) -> dict[int, int]:
    degs = dict.fromkeys(K.vertices, 0)
    for f in K.facets:
        for v in f:
            degs[v] += 1
    return degs


def _energy_from_degrees(dim: int, degs: dict[int, int]) -> tuple[int, int, int]:
    vals = degs.values()
    # for 2-spheres the complexity orders states within a vertex count; a
    # complexity-decreasing move always exists, so greedy descent never stalls
    return (len(degs), complexity_thirds(vals) if dim == 2 else 0, sum(d * d for d in vals))


def _move_energy(state: OrientedComplex, degs: dict[int, int], mv: BistellarMove):
    """Energy of the move's result, via the facet diff only."""
    ss = set(mv.sigma)
    delta: dict[int, int] = {}
    for f in state.facets:
        if ss <= set(f):
            for v in f:
                delta[v] = delta.get(v, 0) - 1
    if len(mv.sigma) == 1:
        new_facets = [mv.tau]
    else:
        new_facets = [tuple(sorted([v for v in mv.sigma if v != s] + list(mv.tau))) for s in mv.sigma]
    for f in new_facets:
        for v in f:
            delta[v] = delta.get(v, 0) + 1
    nd = dict(degs)
    for v, d in delta.items():
        nd[v] = nd.get(v, 0) + d
        if nd[v] == 0:
            del nd[v]
    return _energy_from_degrees(state.dim, nd)


def _iso_invariant(K: OrientedComplex) -> tuple:
    """Sorted vertex degrees and sorted edge degrees (facets per edge):
    equal for isomorphic complexes and far cheaper than a canonical form."""
    vdeg = Counter(chain.from_iterable(K.facets))
    edeg = Counter(chain.from_iterable(map(combinations, K.facets, repeat(2))))
    return tuple(sorted(vdeg.values())), tuple(sorted(edeg.values()))


class _Visited:
    """Isomorphism classes seen by a plateau search.

    States are bucketed by ``_iso_invariant``; the canonical key of a state
    is computed only once another state shares its bucket.  Isomorphic
    states always share a bucket, so ``add`` decides exactly as comparing
    canonical keys of all states would.
    """

    def __init__(self, state: OrientedComplex):
        self._buckets: dict[tuple, list] = {_iso_invariant(state): [[state.complex, None]]}

    def add(self, state: OrientedComplex) -> bool:
        """Record the class of ``state``; False if it was already seen."""
        bucket = self._buckets.setdefault(_iso_invariant(state), [])
        if not bucket:
            bucket.append([state.complex, None])
            return True
        k = ukey(state.complex)
        for entry in bucket:
            if entry[1] is None:
                entry[1] = ukey(entry[0])
            if entry[1] == k:
                return False
        bucket.append([state.complex, k])
        return True


def _find_descent(state: OrientedComplex, rng: random.Random, cap: int):
    """Search the vertex-count plateau of ``state`` for a path ending in a
    vertex-reducing move (for 2-spheres, a complexity-reducing move).

    Breadth-first over canonical classes in seeded order; returns the move
    path or None when the plateau is exhausted or the cap is hit.
    """
    n = state.dim
    degs = _degrees(state)
    cur = _energy_from_degrees(n, degs)
    frontier = deque([(state, [])])
    visited = _Visited(state)
    expanded = 0
    while frontier:
        st, path = frontier.popleft()
        expanded += 1
        if expanded > cap:
            return None
        moves = enumerate_moves(st)
        degs = _degrees(st)
        scored = [(_move_energy(st, degs, mv), mv) for mv in moves]
        reducing = [x for x in scored if x[0][:2] < cur[:2]]
        if reducing:
            top = min(x[0] for x in reducing)
            pool = sorted((m for e, m in reducing if e == top), key=lambda m: m.describe())
            return path + [pool[rng.randrange(len(pool))]]
        level = [x for x in scored if x[0][0] == cur[0]]
        rng.shuffle(level)
        # low-energy neighbors first makes short descents likely
        level.sort(key=lambda x: x[0])
        for _, mv in level:
            nxt = apply_move(mv)
            if visited.add(nxt):
                frontier.append((nxt, path + [mv]))
    return None


def reduce_to_boundary(L: OrientedComplex, budget: int = 4000, seed: int = 0) -> MoveSequence:
    """A verified move sequence from L's class to the boundary of a simplex.

    Deterministic given the seed.  Raises BudgetExhausted (with the best
    partial state) if the search does not finish within ``budget`` expanded
    plateau states.
    """
    n = L.dim
    target_nv = n + 2
    start_key = okey(L)
    rep = materialize(start_key)
    rng = random.Random(repr((seed, start_key.encode())))
    state = rep
    trail: list[tuple[Simplex, Simplex]] = []
    while len(state.vertices) > target_nv:
        path = _find_descent(state, rng, cap=budget)
        if path is None:
            raise BudgetExhausted(
                f"reduction plateau cap {budget} exhausted (seed {seed})",
                best_state=state,
                moves_done=trail,
            )
        for mv in path:
            state = apply_move(BistellarMove(state, mv.sigma, mv.tau))
            trail.append((mv.sigma, mv.tau))
    seq = MoveSequence(start_key, tuple(trail), okey(state))
    replay(seq)
    return seq
