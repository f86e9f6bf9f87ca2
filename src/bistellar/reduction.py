"""Reduction of combinatorial spheres to boundaries of simplices.

The search is greedy descent on (vertex count, for 2-spheres the
complexity, sum of squared vertex degrees) with seeded random
tie-breaking and random plateau walks as escapes.  A move is scored
without building the resulting complex: the state's cached vertex degrees
(``Complex.degrees``) change only on the move's two stars, ``removed`` and
``added``.  Each plateau state is the cached ``result`` of the move that
reached it, so a found path is not applied again.  The result is a
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


def _energy_from_degrees(dim: int, degs: dict[int, int]) -> tuple[int, int, int]:
    vals = degs.values()
    # for 2-spheres the complexity orders states within a vertex count; a
    # complexity-decreasing move always exists, so greedy descent never stalls
    return (len(degs), complexity_thirds(vals) if dim == 2 else 0, sum(d * d for d in vals))


def _move_energy(mv: BistellarMove):
    """Energy of the move's result: degrees change only on its two stars."""
    degs = dict(mv.host.degrees)
    for star, d in ((mv.removed, -1), (mv.added, 1)):
        for f, _ in star:
            for v in f:
                degs[v] = degs.get(v, 0) + d
    for v in mv.sigma:  # a removed vertex leaves no facet behind
        if not degs[v]:
            del degs[v]
    return _energy_from_degrees(mv.host.dim, degs)


def _iso_invariant(K: OrientedComplex) -> tuple:
    """Sorted vertex degrees and sorted edge degrees (facets per edge):
    equal for isomorphic complexes and far cheaper than a canonical form."""
    edeg = Counter(chain.from_iterable(map(combinations, K.facets, repeat(2))))
    return tuple(sorted(K.degrees.values())), tuple(sorted(edeg.values()))


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
    cur = _energy_from_degrees(state.dim, state.degrees)
    frontier = deque([(state, [])])
    visited = _Visited(state)
    expanded = 0
    while frontier:
        st, path = frontier.popleft()
        expanded += 1
        if expanded > cap:
            return None
        scored = [(_move_energy(mv), mv) for mv in enumerate_moves(st)]
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
            if visited.add(mv.result):
                frontier.append((mv.result, path + [mv]))
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
        state = path[-1].result
        trail.extend((mv.sigma, mv.tau) for mv in path)
    seq = MoveSequence(start_key, tuple(trail), okey(state))
    replay(seq)
    return seq
