"""Reduction of combinatorial spheres to boundaries of simplices.

A 3-sphere is reduced by vertex elimination.  The link of a vertex v is a
2-sphere, and a 2-sphere above the tetrahedron always has a
complexity-decreasing move (``moves.decreasing_moves``).  Each link move
(sigma', tau') lifts to the move (sigma' + v, tau') of the 3-sphere, whose
induced move at v is the link move itself; the lift is valid iff tau' is not
a face of the 3-sphere.  Once the link is the boundary of a tetrahedron, the
move ((v), link vertices) removes v.  The vertices are tried in seeded order
of ascending degree, each lift is the one of least energy (sum of squared
vertex degrees) with seeded ties, and the first unblocked vertex is
eliminated.  A vertex is blocked when no decreasing link move lifts or when
its elimination needs more than ``budget`` moves.

2-spheres, 4-spheres and a 3-sphere whose vertices are all blocked use
greedy descent on (vertex count, for 2-spheres the complexity, sum of
squared vertex degrees) with seeded random tie-breaking and random plateau
walks as escapes.  A move is scored without building the resulting complex,
from ``BistellarMove.result_degrees()``.  Each plateau state is the cached
``result`` of the move that reached it, so a found path is not applied
again.

The result is a replay-verified ``MoveSequence`` recorded in the
coordinates of the canonical representative of the start class, so the
certificate is self-contained and deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass

from .canonical import OKey, materialize, okey, ukey
from .errors import BudgetExhausted, MalformedInput
from .moves import BistellarMove, apply_move, complexity_thirds, decreasing_moves, enumerate_moves, move_tau
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
    complex and all intermediate states (start included).  A certificate that
    stops short of its recorded end key is ``MalformedInput``."""
    state = materialize(seq.start)
    states = [state]
    for sig, tau in seq.moves:
        state = apply_move(BistellarMove(state, sig, tau))
        states.append(state)
    if okey(state) != seq.end:
        raise MalformedInput("certificate replay did not reach the recorded end key")
    return state, states


def _energy_from_degrees(dim: int, degs: dict[int, int]) -> tuple[int, int, int]:
    vals = degs.values()
    # for 2-spheres the complexity orders states within a vertex count; a
    # complexity-decreasing move always exists, so greedy descent never stalls
    return (len(degs), complexity_thirds(vals) if dim == 2 else 0, sum(d * d for d in vals))


def _find_descent(state: OrientedComplex, rng: random.Random, cap: int):
    """Search the vertex-count plateau of ``state`` for a path ending in a
    vertex-reducing move (for 2-spheres, a complexity-reducing move).

    Breadth-first over canonical classes in seeded order, each queued once
    by its ``ukey``; returns the move path or None when the plateau is
    exhausted or the cap is hit.
    """
    cur = _energy_from_degrees(state.dim, state.degrees)
    frontier = deque([(state, [])])
    visited = {ukey(state)}
    expanded = 0
    while frontier:
        st, path = frontier.popleft()
        expanded += 1
        if expanded > cap:
            return None
        scored = [(_energy_from_degrees(st.dim, mv.result_degrees()), mv) for mv in enumerate_moves(st)]
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
            k = ukey(mv.result)
            if k not in visited:
                visited.add(k)
                frontier.append((mv.result, path + [mv]))
    return None


def _eliminate(state: OrientedComplex, v: int, rng: random.Random, cap: int) -> list[BistellarMove] | None:
    """Moves of the 3-sphere ``state`` that remove v: lifts of a complexity
    descent of link(v), then the removal of v.  None when v is blocked: no
    decreasing link move lifts, or the elimination needs more than ``cap``
    moves."""
    link = state.link((v,))
    path: list[BistellarMove] = []
    while len(link.vertices) > 4:
        lifts = []
        for lm in decreasing_moves(link):
            sig = tuple(sorted(lm.sigma + (v,)))
            if move_tau(state, sig) == lm.tau:
                mv = BistellarMove(state, sig, lm.tau)
                lifts.append((_energy_from_degrees(3, mv.result_degrees()), lm, mv))
        if not lifts:
            return None
        top = min(e for e, _, _ in lifts)
        pool = [(lm, mv) for e, lm, mv in lifts if e == top]
        lm, mv = pool[rng.randrange(len(pool))]
        path.append(mv)
        state, link = mv.result, lm.result
    tau = move_tau(state, (v,))
    if tau is None or len(path) >= cap:
        return None
    path.append(BistellarMove(state, (v,), tau))
    return path


def _eliminate_some_vertex(state: OrientedComplex, rng: random.Random, cap: int) -> list[BistellarMove] | None:
    """The elimination of the first vertex, in seeded order of ascending
    degree, that is not blocked; None when every vertex is blocked."""
    order = list(state.vertices)
    rng.shuffle(order)
    order.sort(key=state.degrees.__getitem__)
    return next(filter(None, (_eliminate(state, v, rng, cap) for v in order)), None)


def reduce_to_boundary(L: OrientedComplex, budget: int = 4000, seed: int = 0) -> MoveSequence:
    """A verified move sequence from L's class to the boundary of a simplex.

    Deterministic given the seed.  A 3-sphere is reduced by vertex
    elimination, with the plateau search as the fallback when every vertex
    is blocked.  Raises BudgetExhausted (with the best partial state) if the
    plateau search does not finish within ``budget`` expanded plateau
    states; with ``budget`` 0 it is raised before any move.
    """
    n = L.dim
    target_nv = n + 2
    start_key = okey(L)
    rep = materialize(start_key)
    rng = random.Random(repr((seed, start_key.encode())))
    state = rep
    trail: list[tuple[Simplex, Simplex]] = []
    while len(state.vertices) > target_nv:
        path = _eliminate_some_vertex(state, rng, budget) if n == 3 else None
        if path is None:
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
