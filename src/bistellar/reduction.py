"""Reduction of combinatorial spheres to boundaries of simplices.

One search serves every dimension (``_search``): breadth-first over the
vertex-count plateau of a state, in seeded order, up to the first state
that has its next step.  On a 2-sphere that is a complexity-decreasing move
(``moves.decreasing_moves``); one exists above the tetrahedron, so the
plateau is never entered.  On a d-sphere, d >= 3, it is the elimination of
a vertex v.  A move (sigma', tau') of link(v) lifts to the move
(sigma' + v, tau'), whose induced move at v is the link move itself; the
lift is valid iff tau' is not a face of the sphere.  A 2-sphere link takes
the decreasing move whose lift has the least sum of squared vertex
degrees, with seeded ties; a larger link takes its own next step from the
search, every move of which must lift.  Once the link is the boundary of a
simplex, the move ((v), link vertices) removes v.  The vertices are tried
in seeded order of ascending degree; v is blocked when a link move does not
lift, the link's search fails or the elimination needs more than
``budget`` moves.  Moves are scored from ``BistellarMove.result_degrees()``
and only the picked ones are applied.

The result is a ``MoveSequence`` on the canonical representative of the
start class: self-contained, deterministic per seed, and valid as built
(``apply_move`` checked each move), so a computed certificate is never
replayed; ``replay`` serves certificates loaded from a file, which
``pontryagin.XiCache`` replays once before their first use.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import NamedTuple

from .canonical import OKey, materialize, okey, ukey
from .errors import BudgetExhausted, InvalidParams, MalformedInput
from .moves import BistellarMove, apply_move, complexity_thirds, decreasing_moves, enumerate_moves, move_tau
from .simplicial import OrientedComplex, Simplex


class MoveSequence(NamedTuple):
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


def _sq(mv: BistellarMove) -> int:
    """The sum of squared vertex degrees after the move."""
    return sum(d * d for d in mv.result_degrees().values())


def _pick(rng: random.Random, scored: list[tuple]) -> list:
    """[the item of least score, seeded among ties], or [] for no items."""
    top = min((e for e, _ in scored), default=None)
    pool = [x for e, x in scored if e == top]
    return pool and [pool[rng.randrange(len(pool))]]


def _lift(state: OrientedComplex, v: int, lm: BistellarMove) -> BistellarMove | None:
    """The move (sigma' + v, tau') of ``state`` for the move (sigma', tau')
    of link(v), or None when tau' is a face of ``state``."""
    sig = tuple(sorted(lm.sigma + (v,)))
    return BistellarMove(state, sig, lm.tau) if move_tau(state, sig) == lm.tau else None


def _eliminate(state: OrientedComplex, v: int, rng: random.Random, cap: int) -> list[BistellarMove] | None:
    """Moves of the sphere ``state`` that remove v: lifts of moves reducing
    link(v), then the removal of v.  None when v is blocked: a link move
    does not lift, the link's search fails, or the elimination needs more
    than ``cap`` moves."""
    link = state.link((v,))
    path: list[BistellarMove] = []
    while len(link.vertices) > state.dim + 1:
        if link.dim == 2:
            steps = _pick(rng, [(_sq(mv), lm) for lm in decreasing_moves(link) if (mv := _lift(state, v, lm))])
        else:
            steps = _search(link, rng, cap)[0]
        if not steps:
            return None
        for lm in steps:
            mv = _lift(state, v, lm)
            if mv is None:
                return None
            path.append(mv)
            state, link = mv.result, lm.result
    tau = move_tau(state, (v,))
    if tau is None or len(path) >= cap:
        return None
    path.append(BistellarMove(state, (v,), tau))
    return path


def _step(state: OrientedComplex, rng: random.Random, cap: int) -> list[BistellarMove] | None:
    """The next step of ``state``, if it has one: on a 2-sphere the
    decreasing move of least (complexity, sum of squared degrees), with
    seeded ties in ``describe`` order; otherwise the elimination of the
    first unblocked vertex in seeded order of ascending degree."""
    if state.dim == 2:
        moves = sorted(decreasing_moves(state), key=BistellarMove.describe)
        return _pick(rng, [((complexity_thirds(mv.result_degrees().values()), _sq(mv)), mv) for mv in moves])
    order = list(state.vertices)
    rng.shuffle(order)
    order.sort(key=state.degrees.__getitem__)
    return next(filter(None, (_eliminate(state, v, rng, cap) for v in order)), None)


def _search(state: OrientedComplex, rng: random.Random, cap: int) -> tuple[list[BistellarMove] | None, int]:
    """The moves from ``state`` to the end of its next step (``_step``), and
    the number of plateau states taken.

    Breadth-first over the vertex-count plateau of ``state`` in seeded
    order, from ``state`` itself: each state taken from the queue counts
    against ``cap`` and is tested for a step; one without is labelled by
    its ``ukey`` and expanded the first time its class is met.  The moves
    are None when the plateau runs out or ``cap`` states have been taken.
    """
    frontier = deque([[]])
    seen = set()
    taken = 0
    while frontier and taken < cap:
        taken += 1
        path = frontier.popleft()
        st = path[-1].result if path else state
        step = _step(st, rng, cap)
        if step:
            return path + step, taken
        if (k := ukey(st)) not in seen:
            seen.add(k)
            level = [mv for mv in enumerate_moves(st) if 0 < mv.k < st.dim]
            rng.shuffle(level)
            frontier.extend(path + [mv] for mv in level)
    return None, taken


def reduce_to_boundary(L: OrientedComplex, budget: int = 4000, seed: int = 0) -> MoveSequence:
    """A move sequence from L's class to the boundary of a simplex.

    Deterministic given the seed, and valid by construction.  Each step
    comes from ``_search``.  Raises BudgetExhausted (with the best partial
    state) if a search takes ``budget`` plateau states, or runs out of
    plateau, without finding a step; its message says which and how many
    states were taken.  With ``budget`` 0 it is raised before any move; a
    negative ``budget`` is InvalidParams.
    """
    if budget < 0:
        raise InvalidParams(f"negative reduction budget {budget}")
    start_key = okey(L)
    state = materialize(start_key)
    rng = random.Random(repr((seed, start_key.encode())))
    trail: list[tuple[Simplex, Simplex]] = []
    while len(state.vertices) > L.dim + 2:
        path, taken = _search(state, rng, budget)
        if path is None:
            end = "cap reached" if taken == budget else "ran out"
            raise BudgetExhausted(
                f"reduction plateau {end} after {taken} of at most {budget} states (seed {seed})",
                best_state=state,
                moves_done=trail,
            )
        state = path[-1].result
        trail.extend((mv.sigma, mv.tau) for mv in path)
    return MoveSequence(start_key, tuple(trail), okey(state))
