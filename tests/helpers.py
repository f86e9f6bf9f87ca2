"""Shared generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from bistellar.canonical import okey
from bistellar.gamma2 import Gamma2Chain, sphere_complexity
from bistellar.library import cp2_9
from bistellar.moves import apply_move, enumerate_moves
from bistellar.simplicial import OrientedComplex, boundary_of_simplex, build_complex, orient


def octahedron() -> OrientedComplex:
    return orient(
        build_complex(
            [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]]
        )
    )


def icosahedron() -> OrientedComplex:
    return orient(
        build_complex(
            [
                [0, 1, 2], [0, 1, 5], [0, 2, 7], [0, 5, 6], [0, 6, 7],
                [1, 2, 3], [1, 3, 4], [1, 4, 5], [2, 3, 8], [2, 7, 8],
                [3, 4, 9], [3, 8, 9], [4, 5, 10], [4, 9, 10], [5, 6, 10],
                [6, 7, 11], [6, 10, 11], [7, 8, 11], [8, 9, 11], [9, 10, 11],
            ]
        )
    )


def perturbed_cp2(seed: int, steps: int = 5) -> OrientedComplex:
    """The bundled CP^2 after ``steps`` seeded random Pachner moves (the moves
    sorted first, so the walk does not depend on the enumeration order)."""
    rng = random.Random(seed)
    state = orient(cp2_9())
    for _ in range(steps):
        moves = sorted(enumerate_moves(state), key=lambda m: (m.sigma, m.tau))
        state = apply_move(moves[rng.randrange(len(moves))])
    return state


def random_walk_sphere(rng: random.Random, steps: int = 6, max_cx: Fraction = Fraction(9)) -> OrientedComplex:
    """A random oriented 2-sphere reached by a bounded random walk."""
    state = orient(boundary_of_simplex(3))
    for _ in range(steps):
        cands = []
        for m in enumerate_moves(state):
            res = apply_move(m)
            if sphere_complexity(res) <= max_cx:
                cands.append(res)
        if not cands:
            break
        state = cands[rng.randrange(len(cands))]
    return state


def random_loop_cycle(
    rng: random.Random, max_len: int = 16, max_cx: Fraction = Fraction(9)
) -> Gamma2Chain | None:
    """A cycle from a random closed move-loop: walk until an oriented class
    repeats, then keep the edges of the enclosed sub-walk."""
    state = orient(boundary_of_simplex(3))
    # warm-up so loops need not pass through the tetrahedron
    for _ in range(rng.randrange(4)):
        cands = [apply_move(m) for m in enumerate_moves(state)]
        cands = [s for s in cands if sphere_complexity(s) <= max_cx]
        if cands:
            state = cands[rng.randrange(len(cands))]
    seen = {okey(state): 0}
    edges = []
    for _ in range(max_len):
        cands = []
        for m in enumerate_moves(state):
            res = apply_move(m)
            if sphere_complexity(res) <= max_cx:
                cands.append((m, res))
        if not cands:
            return None
        m, res = cands[rng.randrange(len(cands))]
        edges.append((m, res))
        state = res
        k = okey(state)
        if k in seen:
            i = seen[k]
            chain = Gamma2Chain()
            for mm, _ in edges[i:]:
                chain.add_move(mm)
            return chain if chain.terms else None
        seen[k] = len(edges)
    return None
