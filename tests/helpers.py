"""Shared generators for the test suite."""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from bistellar.canonical import materialize, okey
from bistellar.gamma2 import Gamma2Chain
from bistellar.library import cp2_9
from bistellar.moves import BistellarMove, apply_move, enumerate_moves, induced_vertex_moves, sphere_complexity
from bistellar.reduction import MoveSequence, replay
from bistellar.simplicial import Complex, OrientedComplex, boundary_of_simplex, build_complex, join, orient


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


def torus_7() -> Complex:
    """The 7-vertex torus, every vertex of degree 6."""
    return build_complex([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)])


def suspension(K: Complex) -> Complex:
    """The join of K with the 0-sphere: two apexes, each with link K."""
    return join(K, boundary_of_simplex(1))[0]


def product(A: Complex, B: Complex) -> Complex:
    """The staircase triangulation of |A| x |B| under the vertex orders of A
    and B: each facet pair s x t gives one facet per monotone lattice path
    from (s[0], t[0]) to (s[-1], t[-1]), on the vertices (a, b) numbered in
    lexicographic order."""
    ids = {ab: i for i, ab in enumerate(itertools.product(sorted(A.vertices), sorted(B.vertices)))}
    facets = []
    for s in A.facets:
        for t in B.facets:
            p, q = len(s) - 1, len(t) - 1
            for ups in itertools.combinations(range(p + q), p):
                i = j = 0
                f = [ids[s[0], t[0]]]
                for step in range(p + q):
                    i, j = (i + 1, j) if step in ups else (i, j + 1)
                    f.append(ids[s[i], t[j]])
                facets.append(f)
    return build_complex(facets)


def perturbed_cp2(seed: int, steps: int = 5) -> OrientedComplex:
    """The bundled CP^2 after ``steps`` seeded random Pachner moves (the moves
    sorted first, so the walk does not depend on the enumeration order)."""
    rng = random.Random(seed)
    state = orient(cp2_9())
    for _ in range(steps):
        moves = sorted(enumerate_moves(state), key=lambda m: (m.sigma, m.tau))
        state = apply_move(moves[rng.randrange(len(moves))])
    return state


def random_sphere(rng: random.Random, nverts: int, grow: float = 0.3, dim: int = 3) -> OrientedComplex:
    """A random oriented ``dim``-sphere with ``nverts`` vertices: a walk from
    the boundary of the (dim+1)-simplex that subdivides a random facet with
    probability ``grow`` and otherwise makes a random move that keeps the
    vertex count (for dim 3, an edge or triangle flip)."""
    state = orient(boundary_of_simplex(dim + 1))
    while len(state.vertices) < nverts:
        moves = enumerate_moves(state)
        flips = [m for m in moves if 0 < m.k < dim]
        pool = flips if flips and rng.random() >= grow else [m for m in moves if m.k == dim]
        state = apply_move(pool[rng.randrange(len(pool))])
    return state


@functools.cache
def blocked_spheres() -> tuple[OrientedComplex, OrientedComplex]:
    """Two flip-heavy 3-spheres on which vertex elimination blocks: at 12
    and 24 vertices every vertex of the state is blocked, so their
    reductions pass through the plateau.  Built once (about 4 s)."""
    return tuple(random_sphere(random.Random(tag), n, grow=0.05) for tag, n in (("3:30:0.05:10", 30), ("3:45:0.05:4", 45)))


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


def eta_oracle(cert: MoveSequence) -> Gamma2Chain:
    """The eta chain of a certificate by its definition: the Gamma_2 edges
    of the induced vertex moves of every move, each on its replayed state."""
    _, states = replay(cert)
    out = Gamma2Chain()
    for state, (sig, tau) in zip(states, cert.moves):
        for _, sub in induced_vertex_moves(BistellarMove(state, sig, tau)):
            out.add_move(sub)
    return out


def _step(state: OrientedComplex, moves: list, rng: random.Random, size: int, keep=lambda mv: True):
    """Make a random move whose sigma has ``size`` vertices and passes ``keep``."""
    pool = [mv for mv in enumerate_moves(state) if len(mv.sigma) == size and keep(mv)]
    mv = pool[rng.randrange(len(pool))]
    moves.append((mv.sigma, mv.tau))
    return mv.result


def walk_certificate(rng: random.Random, nverts: int = 10) -> MoveSequence:
    """A 12-move certificate on a random 3-sphere with all four move kinds.

    Three random flips, (2,3) or (3,2); a subdivision adds f; a second one
    inside the star of f adds g, and g and then f are removed; the next
    subdivision takes f's id for its new vertex, and one more subdivision
    changes that vertex's link; then three more flips."""
    start = materialize(okey(random_sphere(rng, nverts)))
    flips = [2, 3] * 3
    rng.shuffle(flips)
    state, moves = start, []
    for size in flips[:3]:
        state = _step(state, moves, rng, size)
    state = _step(state, moves, rng, 4)
    f = moves[-1][1][0]
    state = _step(state, moves, rng, 4, lambda mv: f in mv.sigma)
    g = moves[-1][1][0]
    for v in (g, f):
        state = _step(state, moves, rng, 1, lambda mv: mv.sigma == (v,))
    state = _step(state, moves, rng, 4)
    assert moves[-1][1] == (f,)
    state = _step(state, moves, rng, 4, lambda mv: f in mv.sigma)
    for size in flips[3:]:
        state = _step(state, moves, rng, size)
    return MoveSequence(okey(start), tuple(moves), okey(state))
