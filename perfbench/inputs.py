"""Seeded inputs and expected answers of the benchmark workloads.

Every perturbed input is the bundled 9-vertex CP^2 after a pinned walk of
random 4-dimensional Pachner moves (``enumerate_moves`` then ``apply_move``,
the moves sorted first so the walk does not depend on the library's
enumeration order).  The walk is pinned per workload because the cost of a
perturbed CP^2 varies several-fold between walks of the same size (cold p1
on 12-14 vertices: 5.5-14 s; warm p1 on 18 vertices: 4.7-18 s), far more
than a run-to-run bound can absorb.  The benchmark seed then relabels the
vertices of every input (orientation carried along), so each seed hands the
program different facet lists of the same combinatorial classes.
"""

from __future__ import annotations

import random

# (walk seed, Pachner moves, vertex count): walks are drawn from one random
# stream until one ends at the vertex count, so each entry is the first walk
# from its seed with that many vertices.
COLD_WALKS = ((0, 5, 12), (0, 5, 13), (0, 5, 14))
WARM_WALKS = ((0, 12, 18),)

P1_TOTAL = "3"
CP2_VERTEX_COEFF = "1/3"
SPHERE_COUNTS = {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233}
ENUMERATE_MAX_VERTICES = max(SPHERE_COUNTS)


def expected(workload: str) -> dict:
    """The exact answers a run checks, as JSON-ready values."""
    if workload == "enumerate":
        return {"sphere_counts": {str(n): c for n, c in SPHERE_COUNTS.items()}}
    out = {"p1_total": P1_TOTAL}
    if workload == "calibration":
        out["vertex_coeff"] = CP2_VERTEX_COEFF
    return out


def _walk(base, walk_seed: int, steps: int, nverts: int):
    from bistellar import apply_move, enumerate_moves

    rng = random.Random(walk_seed)
    while True:
        state = base
        for _ in range(steps):
            moves = sorted(enumerate_moves(state), key=lambda m: (m.sigma, m.tau))
            state = apply_move(moves[rng.randrange(len(moves))])
        if len(state.vertices) == nverts:
            return state


def relabel(OC, rng: random.Random) -> dict:
    """A random relabeling of OC onto 0..n-1 as a JSON-ready input; facet
    signs are transported so the oriented class is unchanged."""
    from bistellar.simplicial import perm_parity

    verts = list(OC.vertices)
    perm = dict(zip(verts, rng.sample(range(len(verts)), len(verts))))
    facets, signs = [], []
    for f, s in sorted(OC.facet_signs.items()):
        image = [perm[v] for v in f]
        facets.append(sorted(image))
        signs.append(s * perm_parity(image))
    return {"facets": facets, "signs": signs}


def generate(workload: str, seed: int) -> list[dict]:
    """The inputs of one run: facet lists with orientation signs (none for
    ``enumerate``, whose input is its vertex bound)."""
    if workload == "enumerate":
        return [{"max_vertices": ENUMERATE_MAX_VERTICES}]
    from bistellar import library, orient

    base = orient(library.cp2_9())
    rng = random.Random(f"{workload}:{seed}")
    if workload == "calibration":
        return [relabel(base, rng)]
    walks = COLD_WALKS if workload == "perturbed_cold" else WARM_WALKS
    return [relabel(_walk(base, *w), rng) for w in walks]


def build(inp: dict):
    """The oriented complex of a generated input (orientation checked)."""
    from bistellar import Complex, OrientedComplex

    facets = [tuple(f) for f in inp["facets"]]
    return OrientedComplex(Complex(facets), dict(zip(facets, inp["signs"])))
