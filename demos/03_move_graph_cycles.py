"""Cycles in the move graph of 2-spheres and their exact cocycle values.

Commuting two moves with disjoint or overlapping supports traces a cycle;
each catalogued configuration carries an exact rational value read off
from triangle counts in marked angular sectors.  Arbitrary cycles
decompose into these, and the value does not depend on the decomposition
order.
"""

import random
from fractions import Fraction

from bistellar import commutation_cycle, c_of_cycle, decompose_cycle, sphere_complexity
from bistellar.gamma2 import Gamma2Chain
from bistellar.simplicial import build_complex, orient
from bistellar.library import ICOSAHEDRON_FACETS

ico = orient(build_complex(ICOSAHEDRON_FACETS))
print("icosahedron complexity:", sphere_complexity(ico))

pairs = [
    ((0, 1, 2), (9, 10, 11)),  # far apart insertions
    ((0, 1, 2), (0, 5, 6)),    # insertions sharing a vertex
    ((0, 1, 2), (1, 2, 3)),    # insertions sharing an edge
    ((0, 1), (9, 11)),         # flips
]
for s1, s2 in pairs:
    g = commutation_cycle(ico, s1, s2)
    print(f"commute {s1} with {s2}: kind {g.kind}, sectors {g.params}, value {g.value}")

# a random closed loop of moves, decomposed two ways
rng = random.Random(2026)
from bistellar.canonical import okey
from bistellar.moves import enumerate_moves
from bistellar.simplicial import boundary_of_simplex

state = orient(boundary_of_simplex(3))
seen = {okey(state): 0}
edges = []
while True:
    cands = [m for m in enumerate_moves(state) if sphere_complexity(m.result) <= 9]
    m = cands[rng.randrange(len(cands))]
    state = m.result
    edges.append(m)
    if okey(state) in seen:
        start = seen[okey(state)]
        loop = Gamma2Chain()
        for mm in edges[start:]:
            loop.add_move(mm)
        break
    seen[okey(state)] = len(edges)

print(f"\nrandom loop with {len(loop.terms)} edges, value {c_of_cycle(loop)}")
for seed in (1, 2):
    parts = decompose_cycle(loop, order_seed=seed)
    total = sum((n * g.value for n, g in parts), Fraction(0))
    kinds = [f"{n}x{g.kind}" for n, g in parts]
    print(f"  order {seed}: {' + '.join(kinds) or '0'} = {total}")
