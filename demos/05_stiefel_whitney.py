"""Stiefel-Whitney dual chains from the barycentric subdivision.

The sum mod 2 of all k-simplices of the subdivision is always a cycle;
whether it bounds detects the Stiefel-Whitney classes.  The projective
plane's W_1 does not bound (w_1 != 0); every orientable surface's does.
CP^2 is orientable, so its W_3 (dual to w_1) bounds, but it is not spin:
its W_2 (dual to w_2) does not bound.
"""

from bistellar import boundary_of_simplex, build_complex, is_mod2_boundary, sw_duals
from bistellar.library import OCTAHEDRON_FACETS, RP2_6_FACETS, cp2_9

for name, K in [
    ("tetrahedron boundary", boundary_of_simplex(3)),
    ("octahedron", build_complex(OCTAHEDRON_FACETS)),
    ("projective plane", build_complex(RP2_6_FACETS)),
    ("9-vertex CP^2", cp2_9()),
]:
    chains = sw_duals(K)
    print(name)
    for k, ch in enumerate(chains):
        line = f"  W_{k}: {len(ch.simplices)} simplices, cycle: {ch.is_cycle()}"
        if 0 < k < K.dim:
            line += f", bounds: {is_mod2_boundary(ch)}"
        print(line)
