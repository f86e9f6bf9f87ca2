"""Exact combinatorial characteristic classes from triangulations.

The library computes the Poincare dual of the first rational Pontryagin
class of an oriented combinatorial manifold from its facet list alone, by
the local-formula machinery built on bistellar moves, and the mod-2
Stiefel-Whitney dual chains on the barycentric subdivision as a companion
verifier.  All arithmetic is exact (integers and fractions).
"""

from .simplicial import (
    Complex,
    OrientedComplex,
    Simplex,
    barycentric_subdivision,
    boundary_of_simplex,
    build_complex,
    cone,
    is_orientable,
    join,
    join_oriented,
    orient,
    simplex,
)
from .canonical import CanonicalForm, OKey, canonical_form, okey, ukey
from .spheres import is_combinatorial_sphere, is_combinatorial_manifold, SphereVerdict
from .moves import (
    BistellarMove,
    GammaEdgeKey,
    apply_move,
    edge_key,
    enumerate_moves,
    induced_vertex_moves,
    is_inessential,
    sphere_complexity,
    sphere_from_move,
)
from .reduction import MoveSequence, reduce_to_boundary, replay
from .talgebra import (
    LocalCochain,
    SimplicialChain,
    SphereChain,
    alpha_cycle,
    boundary_t,
    delta_eval,
    f_sharp,
    join_product_t,
    s_eval,
)
from .gamma2 import (
    ElementaryCycle,
    Gamma2Chain,
    c_of_cycle,
    c_value,
    classify_elementary,
    commutation_cycle,
    decompose_cycle,
    move_complexity,
)
from .pontryagin import (
    XiCache,
    h_value,
    local_f,
    p1_dual_direct,
    p1_dual_local,
    p1_number,
    xi_chain,
)
from .sw import sw_duals, is_mod2_boundary
from .enumeration import spheres_by_expansion, spheres_brute_force
from . import library

__all__ = [name for name in dir() if not name.startswith("_")]
