"""Recognition of combinatorial spheres and manifolds.

Dimensions 0-2 admit complete combinatorial criteria.  Dimensions 3 and up
are search-based: a sphere verdict comes with a replayable reduction
certificate, and a failed search within budget yields Unknown, never No.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExhausted, NonOrientable
from .simplicial import Complex, OrientedComplex, orient


@dataclass(frozen=True)
class SphereVerdict:
    verdict: bool | None  # True / False / None = Unknown
    reason: str
    certificate: object | None = None  # MoveSequence for a Yes in dim >= 3

    def __bool__(self) -> bool:
        return self.verdict is True


def _is_cycle(K: Complex) -> bool:
    return (
        K.dim == 1
        and K.is_pure
        and len(K.vertices) >= 3
        and all(K.degree(v) == 2 for v in K.vertices)
        and K.is_connected
    )


def is_combinatorial_sphere(K: Complex, budget: int = 20000, seed: int = 0) -> SphereVerdict:
    """Decide whether K is a combinatorial sphere of its dimension."""
    if isinstance(K, OrientedComplex):
        K = K.complex
    d = K.dim
    if d == 0:
        ok = len(K.vertices) == 2 and K.is_pure
        return SphereVerdict(ok, "two points" if ok else "not two points")
    if d == 1:
        ok = _is_cycle(K)
        return SphereVerdict(ok, "single cycle" if ok else "not a single cycle")
    if d == 2:
        if not (K.is_pure and K.is_closed_pseudomanifold and K.is_connected):
            return SphereVerdict(False, "not a closed connected pseudomanifold")
        if K.euler_characteristic != 2:
            return SphereVerdict(False, f"Euler characteristic {K.euler_characteristic} != 2")
        for v in K.vertices:
            if not _is_cycle(K.link((v,))):
                return SphereVerdict(False, f"link of vertex {v} is not a cycle")
        return SphereVerdict(True, "closed connected surface with chi = 2")
    # dim >= 3: local checks, then reduction search
    if not (K.is_pure and K.is_closed_pseudomanifold and K.is_connected):
        return SphereVerdict(False, "not a closed connected pseudomanifold")
    chi = 1 + (-1) ** d
    if K.euler_characteristic != chi:
        return SphereVerdict(False, f"Euler characteristic {K.euler_characteristic} != {chi}")
    # an Unknown link is left to the search: a reduction to a simplex
    # boundary certifies K, links included
    for v in K.vertices:
        sub = is_combinatorial_sphere(K.link((v,)), budget=budget, seed=seed)
        if sub.verdict is False:
            return SphereVerdict(False, f"link of vertex {v}: {sub.reason}")
    try:
        oc = orient(K)
    except NonOrientable:
        return SphereVerdict(False, "not orientable")
    from .reduction import reduce_to_boundary

    try:
        cert = reduce_to_boundary(oc, budget=budget, seed=seed)
    except BudgetExhausted:
        return SphereVerdict(None, f"reduction search exhausted budget {budget}")
    return SphereVerdict(True, f"reduced to the boundary of the {d + 1}-simplex", certificate=cert)


def is_combinatorial_manifold(K: Complex, budget: int = 20000, seed: int = 0) -> SphereVerdict:
    """Every vertex link must be a combinatorial sphere of dimension dim-1."""
    if isinstance(K, OrientedComplex):
        K = K.complex
    if not K.is_pure:
        return SphereVerdict(False, "not pure")
    if K.dim == 0:
        return SphereVerdict(True, "0-dimensional")
    unknown = False
    for v in K.vertices:
        lk = K.link((v,))
        if lk.dim != K.dim - 1:
            return SphereVerdict(False, f"link of {v} has wrong dimension")
        sub = is_combinatorial_sphere(lk, budget=budget, seed=seed)
        if sub.verdict is False:
            return SphereVerdict(False, f"link of vertex {v}: {sub.reason}")
        if sub.verdict is None:
            unknown = True
    if unknown:
        return SphereVerdict(None, "some link verdicts unknown within budget")
    return SphereVerdict(True, "all vertex links are combinatorial spheres")
