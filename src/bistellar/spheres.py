"""Recognition of combinatorial spheres and manifolds.

Dimensions 0-2 admit complete combinatorial criteria.  Dimensions 3 and up
are search-based: a sphere verdict comes with a replayable reduction
certificate, and a failed search within budget yields Unknown, never No.
"""

from __future__ import annotations

from typing import NamedTuple

from . import reduction
from .canonical import ukey
from .errors import BudgetExhausted, NonOrientable
from .simplicial import Complex, orient


class SphereVerdict(NamedTuple):
    verdict: bool | None  # True / False / None = Unknown
    reason: str
    certificate: object | None = None  # MoveSequence for a Yes in dim >= 3

    def __bool__(self) -> bool:
        return self.verdict is True


def is_combinatorial_sphere(K: Complex, budget: int = 20000, seed: int = 0) -> SphereVerdict:
    """Decide whether K is a combinatorial sphere of its dimension."""
    d = K.dim
    if d == 0:
        ok = len(K.vertices) == 2 and K.is_pure
        return SphereVerdict(ok, "two points" if ok else "not two points")
    # pure, every ridge in two facets, strongly connected (hence connected)
    if not K.is_closed_pseudomanifold:
        return SphereVerdict(False, "not a single cycle" if d == 1 else "not a closed connected pseudomanifold")
    if d == 1:
        return SphereVerdict(True, "single cycle")
    chi = 1 + (-1) ** d
    if K.euler_characteristic != chi:
        return SphereVerdict(False, f"Euler characteristic {K.euler_characteristic} != {chi}")
    if d == 2:
        # every vertex link is one cycle: splitting a vertex whose link is k > 1
        # cycles would leave a connected closed surface with chi = k + 1 > 2
        return SphereVerdict(True, "closed connected surface with chi = 2")
    # dim >= 3: vertex links, then reduction search; an Unknown link is left
    # to the search: a reduction to a simplex boundary certifies K, links included
    links = is_combinatorial_manifold(K, budget=budget, seed=seed)
    if links.verdict is False:
        return links
    try:
        oc = orient(K)
    except NonOrientable:
        return SphereVerdict(False, "not orientable")
    try:
        cert = reduction.reduce_to_boundary(oc, budget=budget, seed=seed)
    except BudgetExhausted as exc:
        return SphereVerdict(None, str(exc))
    return SphereVerdict(True, f"reduced to the boundary of the {d + 1}-simplex", certificate=cert)


def is_combinatorial_manifold(K: Complex, budget: int = 20000, seed: int = 0) -> SphereVerdict:
    """Every vertex link must be a combinatorial sphere (of dimension dim-1,
    as every vertex link of a pure complex is), read without signs.  Links of
    dimension >= 3 that are closed pseudomanifolds (few automorphisms, so a
    cheap ``ukey``) are tested once per class; other links only cheaply."""
    if not K.is_pure:
        return SphereVerdict(False, "not pure")
    if K.dim == 0:
        return SphereVerdict(True, "0-dimensional")
    unknown = False
    verdicts: dict = {}  # by ukey, or by vertex where no search runs
    for v in K.vertices:
        lk = Complex.link(K, (v,))
        if (k := ukey(lk) if lk.dim >= 3 and lk.is_closed_pseudomanifold else v) not in verdicts:
            verdicts[k] = is_combinatorial_sphere(lk, budget=budget, seed=seed)
        if (sub := verdicts[k]).verdict is False:
            return SphereVerdict(False, f"link of vertex {v}: {sub.reason}")
        unknown = unknown or sub.verdict is None
    if unknown:
        return SphereVerdict(None, "some link verdicts unknown within budget")
    return SphereVerdict(True, "all vertex links are combinatorial spheres")
