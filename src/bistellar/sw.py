"""Stiefel-Whitney dual chains on the barycentric subdivision, mod 2.

W_k is the sum (mod 2) of all k-simplices of the first barycentric
subdivision of a closed combinatorial manifold; each W_k is a mod-2 cycle
and represents the Poincare dual of w_{n-k}.  A small GF(2) elimination
decides whether a given mod-2 cycle bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotClosedManifold
from .simplicial import Complex, OrientedComplex, Simplex, barycentric_subdivision, faces


@dataclass
class Mod2Chain:
    ambient: Complex
    degree: int
    simplices: frozenset[Simplex] = field(default_factory=frozenset)

    def boundary(self) -> "Mod2Chain":
        acc: set[Simplex] = set()
        for f in self.simplices:
            acc ^= {r for r, _ in faces(f)}
        return Mod2Chain(self.ambient, self.degree - 1, frozenset(acc))

    def is_cycle(self) -> bool:
        return self.degree == 0 or not self.boundary().simplices


def sw_duals(K: Complex) -> list[Mod2Chain]:
    """W_0 .. W_n on the barycentric subdivision of a closed manifold.

    Each chain is verified to be a mod-2 cycle before return.
    """
    if isinstance(K, OrientedComplex):
        K = K.complex
    if not (K.is_pure and all(len(fs) == 2 for fs in K.ridges.values())):
        raise NotClosedManifold("Stiefel-Whitney chains need a closed manifold")
    Kp, _ = barycentric_subdivision(K)
    out = []
    for k in range(K.dim + 1):
        chain = Mod2Chain(Kp, k, frozenset(Kp.faces_of_dim(k)))
        if not chain.is_cycle():
            raise NotClosedManifold(f"W_{k} is not a mod-2 cycle")
        out.append(chain)
    return out


def is_mod2_boundary(chain: Mod2Chain) -> bool:
    """Solve d(x) = chain over GF(2) on the ambient complex (bitset
    Gaussian elimination over the (degree+1)-simplices)."""
    k = chain.degree
    ambient = chain.ambient
    rows = ambient.faces_of_dim(k + 1)
    cols = {f: i for i, f in enumerate(ambient.faces_of_dim(k))}
    if not chain.simplices:
        return True
    target = 0
    for f in chain.simplices:
        target |= 1 << cols[f]
    basis: list[int] = []
    for r in rows:
        vec = 0
        for face, _ in faces(r):
            vec |= 1 << cols[face]
        for b in basis:
            low = b & -b
            if vec & low:
                vec ^= b
        if vec:
            basis.append(vec)
            basis.sort(key=lambda x: x & -x)
    for b in basis:
        low = b & -b
        if target & low:
            target ^= b
    return target == 0
