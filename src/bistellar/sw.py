"""Stiefel-Whitney dual chains on the barycentric subdivision, mod 2.

W_k is the sum (mod 2) of all k-simplices of the first barycentric
subdivision K' of a closed combinatorial manifold K; each W_k is a mod-2
cycle and represents the Poincare dual of w_{n-k}.  A small GF(2)
elimination decides whether a given mod-2 cycle bounds.

Gap parity: the (k-1)-simplex (G_0 < ... < G_{k-1}) of K' lies in one
k-simplex per face of K insertable into it: 2^|G_0| - 2 below G_0,
2^(|G_i| - |G_{i-1}|) - 2 in each gap (K is closed under subsets) and the
proper cofaces of G_{k-1} above.  So dW_k = 0 iff every face of dimension
>= k - 1 has an even number of proper cofaces; for k = 1 that is every
face, so W_1 fails first, and all W_k are cycles iff K is a mod-2 Euler
space (Halperin and Toledo, Ann. of Math. 96, 1972).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .errors import NotClosedManifold
from .simplicial import Complex, Simplex, barycentric_subdivision, faces


class Mod2Chain(NamedTuple):
    ambient: Complex
    degree: int
    simplices: frozenset[Simplex] = frozenset()

    def boundary(self) -> "Mod2Chain":
        # not simplicial.faces: the signs are not needed (callers: the CLI sw report, the tests)
        counts = Counter(r for f in self.simplices for r in combinations(f, len(f) - 1))
        return Mod2Chain(self.ambient, self.degree - 1, frozenset(r for r, n in counts.items() if n % 2))

    def is_cycle(self) -> bool:
        return self.degree == 0 or not self.boundary().simplices


def sw_duals(K: Complex) -> list[Mod2Chain]:
    """W_0 .. W_n on the barycentric subdivision of a closed manifold.

    W_k is the list of k-faces the subdivision was built from (chains of
    k + 1 faces of K), so no face set is built.  Before the subdivision,
    the proper cofaces of every face of K are counted: an odd count fails
    W_1 (gap parity, above), and none makes every W_k a mod-2 cycle.
    """
    if not (K.is_pure and all(len(fs) == 2 for fs in K.ridges.values())):
        raise NotClosedManifold("Stiefel-Whitney chains need a closed manifold")
    cofaces = Counter(g for f in K.faces for r in range(1, len(f)) for g in combinations(f, r))
    if any(n % 2 for n in cofaces.values()):
        raise NotClosedManifold("W_1 is not a mod-2 cycle")
    Kp, _ = barycentric_subdivision(K)
    return [Mod2Chain(Kp, k, frozenset(Kp.faces_of_dim(k))) for k in range(K.dim + 1)]


def is_mod2_boundary(chain: Mod2Chain) -> bool:
    """Solve d(x) = chain over GF(2) on the ambient complex: bitset
    Gaussian elimination over the (degree+1)-simplices, each basis vector
    filed under its lowest set bit, so a vector is reduced only against
    the pivots it hits."""
    k = chain.degree
    ambient = chain.ambient
    if not chain.simplices:
        return True
    cols = {f: i for i, f in enumerate(ambient.faces_of_dim(k))}
    target = 0
    for f in chain.simplices:
        target |= 1 << cols[f]
    pivots: dict[int, int] = {}  # position of the lowest set bit -> basis vector
    for r in ambient.faces_of_dim(k + 1):
        vec = 0
        for face, _ in faces(r):
            vec |= 1 << cols[face]
        while vec:
            low = (vec & -vec).bit_length()
            if low not in pivots:
                pivots[low] = vec
                break
            vec ^= pivots[low]
    while target:
        low = (target & -target).bit_length()
        if low not in pivots:
            return False
        target ^= pivots[low]
    return True
