"""Abstract simplicial complexes, orientations, links, joins, subdivisions.

Complexes are stored by their facets (maximal faces).  Vertices are small
non-negative integers local to each complex; simplices are strictly
increasing tuples of vertex ids.  The empty simplex ``()`` is a face of
every complex.

Orientation conventions used throughout the library:

* a facet is stored in ascending vertex order together with a sign in
  ``{+1, -1}``;
* the boundary sign induced on a ridge ``F - {F[i]}`` is
  ``sign(F) * (-1)**i``; coherence means the two facets sharing a ridge
  induce opposite signs on it;
* the orientation induced on ``link(sigma)`` assigns to a link facet
  ``lam = F - sigma`` the sign of ``F`` rewritten with sigma's vertices
  first (each part ascending).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Mapping

from .errors import (
    DuplicateVertexInFacet,
    FacetContainment,
    NonOrientable,
    NotPseudomanifold,
    SimplexNotInComplex,
)

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of vertex ids to a strictly increasing tuple."""
    vs = tuple(sorted(int(v) for v in vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"repeated vertex {a} in {vertices}")
    if vs and vs[0] < 0:
        raise DuplicateVertexInFacet(f"negative vertex id in {vertices}")
    return vs


def perm_parity(seq: Iterable[int]) -> int:
    """Sign of the permutation sorting ``seq`` (+1 even, -1 odd)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def faces(s: Simplex) -> list[tuple[Simplex, int]]:
    """The codimension-1 faces of ``s``, each with its boundary sign:
    ``(s without s[i], (-1)**i)``."""
    return [(s[:i] + s[i + 1 :], -1 if i % 2 else 1) for i in range(len(s))]


class Complex:
    """An abstract simplicial complex stored by facets, closed under faces."""

    __slots__ = ("facets", "__dict__")

    def __init__(self, facets: Iterable[Simplex], _validated: bool = False):
        fs = frozenset(tuple(f) for f in facets)
        if not fs:
            raise FacetContainment("a complex needs at least one facet (use (), for the empty complex)")
        if not _validated:
            fs = frozenset(simplex(f) for f in fs)
            for f in fs:
                for g in fs:
                    if len(f) < len(g) and set(f) <= set(g):
                        raise FacetContainment(f"facet {f} contained in facet {g}")
        self.facets = fs

    # -- basic structure ---------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for f in self.facets for v in f}))

    @cached_property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def faces(self) -> frozenset[Simplex]:
        """All faces, including the empty simplex."""
        out: set[Simplex] = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                out.update(combinations(f, k))
        return frozenset(out)

    @cached_property
    def _faces_by_dim(self) -> dict[int, list[Simplex]]:
        out: dict[int, list[Simplex]] = {}
        for f in sorted(self.faces):
            out.setdefault(len(f) - 1, []).append(f)
        return out

    def faces_of_dim(self, k: int) -> list[Simplex]:
        return list(self._faces_by_dim.get(k, ()))

    @cached_property
    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for f in self.faces:
            if f:
                counts[len(f) - 1] += 1
        return tuple(counts)

    @cached_property
    def euler_characteristic(self) -> int:
        return sum((-1) ** i * n for i, n in enumerate(self.f_vector))

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, f={self.f_vector})"

    # -- derived complexes -------------------------------------------------

    @cached_property
    def _vertex_facets(self) -> dict[int, list[Simplex]]:
        out: dict[int, list[Simplex]] = {}
        for f in self.facets:
            for v in f:
                out.setdefault(v, []).append(f)
        return out

    def facets_containing(self, sigma: Simplex) -> list[Simplex]:
        """The facets containing ``sigma``, read off a cached vertex-to-facets
        index; every facet for ``()``, none for a non-face."""
        out = self._vertex_facets.get(sigma[0], ()) if sigma else self.facets
        for v in sigma[1:]:
            out = [f for f in out if v in f]
        return list(out)

    def _star(self, sig: Simplex) -> list[Simplex]:
        stars = self.facets_containing(sig)
        if not stars:
            raise SimplexNotInComplex(f"{sig} is not a face")
        return stars

    def link(self, sigma: Iterable[int]) -> "Complex":
        sig = simplex(sigma)
        # no maximality filter: facets are pairwise incomparable, so are f - sigma
        return Complex({tuple(v for v in f if v not in sig) for f in self._star(sig)}, _validated=True)

    @cached_property
    def degrees(self) -> Counter:
        """Number of facets containing each vertex."""
        return Counter(chain.from_iterable(self.facets))

    def degree(self, v: int) -> int:
        return self.degrees[v]

    # -- predicates --------------------------------------------------------

    @cached_property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    @cached_property
    def ridges(self) -> dict[Simplex, list[Simplex]]:
        """Each codimension-1 face of a facet, mapped to the facets that
        contain it, in ascending order."""
        out: dict[Simplex, list[Simplex]] = {}
        for f in sorted(self.facets):
            for r, _ in faces(f):
                out.setdefault(r, []).append(f)
        return out

    @cached_property
    def is_closed_pseudomanifold(self) -> bool:
        if not self.is_pure or self.dim < 1:
            return False
        return all(len(fs) == 2 for fs in self.ridges.values()) and self.is_strongly_connected

    @cached_property
    def is_strongly_connected(self) -> bool:
        """Facet-ridge adjacency graph is connected."""
        start = min(self.facets)
        seen = {start}
        stack = [start]
        while stack:
            for r, _ in faces(stack.pop()):
                for g in self.ridges[r]:
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
        return len(seen) == len(self.facets)


def build_complex(facets: Iterable[Iterable[int]]) -> Complex:
    """Build a closed complex from a facet list, rejecting malformed input."""
    return Complex([simplex(f) for f in facets])


class OrientedComplex(Complex):
    """A pure closed pseudomanifold with a coherent sign per facet: a
    ``Complex`` plus ``facet_signs``.  It starts from what ``complex`` has
    already computed (degrees, vertex index, faces)."""

    __slots__ = ("facet_signs", "_hash")

    def __init__(self, complex: Complex, facet_signs: Mapping[Simplex, int], check: bool = True):
        self.facets = complex.facets
        self.__dict__.update(complex.__dict__)
        self.facet_signs = dict(facet_signs)
        if check:
            if not self.is_pure:
                raise NotPseudomanifold("complex is not pure")
            if set(self.facet_signs) != set(self.facets):
                raise NotPseudomanifold("facet_signs must cover exactly the facets")
            if any(s not in (1, -1) for s in self.facet_signs.values()):
                raise NotPseudomanifold("facet signs must be +1 or -1")
            self._check_coherent()

    def _check_coherent(self) -> None:
        acc: dict[Simplex, int] = {}
        for f, s in self.facet_signs.items():
            for r, sign in faces(f):
                acc[r] = acc.get(r, 0) + s * sign
        if any(v != 0 for v in acc.values()):
            raise NonOrientable("facet signs are not coherent")

    @property
    def complex(self) -> Complex:
        """The same complex with its orientation forgotten."""
        K = Complex(self.facets, _validated=True)
        K.__dict__.update(self.__dict__)
        return K

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedComplex)
            and self.facets == other.facets
            and self.facet_signs == other.facet_signs
        )

    def __hash__(self) -> int:  # computed once, in a slot a copy does not inherit
        if not hasattr(self, "_hash"):
            self._hash = hash((self.facets, tuple(sorted(self.facet_signs.items()))))
        return self._hash

    def __repr__(self) -> str:
        return f"OrientedComplex(dim={self.dim}, f={self.f_vector})"

    def __neg__(self) -> "OrientedComplex":
        return OrientedComplex(self, {f: -s for f, s in self.facet_signs.items()}, check=False)

    def sign_of(self, ordered_facet: Iterable[int]) -> int:
        """Sign of a facet presented in an arbitrary vertex order."""
        of = tuple(ordered_facet)
        return self.facet_signs[tuple(sorted(of))] * perm_parity(of)

    def link(self, sigma: Iterable[int]) -> "OrientedComplex":
        """Link with the induced orientation.

        A link facet ``lam = F - sigma`` carries the sign of ``F`` written with
        sigma's vertices first, then lam's, each ascending: moving sigma's
        vertex at position p_i of F to position i takes p_i - i swaps, so the
        sign is sign(F) * (-1)**(sum p_i - |sigma|(|sigma| - 1)/2).
        """
        sig = simplex(sigma)
        base = len(sig) * (len(sig) - 1) // 2
        signs: dict[Simplex, int] = {}
        for f in self._star(sig):
            lam, n = [], base
            for i, v in enumerate(f):
                if v in sig:
                    n += i
                else:
                    lam.append(v)
            signs[tuple(lam)] = -self.facet_signs[f] if n & 1 else self.facet_signs[f]
        return OrientedComplex(Complex(signs, _validated=True), signs, check=False)

    def link_cycle(self, v: int) -> list[int]:
        """For a 2-dimensional pseudomanifold: link(v) as a positively directed cycle."""
        lk = self.link((v,))
        succ: dict[int, int] = {}
        for (a, b), s in lk.facet_signs.items():
            if s == 1:
                succ[a] = b
            else:
                succ[b] = a
        start = min(succ)
        cycle = [start]
        cur = succ[start]
        while cur != start:
            cycle.append(cur)
            cur = succ[cur]
        return cycle


def orient(K: Complex) -> OrientedComplex:
    """Propagate coherent facet signs from the lexicographically least facet
    of each strongly connected component (``coherent_signs``)."""
    return OrientedComplex(K, coherent_signs(K.facets)[0], check=False)


def coherent_signs(facets: Iterable[Simplex]) -> tuple[dict[Simplex, int], int]:
    """Coherent signs of ``facets``, +1 on the least facet of each strongly
    connected component, and the number of components, from one pass over
    each ridge's two facets with its boundary sign b in each: a facet g
    sharing ridge r with f has sign -sign(f) * b_f(r) * b_g(r).  Raises
    ``NotPseudomanifold`` unless the facets are pure and every ridge lies in
    exactly two, and ``NonOrientable`` on a sign conflict."""
    facets = sorted(facets)
    if len({len(f) for f in facets}) != 1:
        raise NotPseudomanifold("complex is not pure")
    ridges: dict[Simplex, list[tuple[Simplex, int]]] = {}
    for f in facets:
        for r, b in faces(f):
            ridges.setdefault(r, []).append((f, b))
    if not ridges or any(len(fs) != 2 for fs in ridges.values()):
        raise NotPseudomanifold("every ridge must lie in exactly two facets")
    signs: dict[Simplex, int] = {}
    parts = 0
    for seed in facets:
        if seed not in signs:
            parts += 1
            signs[seed], stack = 1, [seed]
            while stack:
                f = stack.pop()
                for r, b in faces(f):
                    (g, c), (h, d) = ridges[r]
                    g, c = (h, d) if g == f else (g, c)
                    need = -signs[f] * b * c
                    if g not in signs:
                        signs[g] = need
                        stack.append(g)
                    elif signs[g] != need:
                        raise NonOrientable("sign propagation conflict")
    return signs, parts


def is_orientable(K: Complex) -> bool:
    try:
        orient(K)
        return True
    except NonOrientable:
        return False


def join(K1: Complex, K2: Complex) -> tuple[Complex, dict[int, int], dict[int, int]]:
    """Join K1 * K2, relabeling on vertex collision.

    Returns the join together with the relabeling maps applied to K1 and K2
    (identity maps when the vertex sets are already disjoint).
    """
    m1 = {v: v for v in K1.vertices}
    if set(K1.vertices) & set(K2.vertices):
        m1 = {v: i for i, v in enumerate(K1.vertices)}
        base = len(m1)
        m2 = {v: base + i for i, v in enumerate(K2.vertices)}
    else:
        m2 = {v: v for v in K2.vertices}
    facets = set()
    for f in K1.facets:
        for g in K2.facets:
            facets.add(tuple(sorted([m1[v] for v in f] + [m2[v] for v in g])))
    return Complex(facets, _validated=True), m1, m2


def join_oriented(K1: OrientedComplex, K2: OrientedComplex) -> OrientedComplex:
    """Oriented join: relabel K1 below K2, sign of (F1, F2) = sign(F1)*sign(F2)."""
    m1 = {v: i for i, v in enumerate(K1.vertices)}
    base = len(m1)
    m2 = {v: base + i for i, v in enumerate(K2.vertices)}
    signs: dict[Simplex, int] = {}
    for f, s in K1.facet_signs.items():
        for g, t in K2.facet_signs.items():
            facet = tuple([m1[v] for v in f] + [m2[v] for v in g])
            signs[facet] = s * t
    return OrientedComplex(Complex(signs.keys(), _validated=True), signs, check=False)


def cone(K: Complex) -> Complex:
    """Cone over K: join with a single point, numbered above K's vertices."""
    apex = max(K.vertices, default=-1) + 1
    return Complex({tuple(sorted(f + (apex,))) for f in K.facets}, _validated=True)


def boundary_of_simplex(n: int) -> Complex:
    """The boundary of the n-simplex on vertices 0..n, a combinatorial (n-1)-sphere."""
    return Complex(combinations(range(n + 1), n), _validated=True)


def barycentric_subdivision(K: Complex) -> tuple[Complex, dict[int, Simplex]]:
    """First barycentric subdivision.

    Vertices of K' are the non-empty faces of K, numbered in ``(len, f)``
    order; a face of K' is a chain of them ordered by inclusion, which in
    that numbering is an ascending tuple, and the facets are the chains of
    |F| faces ending at a facet F.  Returns K' and the map from K'-vertex
    ids back to faces of K.
    """
    faces = sorted((f for f in K.faces if f), key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    above: list[list[int]] = [[] for _ in faces]  # ascending ids of the faces strictly containing each
    for j, g in enumerate(faces):
        for k in range(1, len(g)):
            for f in combinations(g, k):
                above[index[f]].append(j)
    # chains grown one face at a time stay in lexicographic order
    levels = [[(i,) for i in range(len(faces))]]
    while levels[-1]:
        levels.append([c + (j,) for c in levels[-1] for j in above[c[-1]]])
    levels.pop()
    flags = [c for level in levels for c in level if len(faces[c[-1]]) == len(c) and faces[c[-1]] in K.facets]
    Kp = Complex(flags or [()], _validated=True)  # the empty complex is its own subdivision
    # the chains are the faces of K' in faces_of_dim order; no face set is built
    Kp._faces_by_dim = {-1: [()], **dict(enumerate(levels))}
    return Kp, dict(enumerate(faces))
