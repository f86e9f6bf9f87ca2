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
                    if f != g and set(f) <= set(g):
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

    def __contains__(self, face) -> bool:
        return tuple(face) in self.faces

    def __eq__(self, other) -> bool:
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, f={self.f_vector})"

    # -- derived complexes -------------------------------------------------

    def link(self, sigma: Iterable[int]) -> "Complex":
        sig = simplex(sigma)
        if sig not in self.faces:
            raise SimplexNotInComplex(f"{sig} is not a face")
        ss = set(sig)
        # no maximality filter: facets are pairwise incomparable, so are f - sigma
        return Complex({tuple(v for v in f if v not in ss) for f in self.facets if ss <= set(f)}, _validated=True)

    def star(self, sigma: Iterable[int]) -> "Complex":
        sig = simplex(sigma)
        if sig not in self.faces:
            raise SimplexNotInComplex(f"{sig} is not a face")
        ss = set(sig)
        st_facets = {f for f in self.facets if ss <= set(f)}
        return Complex(st_facets, _validated=True)

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

    def ridge_degrees(self) -> dict[Simplex, int]:
        """Multiplicity of each codimension-1 face among facets (pure complexes)."""
        return {r: len(fs) for r, fs in self.ridges.items()}

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

    @cached_property
    def is_connected(self) -> bool:
        vs = self.vertices
        if len(vs) <= 1:
            return True
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for e in self.faces_of_dim(1):
            adj[e[0]].add(e[1])
            adj[e[1]].add(e[0])
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vs)


def build_complex(facets: Iterable[Iterable[int]]) -> Complex:
    """Build a closed complex from a facet list, rejecting malformed input."""
    return Complex([simplex(f) for f in facets])


class OrientedComplex:
    """A pure closed pseudomanifold with a coherent sign per facet."""

    __slots__ = ("complex", "facet_signs", "__dict__")

    def __init__(self, complex: Complex, facet_signs: Mapping[Simplex, int], check: bool = True):
        self.complex = complex
        self.facet_signs = dict(facet_signs)
        if check:
            if set(self.facet_signs) != set(complex.facets):
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

    # Delegation of the read-only complex interface.
    @property
    def facets(self):
        return self.complex.facets

    @property
    def vertices(self):
        return self.complex.vertices

    @property
    def dim(self):
        return self.complex.dim

    @property
    def faces(self):
        return self.complex.faces

    @property
    def f_vector(self):
        return self.complex.f_vector

    @property
    def degrees(self) -> Counter:
        return self.complex.degrees

    def degree(self, v: int) -> int:
        return self.complex.degree(v)

    def __contains__(self, face) -> bool:
        return face in self.complex

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedComplex)
            and self.complex == other.complex
            and self.facet_signs == other.facet_signs
        )

    def __hash__(self) -> int:
        return hash((self.complex, tuple(sorted(self.facet_signs.items()))))

    def __repr__(self) -> str:
        return f"OrientedComplex(dim={self.dim}, f={self.f_vector})"

    def __neg__(self) -> "OrientedComplex":
        return OrientedComplex(self.complex, {f: -s for f, s in self.facet_signs.items()}, check=False)

    def sign_of(self, ordered_facet: Iterable[int]) -> int:
        """Sign of a facet presented in an arbitrary vertex order."""
        of = tuple(ordered_facet)
        return self.facet_signs[tuple(sorted(of))] * perm_parity(of)

    def link(self, sigma: Iterable[int]) -> "OrientedComplex":
        """Link with the induced orientation.

        A link facet ``lam = F - sigma`` carries the sign of ``F`` written with
        sigma's vertices first, then lam's, each ascending.
        """
        sig = simplex(sigma)
        if sig not in self.faces:
            raise SimplexNotInComplex(f"{sig} is not a face")
        ss = set(sig)
        signs: dict[Simplex, int] = {}
        for f, s in self.facet_signs.items():
            if ss <= set(f):
                lam = tuple(v for v in f if v not in ss)
                signs[lam] = s * perm_parity(sig + lam)
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
    """Propagate coherent facet signs from the lexicographically least facet.

    Raises ``NotPseudomanifold`` if K is not a closed pure pseudomanifold and
    ``NonOrientable`` on a sign conflict.
    """
    if not K.is_pure:
        raise NotPseudomanifold("complex is not pure")
    if K.dim < 0 or any(len(fs) != 2 for fs in K.ridges.values()):
        raise NotPseudomanifold("every ridge must lie in exactly two facets")
    signs: dict[Simplex, int] = {}

    def propagate(seed: Simplex) -> None:
        signs[seed] = 1
        stack = [seed]
        while stack:
            f = stack.pop()
            for r, sign in faces(f):
                induced = signs[f] * sign
                (g,) = [x for x in K.ridges[r] if x != f]
                (w,) = set(g) - set(r)
                need = -induced * (-1) ** g.index(w)
                if g in signs:
                    if signs[g] != need:
                        raise NonOrientable("sign propagation conflict")
                else:
                    signs[g] = need
                    stack.append(g)

    # each connected component is seeded with +1 on its least facet
    for f in sorted(K.facets):
        if f not in signs:
            propagate(f)
    return OrientedComplex(K, signs, check=False)


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


def cone(K: Complex, apex: int | None = None) -> Complex:
    """Cone over K: join with a single point."""
    if apex is None:
        apex = max(K.vertices, default=-1) + 1
    if apex in K.vertices:
        raise DuplicateVertexInFacet(f"apex {apex} already a vertex")
    return Complex({tuple(sorted(f + (apex,))) for f in K.facets}, _validated=True)


def boundary_of_simplex(n: int) -> Complex:
    """The boundary of the n-simplex on vertices 0..n, a combinatorial (n-1)-sphere."""
    return Complex(combinations(range(n + 1), n), _validated=True)


def barycentric_subdivision(K: Complex) -> tuple[Complex, dict[int, Simplex]]:
    """First barycentric subdivision.

    Vertices of K' are the non-empty faces of K; facets are the maximal flags.
    Returns K' and the map from K'-vertex ids back to faces of K.
    """
    faces = sorted((f for f in K.faces if f), key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    flags: set[Simplex] = set()
    # maximal chains inside a facet correspond to orderings of its vertices
    from itertools import permutations

    for facet in K.facets:
        for perm in permutations(facet):
            chain = []
            acc: tuple[int, ...] = ()
            for v in perm:
                acc = tuple(sorted(acc + (v,)))
                chain.append(index[acc])
            flags.add(tuple(sorted(chain)))
    Kp = Complex(flags, _validated=True)
    return Kp, {i: f for f, i in index.items()}
