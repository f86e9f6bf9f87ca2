"""The differential graded algebra of oriented combinatorial spheres.

Grade n is spanned by classes <L> of oriented (n-1)-dimensional
combinatorial spheres, modulo <-L> = -<L>.  Over the rationals the classes
with an orientation-reversing automorphism are torsion and are stored as
zero.  The boundary sums vertex links with their induced orientations; the
product is the join.

``Chain`` is the one sparse exact rational vector behind every chain of
the library: sphere chains here, move-graph chains in
:mod:`bistellar.gamma2`, and simplicial chains on a manifold.
``LocalCochain`` is the dual object: a finitely supported rational
function on oriented sphere classes with f(-L) = -f(L), stored as the
sphere chain of its values.  The coboundary, the chain f_sharp on a
manifold, the chain homotopy s through the sphere of a move, and the
fundamental-class cycle alpha live here too.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Iterable

from .canonical import OKey, materialize, okey
from .errors import DimensionTooSmall, NotClosedCycle
from .moves import BistellarMove, induced_vertex_moves, sphere_from_move
from .simplicial import Complex, OrientedComplex, Simplex, faces, join_oriented, perm_parity

_ZERO = Fraction(0)


def _norm_key_coeff(key: OKey, coeff: Fraction) -> tuple[OKey, Fraction] | None:
    """Store <-L> as -<L>: only sign=+1 keys are kept; torsion drops to 0."""
    if key.sign == 0:
        return None
    if key.sign == -1:
        return key.mirror(), -coeff
    return key, coeff


class Chain:
    """A finitely supported exact rational combination of hashable keys.

    ``terms`` maps each key to its nonzero coefficient; ``add`` is the one
    place that accumulates a coefficient and drops the key at zero.
    Subclasses fix what a key is and carry their shape (grade, ambient
    complex, degree) as extra attributes, which ``plus`` and ``scaled`` copy.
    """

    def __init__(self, terms: dict | None = None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def _json_key(key) -> str | list:
        """The JSON form of a key; ``to_json`` sorts by it."""
        return key.encode()

    def _like(self, terms: dict):
        out = copy.copy(self)
        out.terms = terms
        return out

    def add(self, key, coeff):
        c = self.terms.get(key, _ZERO) + Fraction(coeff)
        if c:
            self.terms[key] = c
        else:
            self.terms.pop(key, None)
        return self

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, _ZERO)

    def plus(self, other: "Chain", scale=1):
        out = self._like(dict(self.terms))
        s = Fraction(scale)
        for k, v in other.terms.items():
            out.add(k, v * s)
        return out

    def scaled(self, scale):
        s = Fraction(scale)
        return self._like({k: w for k, v in self.terms.items() if (w := v * s)})

    def total(self) -> Fraction:
        return sum(self.terms.values(), _ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def to_json(self) -> list:
        pairs = sorted((self._json_key(k), v) for k, v in self.terms.items())
        return [[enc, str(v.numerator), str(v.denominator)] for enc, v in pairs]


class SphereChain(Chain):
    """Finitely supported rational combination of oriented sphere classes."""

    def __init__(self, grade: int, terms: dict[OKey, Fraction] | None = None):
        self.grade = grade
        super().__init__(terms)

    def add(self, key: OKey, coeff) -> "SphereChain":
        nc = _norm_key_coeff(key, coeff)
        return self if nc is None else super().add(*nc)

    def coeff(self, key: OKey) -> Fraction:
        """The signed coefficient of <L>: that of <-L> negated, 0 on torsion."""
        nc = _norm_key_coeff(key, 1)
        return _ZERO if nc is None else nc[1] * super().coeff(nc[0])

    def add_sphere(self, L: OrientedComplex, coeff=1) -> "SphereChain":
        return self.add(okey(L), coeff)


def sphere_chain(L: OrientedComplex, coeff=1) -> SphereChain:
    return SphereChain(L.dim + 1).add_sphere(L, coeff)


def boundary_t(x: SphereChain) -> SphereChain:
    """d<L> = sum over vertices of <link v>; zero map on grade 1."""
    out = SphereChain(x.grade - 1)
    if x.grade <= 1:
        return out
    for key, coeff in x.terms.items():
        L = materialize(key)
        for v in L.vertices:
            out.add_sphere(L.link((v,)), coeff)
    return out


def join_product_t(x: SphereChain, y: SphereChain) -> SphereChain:
    """Bilinear extension of <L1><L2> = <L1 * L2>."""
    out = SphereChain(x.grade + y.grade)
    for k1, c1 in x.terms.items():
        L1 = materialize(k1)
        for k2, c2 in y.terms.items():
            L2 = materialize(k2)
            out.add_sphere(join_oriented(L1, L2), c1 * c2)
    return out


class LocalCochain(SphereChain):
    """Rational function on oriented (grade-1)-sphere classes: f(L) is the
    signed coefficient of <L>, so f(-L) = -f(L) holds by storage and
    torsion classes are zero."""

    def set(self, key_or_sphere, value) -> "LocalCochain":
        key = _as_key(key_or_sphere)
        return self.add(key, Fraction(value) - self.coeff(key))

    def __call__(self, arg) -> Fraction:
        return self.coeff(_as_key(arg))


def _as_key(key_or_sphere) -> OKey:
    return key_or_sphere if isinstance(key_or_sphere, OKey) else okey(key_or_sphere)


def delta_eval(f: LocalCochain, L: OrientedComplex) -> Fraction:
    """(delta f)(<L>) = (-1)^n sum over vertices of f(<link v>), n = grade of f."""
    total = sum((f(L.link((v,))) for v in L.vertices), Fraction(0))
    return total if f.grade % 2 == 0 else -total


def f_sharp(f: LocalCochain, K: OrientedComplex) -> "SimplicialChain":
    """The chain whose coefficient on each (m-n)-simplex is f of its link.

    Coefficients are attached to simplices in ascending vertex order; the
    sign of a summand does not depend on that choice because flipping the
    simplex orientation also flips the induced link orientation.
    """
    m, n = K.dim, f.grade
    if m < n:
        raise DimensionTooSmall(f"manifold dimension {m} < cochain grade {n}")
    out = SimplicialChain(K, m - n)
    for sig in K.complex.faces_of_dim(m - n):
        out.add(sig, f(K.link(sig)))
    return out


def s_eval(f: LocalCochain, move: BistellarMove) -> Fraction:
    """Chain homotopy through the sphere of a move:
    s(f)({beta}) = (-1)^(n-1) f(<L_beta>) for beta a move of (n-1)-spheres,
    where f has grade n+1 in this library's indexing."""
    if move.host.dim != f.grade - 2:
        raise DimensionTooSmall("s(f) eats moves of spheres of dimension grade-2")
    val = f(sphere_from_move(move, check_sphere=False))
    return val if f.grade % 2 == 0 else -val


def d_edge(f: LocalCochain, move: BistellarMove) -> Fraction:
    """Cellular coboundary of a vertex cochain, evaluated on a move:
    (df)({beta}) = f(head) - f(tail)."""
    return f(move.result) - f(move.host)


def delta_edge(h, move: BistellarMove) -> Fraction:
    """(delta h)({beta}) = (-1)^n sum over v in U(beta) of h({beta_v}),
    where beta moves (n+1)-spheres and h is an edge cochain on Gamma_n.

    ``h`` is any callable taking a concrete move to a rational.
    """
    n = move.host.dim - 1
    total = Fraction(0)
    for _, sub in induced_vertex_moves(move):
        if sub is not None:
            total += h(sub)
    return total if n % 2 == 0 else -total


def alpha_cycle(K: OrientedComplex) -> SphereChain:
    """Sum of vertex links of an oriented combinatorial manifold; a cycle of
    the sphere-class complex."""
    out = SphereChain(K.dim)
    for v in K.vertices:
        out.add_sphere(K.link((v,)))
    if boundary_t(out):
        raise NotClosedCycle("alpha image has nonzero boundary")
    return out


class SimplicialChain(Chain):
    """Rational simplicial chain on an ambient complex.

    Coefficients are attached to ascending-ordered simplices; flipping a
    simplex orientation negates its coefficient.
    """

    def __init__(self, ambient: OrientedComplex | Complex, degree: int, terms: dict[Simplex, Fraction] | None = None):
        self.ambient = ambient
        self.degree = degree
        super().__init__(terms)

    _json_key = staticmethod(list)

    def coefficient(self, ordered_simplex: Iterable[int]) -> Fraction:
        t = tuple(ordered_simplex)
        return self.coeff(tuple(sorted(t))) * perm_parity(t)

    def boundary(self) -> "SimplicialChain":
        out = SimplicialChain(self.ambient, self.degree - 1)
        for sig, c in self.terms.items():
            for face, sign in faces(sig):
                out.add(face, sign * c)
        return out

    def is_cycle(self) -> bool:
        return self.degree == 0 or not self.boundary().terms
