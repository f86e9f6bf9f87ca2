"""Bistellar (Pachner) moves: enumeration, application, move classes.

A move on an n-dimensional combinatorial manifold K is a pair (sigma, tau)
where sigma is a simplex of K whose link equals the boundary of the "empty
simplex" tau (tau itself is not a face of K while all its proper subsets
are).  Applying the move replaces the full subcomplex sigma * d(tau) by
d(sigma) * tau.  k = dim(sigma) = n gives stellar subdivision of a facet
(tau is one fresh vertex); k = 0 removes a vertex.

A move owns what it derives.  ``removed`` and ``added`` are the facets of
sigma * d(tau) and d(sigma) * tau: both stars lie in the boundary of
D = sigma + tau, so with D sorted they are the faces D - {t} (t in tau) and
D - {v} (v in sigma), each with its boundary sign (-1)**index in D.  The
orientation is transported in closed form (dd(D) = 0): every replaced
facet has sign c times its boundary sign for one c in {+1, -1}, and every
new facet gets -c times its boundary sign.  ``result`` is the moved
complex, built by ``apply_move`` on first use and kept, so no caller
threads a move's endpoint by hand or rebuilds it.

Moves of oriented spheres fall into equivalence classes (orientation
preserving isomorphism carrying sigma to sigma'); the essential classes are
the edges of the graph Gamma_n, identified here by ``GammaEdgeKey``.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Collection, NamedTuple

from .canonical import OKey, designated_labelings, marked_encoding, materialize, okey, oriented_canon
from .errors import InvalidMove, SphereCheckFailed
from .simplicial import Complex, OrientedComplex, Simplex, faces, orient, perm_parity


@dataclass(frozen=True)
class BistellarMove:
    """The move (host, sigma, tau); tau may contain one fresh vertex (k = n)."""

    host: OrientedComplex
    sigma: Simplex
    tau: Simplex

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "tau", tuple(self.tau))

    @property
    def k(self) -> int:
        return len(self.sigma) - 1

    @functools.cached_property
    def result(self) -> OrientedComplex:
        """The complex after the move (validated), built once."""
        return apply_move(self)

    @property
    def removed(self) -> tuple[tuple[Simplex, int], ...]:
        """The facets of sigma * d(tau), each with its sign in d(D)."""
        return self._stars[0]

    @property
    def added(self) -> tuple[tuple[Simplex, int], ...]:
        """The facets of d(sigma) * tau, each with its sign in d(D)."""
        return self._stars[1]

    @functools.cached_property
    def _stars(self) -> tuple[tuple[tuple[Simplex, int], ...], ...]:
        # D - {v} contains sigma when v is in tau, and tau when v is in sigma
        D = tuple(sorted(self.sigma + self.tau))
        removed, added = [], []
        for v, fs in zip(D, faces(D)):
            (removed if v in self.tau else added).append(fs)
        return tuple(removed), tuple(added)

    def validate(self) -> None:
        host, sig, tau = self.host, self.sigma, self.tau
        want = move_tau(host, sig)
        if want is None:
            raise InvalidMove(f"no bistellar move at {sig}")
        if self.k == host.dim:
            if len(tau) != 1 or tau[0] in host.vertices:
                raise InvalidMove("a facet subdivision needs one fresh tau vertex")
        elif tuple(sorted(tau)) != want:
            raise InvalidMove(f"the move at {sig} has tau {want}, not {tau}")

    def describe(self) -> str:
        return f"({','.join(map(str, self.sigma))})->({','.join(map(str, self.tau))})"


def move_tau(K: OrientedComplex, sigma: Simplex, used=(), star=None) -> Simplex | None:
    """The tau of the move at sigma on K, or None if sigma carries no move.

    For a facet sigma, tau is the fresh vertex: the smallest id in neither
    K nor ``used``.  Otherwise link(sigma) must be the boundary of a simplex
    tau that is not a face of K.  ``star`` maps every face of K to the
    facets containing it, so one pass over K serves all faces.
    """
    if star is None:
        ss = set(sigma)
        stars = [f for f in K.facets if ss <= set(f)]
    else:
        stars = star[sigma]
    m = K.dim + 2 - len(sigma)  # the number of tau vertices
    if not stars:
        return None
    if m == 1:
        taken = set(K.vertices).union(used)
        return (next(v for v in range(len(taken) + 1) if v not in taken),)
    if len(stars) != m:
        return None
    tau = set(chain.from_iterable(stars)).difference(sigma)
    if len(tau) != m:
        return None
    tau = tuple(sorted(tau))
    if (tau in star) if star is not None else any(set(tau) <= set(f) for f in K.facets):
        return None  # tau is a face of K, not an empty simplex
    return tau


def enumerate_moves(K: OrientedComplex) -> list[BistellarMove]:
    """All bistellar moves available on K, in deterministic order."""
    star: dict[Simplex, list[Simplex]] = {}
    for f in K.facets:
        for r in range(1, len(f) + 1):
            for s in combinations(f, r):
                star.setdefault(s, []).append(f)
    out: list[BistellarMove] = []
    for sig in sorted(star):
        tau = move_tau(K, sig, star=star)
        if tau is not None:
            out.append(BistellarMove(K, sig, tau))
    return out


def apply_move(move: BistellarMove) -> OrientedComplex:
    """Replace sigma * d(tau) by d(sigma) * tau, transporting the orientation
    in closed form (see the module docstring)."""
    move.validate()
    removed, added = move.removed, move.added
    f0, b0 = removed[0]
    c = move.host.facet_signs[f0] * b0
    old = {f for f, _ in removed}
    signs = {f: s for f, s in move.host.facet_signs.items() if f not in old}
    for f, b in added:
        signs[f] = -c * b
    return OrientedComplex(Complex(signs, _validated=True), signs, check=False)


def inverse_move(move: BistellarMove) -> BistellarMove:
    return BistellarMove(move.result, move.tau, move.sigma)


def u_set(move: BistellarMove) -> tuple[int, ...]:
    """U(beta): vertices of d(sigma) * d(tau) (those whose links change)."""
    out: list[int] = []
    if len(move.sigma) >= 2:
        out.extend(move.sigma)
    if len(move.tau) >= 2:
        out.extend(move.tau)
    return tuple(sorted(out))


def induced_vertex_moves(move: BistellarMove) -> list[tuple[int, BistellarMove | None]]:
    """The induced moves beta_v on link(v) for v in U(beta).

    For 1-dimensional hosts the links are 0-spheres and the induced move is
    the identity, reported as None.
    """
    out: list[tuple[int, BistellarMove | None]] = []
    for v in u_set(move):
        if move.host.dim <= 1:
            out.append((v, None))
            continue
        lk = move.host.link((v,))
        sig = tuple(x for x in move.sigma if x != v)
        tau = tuple(x for x in move.tau if x != v)
        out.append((v, BistellarMove(lk, sig, tau)))
    return out


def sphere_from_move(move: BistellarMove, check_sphere: bool = True) -> OrientedComplex:
    """The sphere L_beta on V(beta) + {u1, u2} associated to a move of spheres.

    Facets: rho + {u1} for rho a facet of L1, rho + {u2} for rho a facet of
    L2, and sigma + tau.  Oriented so that link(u2) is +L2; then link(u1)
    is -L1.
    """
    L1 = move.host
    L2 = move.result
    top = max(max(L1.vertices), max(L2.vertices))
    u1, u2 = top + 1, top + 2
    facets = {tuple(sorted(f + (u1,))) for f in L1.facets}
    facets |= {tuple(sorted(f + (u2,))) for f in L2.facets}
    facets.add(tuple(sorted(move.sigma + move.tau)))
    out = orient(Complex(facets, _validated=True))
    f = next(iter(L2.facets))
    if out.facet_signs[tuple(sorted(f + (u2,)))] != L2.facet_signs[f] * perm_parity((u2,) + f):
        out = -out
    if check_sphere:
        from .spheres import is_combinatorial_sphere

        verdict = is_combinatorial_sphere(out.complex)
        if verdict.verdict is not True:
            raise SphereCheckFailed(f"L_beta is not a combinatorial sphere: {verdict}")
    return out


# ---------------------------------------------------------------------------
# move classes: essentiality and Gamma_n edge keys
# ---------------------------------------------------------------------------


class GammaEdgeKey(NamedTuple):
    """Canonical-direction edge of Gamma_n.

    ``tail``/``head`` are oriented class keys with tail <= head in the
    canonical order (complexity, then key bytes; loops ordered by marked
    orbits); ``orbit`` is the canonical encoding of the moved simplex on the
    tail representative.
    """

    tail: OKey
    head: OKey
    orbit: tuple[int, ...]

    def encode(self) -> str:
        return f"{self.tail.encode()}  {self.head.encode()}  {','.join(map(str, self.orbit))}"

    @staticmethod
    def decode(text: str) -> "GammaEdgeKey":
        t, h, o = text.split("  ")
        orbit = tuple(int(x) for x in o.split(",")) if o else ()
        return GammaEdgeKey(OKey.decode(t), OKey.decode(h), orbit)


class SignedEdge(NamedTuple):
    key: GammaEdgeKey
    sign: int


def complexity_thirds(degrees: Collection[int]) -> int:
    """Three times the complexity of a 2-sphere with these vertex degrees:
    3k, 3k+1 or 3k+2 for k vertices and minimal degree 3, 4 or at least 5."""
    m = min(degrees)
    return 3 * len(degrees) + (0 if m <= 3 else (1 if m == 4 else 2))


def sphere_complexity(L: OrientedComplex | OKey) -> Fraction:
    """k, k+1/3 or k+2/3 for a 2-sphere with k vertices and min degree 3, 4, >=5."""
    return Fraction(complexity_thirds(Counter(chain.from_iterable(L.facets)).values()), 3)


@functools.cache
def complexity_of_key(key: OKey) -> Fraction:
    return sphere_complexity(key)


def _endpoint_rank(key: OKey):
    """Ordering of Gamma_n vertices: complexity for 2-spheres, else vertex
    count, with key bytes breaking ties."""
    if key.dim() == 2:
        return (complexity_of_key(key), key.encode())
    return (key.nvertices(), key.encode())


def is_inessential(move: BistellarMove) -> bool:
    """True iff some orientation-preserving isomorphism host -> result maps
    sigma to tau."""
    result = move.result
    a, b = oriented_canon(move.host), oriented_canon(result)
    if a.okey != b.okey:
        return False
    return marked_encoding(move.host, move.sigma) == marked_encoding(result, move.tau)


def edge_key(move: BistellarMove) -> SignedEdge | None:
    """The Gamma_n edge of an essential move, with its sign relative to the
    canonical direction; None for inessential moves."""
    result = move.result
    tail_key, head_key = okey(move.host), okey(result)
    enc_fwd = marked_encoding(move.host, move.sigma)
    enc_bwd = marked_encoding(result, move.tau)
    if tail_key == head_key:
        if enc_fwd == enc_bwd:
            return None  # inessential
        if enc_fwd < enc_bwd:
            return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_fwd), 1)
        return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_bwd), -1)
    if _endpoint_rank(tail_key) < _endpoint_rank(head_key):
        return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_fwd), 1)
    return SignedEdge(GammaEdgeKey(head_key, tail_key, enc_bwd), -1)


def materialize_edge(key: GammaEdgeKey) -> BistellarMove:
    """A concrete move realizing the edge in its canonical direction."""
    host = materialize(key.tail)
    return BistellarMove(host, key.orbit, move_tau(host, key.orbit))


def move_from_endpoint(key: GammaEdgeKey, endpoint: str) -> BistellarMove:
    """A concrete move realizing the edge, hosted on the canonical
    representative of the chosen endpoint.

    ``endpoint='tail'`` gives the canonical-direction move; ``'head'`` gives
    its inverse transported onto the head representative.
    """
    mv = materialize_edge(key)
    if endpoint == "tail":
        return mv
    rep = materialize(key.head)
    lab = designated_labelings(mv.result)[0]
    sig_new = tuple(sorted(lab[v] for v in mv.tau))
    return BistellarMove(rep, sig_new, move_tau(rep, sig_new))
