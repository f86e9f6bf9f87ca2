"""Bistellar (Pachner) moves: enumeration, application, move classes.

A move on an n-dimensional combinatorial manifold K is a pair (sigma, tau)
where sigma is a simplex of K whose link equals the boundary of the "empty
simplex" tau (tau itself is not a face of K while all its proper subsets
are).  Applying the move replaces the full subcomplex sigma * d(tau) by
d(sigma) * tau.  k = dim(sigma) = n gives stellar subdivision of a facet
(tau is one fresh vertex); k = 0 removes a vertex.

Moves of oriented spheres fall into equivalence classes (orientation
preserving isomorphism carrying sigma to sigma'); the essential classes are
the edges of the graph Gamma_n, identified here by ``GammaEdgeKey``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .canonical import OKey, designated_labelings, marked_encoding, okey, oriented_canon
from .errors import InvalidMove, SphereCheckFailed
from .simplicial import Complex, OrientedComplex, Simplex, perm_parity


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

    def validate(self) -> None:
        host, sig, tau = self.host, self.sigma, self.tau
        n = host.dim
        ss = set(sig)
        stars = [f for f in host.facets if ss <= set(f)]
        if not stars:
            raise InvalidMove(f"sigma {sig} not a face of the host")
        if len(sig) + len(tau) != n + 2:
            raise InvalidMove(f"dim sigma + dim tau must be {n}")
        if self.k == n:
            if len(tau) != 1 or tau[0] in host.vertices:
                raise InvalidMove("a facet subdivision needs one fresh tau vertex")
            return
        ts = set(tau)
        link_facets = {tuple(sorted(set(f) - ss)) for f in stars}
        if link_facets != set(combinations(tau, len(tau) - 1)):
            raise InvalidMove(f"link of {sig} is not the boundary of {tau}")
        if any(ts <= set(f) for f in host.facets):
            raise InvalidMove(f"tau {tau} must be an empty simplex but is a face")

    def describe(self) -> str:
        return f"({','.join(map(str, self.sigma))})->({','.join(map(str, self.tau))})"


def fresh_vertex(K: OrientedComplex) -> int:
    """Smallest unused vertex id (deterministic insertion labels)."""
    used = set(K.vertices)
    v = 0
    while v in used:
        v += 1
    return v


def enumerate_moves(K: OrientedComplex) -> list[BistellarMove]:
    """All bistellar moves available on K, in deterministic order."""
    n = K.dim
    fresh = fresh_vertex(K)
    star: dict[Simplex, list[Simplex]] = {}
    for f in K.facets:
        for r in range(1, len(f) + 1):
            for s in combinations(f, r):
                star.setdefault(s, []).append(f)
    out: list[BistellarMove] = []
    for sig in sorted(star):
        k = len(sig) - 1
        if k == n:
            out.append(BistellarMove(K, sig, (fresh,)))
            continue
        fs = star[sig]
        if len(fs) != n - k + 1:
            continue
        ss = set(sig)
        uni: set[int] = set()
        for f in fs:
            uni |= set(f) - ss
        if len(uni) != n - k + 1:
            continue
        tau = tuple(sorted(uni))
        if tau in star:
            continue  # tau is a face of K, not an empty simplex
        out.append(BistellarMove(K, sig, tau))
    return out


def apply_move(move: BistellarMove) -> OrientedComplex:
    """Replace sigma * d(tau) by d(sigma) * tau, transporting the orientation."""
    move.validate()
    host, sig, tau = move.host, move.sigma, move.tau
    ss = set(sig)
    old = {f for f in host.facets if ss <= set(f)}
    if len(sig) == 1:
        new = {tau}
    else:
        new = {tuple(sorted([v for v in sig if v != s] + list(tau))) for s in sig}
    facets = (set(host.facets) - old) | new
    cx = Complex(facets, _validated=True)
    signs = {f: s for f, s in host.facet_signs.items() if f not in old}
    _extend_orientation(cx, signs)
    return OrientedComplex(cx, signs, check=False)


def _extend_orientation(cx: Complex, signs: dict[Simplex, int]) -> None:
    """Propagate coherent signs to the unsigned facets of cx (in place)."""
    todo = [f for f in cx.facets if f not in signs]
    if not todo:
        return
    by_ridge: dict[Simplex, list[Simplex]] = {}
    for f in cx.facets:
        for r in combinations(f, len(f) - 1):
            by_ridge.setdefault(r, []).append(f)
    if not signs:
        seed = min(cx.facets)
        signs[seed] = 1
    # breadth-first from the signed facets: each level is scanned once, in
    # the order its facets were signed; the last level needs no scan
    level = list(signs)
    while len(signs) < len(cx.facets):
        nxt = []
        for f in level:
            for i in range(len(f)):
                r = f[:i] + f[i + 1 :]
                pair = by_ridge[r]
                if len(pair) != 2:
                    raise InvalidMove("move output is not a closed pseudomanifold")
                g = pair[1] if pair[0] == f else pair[0]
                if g in signs:
                    continue
                (w,) = set(g) - set(r)
                signs[g] = -(signs[f] * (-1) ** i) * (-1) ** g.index(w)
                nxt.append(g)
        if not nxt:
            raise InvalidMove("orientation propagation did not reach all facets")
        level = nxt


def inverse_move(move: BistellarMove, result: OrientedComplex | None = None) -> BistellarMove:
    if result is None:
        result = apply_move(move)
    return BistellarMove(result, move.tau, move.sigma)


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
    L2 = apply_move(move)
    top = max(max(L1.vertices), max(L2.vertices))
    u1, u2 = top + 1, top + 2
    facets: set[Simplex] = set()
    for f in L1.facets:
        facets.add(tuple(sorted(f + (u1,))))
    for f in L2.facets:
        facets.add(tuple(sorted(f + (u2,))))
    st = tuple(sorted(move.sigma + move.tau))
    facets.add(st)
    cx = Complex(facets, _validated=True)
    signs: dict[Simplex, int] = {}
    for f, s in L2.facet_signs.items():
        g = tuple(sorted(f + (u2,)))
        signs[g] = s * perm_parity((u2,) + f)
    _extend_orientation(cx, signs)
    out = OrientedComplex(cx, signs, check=True)
    if check_sphere:
        from .spheres import is_combinatorial_sphere

        verdict = is_combinatorial_sphere(cx)
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


def _endpoint_rank(key: OKey):
    """Ordering of Gamma_n vertices: complexity for 2-spheres, else vertex
    count, with key bytes breaking ties."""
    if key.dim() == 2:
        from .gamma2 import complexity_of_key

        return (complexity_of_key(key), key.encode())
    return (key.nvertices(), key.encode())


def is_inessential(move: BistellarMove, result: OrientedComplex | None = None) -> bool:
    """True iff some orientation-preserving isomorphism host -> result maps
    sigma to tau."""
    if result is None:
        result = apply_move(move)
    a, b = oriented_canon(move.host), oriented_canon(result)
    if a.okey != b.okey:
        return False
    return marked_encoding(move.host, move.sigma) == marked_encoding(result, move.tau)


def edge_key(move: BistellarMove, result: OrientedComplex | None = None) -> SignedEdge | None:
    """The Gamma_n edge of an essential move, with its sign relative to the
    canonical direction; None for inessential moves."""
    if result is None:
        result = apply_move(move)
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
    from .canonical import materialize

    host = materialize(key.tail)
    sig = key.orbit
    if len(sig) - 1 == host.dim:
        tau = (max(host.vertices) + 1,)
    else:
        tau = host.complex.link(sig).vertices
    return BistellarMove(host, sig, tau)


def move_from_endpoint(key: GammaEdgeKey, endpoint: str) -> BistellarMove:
    """A concrete move realizing the edge, hosted on the canonical
    representative of the chosen endpoint.

    ``endpoint='tail'`` gives the canonical-direction move; ``'head'`` gives
    its inverse transported onto the head representative.
    """
    mv = materialize_edge(key)
    if endpoint == "tail":
        return mv
    from .canonical import materialize

    result = apply_move(mv)
    rep = materialize(key.head)
    lab = designated_labelings(result)[0]
    sig_new = tuple(sorted(lab[v] for v in mv.tau))
    if len(mv.sigma) == 1 and mv.sigma[0] not in result.vertices:
        tau_new = (max(rep.vertices) + 1,)  # removed vertex re-enters fresh
    else:
        tau_new = tuple(sorted(lab[v] for v in mv.sigma))
    return BistellarMove(rep, sig_new, tau_new)
