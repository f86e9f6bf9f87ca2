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
threads a move's endpoint by hand or rebuilds it; ``result_degrees()``
reads the result's vertex degrees off the two stars without building it.

Moves of oriented spheres fall into equivalence classes (orientation
preserving isomorphism carrying sigma to sigma'); the essential classes are
the edges of the graph Gamma_n, identified here by ``GammaEdgeKey``.  Its
2-sphere vertices are ordered by complexity (``complexity_thirds``), and
``decreasing_moves`` and ``increasing_moves`` find the moves that lower or
raise it.  An edge is read off ``result_class`` and the automorphisms that
keep the orientation of each endpoint's representative (``edge_key``).

Transport: a move whose result is known up to an isomorphism psi onto the
representative of a class (the inverse of a classified representative
move, or a step whose end state ``carry`` is handed) gets its result class
and first designated labelling as a o psi, a the automorphism of least
path (``canonical.transported_labeling``): it is neither applied nor
searched.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
from typing import Collection, NamedTuple

from .canonical import OKey, _kept, designated_labelings, marked_encoding, materialize, okey, transported_labeling
from .errors import InvalidMove
from .simplicial import Complex, OrientedComplex, Simplex, faces, orient, perm_parity


class BistellarMove:
    """The move (host, sigma, tau); tau may contain one fresh vertex (k = n)."""

    def __init__(self, host: OrientedComplex, sigma: Simplex, tau: Simplex):
        self.__dict__.update(host=host, sigma=tuple(sigma), tau=tuple(tau))

    def __setattr__(self, name: str, value) -> None:  # (host, sigma, tau) is its hash
        raise AttributeError(f"cannot assign to BistellarMove.{name}")

    def __eq__(self, o) -> bool:
        return isinstance(o, BistellarMove) and (self.host, self.sigma, self.tau) == (o.host, o.sigma, o.tau)

    def __hash__(self) -> int:
        return hash((self.host, self.sigma, self.tau))

    def __repr__(self) -> str:
        return f"BistellarMove(host={self.host!r}, sigma={self.sigma!r}, tau={self.tau!r})"

    @property
    def k(self) -> int:
        return len(self.sigma) - 1

    @functools.cached_property
    def result(self) -> OrientedComplex:
        """The complex after the move (validated), built once."""
        return apply_move(self)

    @functools.cached_property
    def edge(self) -> SignedEdge | None:
        """The signed Gamma_n edge (``edge_key``), computed once."""
        return edge_key(self)

    @functools.cached_property
    def result_class(self) -> tuple[OKey, dict[int, int]]:
        """The class of the result and a designated labelling of the result
        onto that class's representative, computed once."""
        return okey(self.result), designated_labelings(self.result)[0]

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

    def result_degrees(self) -> dict[int, int]:
        """Vertex degrees of the result: the host's cached degrees change
        only on the two stars."""
        degs = dict(self.host.degrees)
        for star, d in ((self.removed, -1), (self.added, 1)):
            for f, _ in star:
                for v in f:
                    degs[v] = degs.get(v, 0) + d
        for v in self.sigma:  # a removed vertex leaves no facet behind
            if not degs[v]:
                del degs[v]
        return degs

    def describe(self) -> str:
        return f"({','.join(map(str, self.sigma))})->({','.join(map(str, self.tau))})"


def move_tau(K: OrientedComplex, sigma: Simplex, used=(), star=None) -> Simplex | None:
    """The tau of the move at sigma on K, or None if sigma carries no move.

    For a facet sigma, tau is the fresh vertex: the smallest id in neither
    K nor ``used``.  Otherwise link(sigma) must be the boundary of a simplex
    tau that is not a face of K.  ``star`` maps every face of K to the
    facets containing it, so one pass over K serves all faces; without it
    the facets come from ``facets_containing``.
    """
    stars = K.facets_containing(sigma) if star is None else star[sigma]
    m = K.dim + 2 - len(sigma)  # the number of tau vertices
    if not stars:
        return None
    if m == 1:
        taken = set(K.vertices).union(used)
        return (next(v for v in range(len(taken) + 1) if v not in taken),)
    if len(stars) != m:
        return None
    # K is a pure closed pseudomanifold: m link facets span just m vertices
    tau = tuple(sorted(set(chain.from_iterable(stars)).difference(sigma)))
    if (tau in star) if star is not None else K.facets_containing(tau):
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
    in closed form (see the module docstring).  Every move is checked
    against ``move_tau`` first."""
    host, sig, tau = move.host, move.sigma, move.tau
    want = move_tau(host, sig)
    if want is None:
        raise InvalidMove(f"no bistellar move at {sig}")
    if move.k == host.dim:
        if len(tau) != 1 or tau[0] in host.vertices:
            raise InvalidMove("a facet subdivision needs one fresh tau vertex")
    elif tuple(sorted(tau)) != want:
        raise InvalidMove(f"the move at {sig} has tau {want}, not {tau}")
    removed, added = move.removed, move.added
    f0, b0 = removed[0]
    c = host.facet_signs[f0] * b0
    old = {f for f, _ in removed}
    signs = {f: s for f, s in host.facet_signs.items() if f not in old}
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


def sphere_from_move(move: BistellarMove) -> OrientedComplex:
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
    return out


# ---------------------------------------------------------------------------
# move classes: essentiality and Gamma_n edge keys
# ---------------------------------------------------------------------------


class _EdgeFields(NamedTuple):
    tail: OKey
    head: OKey
    orbit: tuple[int, ...]


class GammaEdgeKey(_EdgeFields):
    """Canonical-direction edge of Gamma_n.

    ``tail``/``head`` are oriented class keys with tail <= head in the
    canonical order (complexity, then key bytes; loops ordered by marked
    orbits); ``orbit`` is the canonical encoding of the moved simplex on the
    tail representative.  Like ``OKey``, one object per value
    (``_interned_edge``) that hashes once.
    """

    def __new__(cls, tail: OKey, head: OKey, orbit: tuple[int, ...]) -> "GammaEdgeKey":
        return _interned_edge(tail, head, orbit)

    __hash__ = OKey.__hash__

    def encode(self) -> str:
        return f"{self.tail.encode()}  {self.head.encode()}  {','.join(map(str, self.orbit))}"

    @staticmethod
    def decode(text: str) -> "GammaEdgeKey":
        return _decode_edge_key(text)


@functools.cache
def _interned_edge(tail: OKey, head: OKey, orbit: tuple[int, ...]) -> GammaEdgeKey:
    """The one ``GammaEdgeKey`` of each value."""
    return _EdgeFields.__new__(GammaEdgeKey, tail, head, orbit)


@functools.cache
def _decode_edge_key(text: str) -> GammaEdgeKey:
    """``GammaEdgeKey.decode`` memoized on the text: a cache file repeats
    each edge in many chains."""
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
    thirds = complexity_of_key(L) if isinstance(L, OKey) else complexity_thirds(L.degrees.values())
    return Fraction(thirds, 3)


@functools.cache
def complexity_of_key(key: OKey) -> int:
    """Three times the complexity of a 2-sphere class (``complexity_thirds``)."""
    return complexity_thirds(Counter(chain.from_iterable(key.facets)).values())


# The moves that change the complexity of a 2-sphere, read off its degree
# table (m is the minimal degree).  A removal (of a degree-3 vertex) lowers
# it and a facet subdivision raises it.  A flip of the edge sigma onto tau
# keeps the vertex count, lowers the degrees of sigma's ends by one and
# raises those of tau: it lowers the complexity iff m is 4 or 5 and an end
# of sigma has degree m, and raises it iff m is 3 or 4, tau holds every
# vertex of degree m (so sigma is an edge opposite one) and both ends of
# sigma have degree at least m + 2.


def decreasing_sigmas(L: OrientedComplex) -> list[Simplex]:
    """The sigmas of ``decreasing_moves(L)`` before ``move_tau`` tests them."""
    degs = L.degrees
    m = min(degs.values())
    if m <= 3:
        return [(v,) for v in sorted(degs) if degs[v] == 3]
    if m <= 5:
        low = [v for v, d in degs.items() if d == m]
        return sorted({tuple(sorted((v, w))) for v in low for f in L.facets_containing((v,)) for w in f if w != v})
    return []


def decreasing_moves(L: OrientedComplex) -> list[BistellarMove]:
    """All moves strictly lowering the complexity of the 2-sphere L, in
    ``enumerate_moves`` order (the rule above)."""
    return [BistellarMove(L, s, t) for s in decreasing_sigmas(L) if (t := move_tau(L, s)) is not None]


def raising_flips(S: OrientedComplex) -> list[BistellarMove]:
    """The flips strictly raising the complexity of the 2-sphere S, by edge
    (the rule above)."""
    degs = S.degrees
    m = min(degs.values())
    low = {v for v, d in degs.items() if d == m}
    if m > 4 or len(low) > 2:
        return []
    v = min(low)
    edges = sorted(tuple(w for w in f if w != v) for f in S.facets_containing((v,)))
    taus = {e: move_tau(S, e) for e in edges if min(degs[w] for w in e) >= m + 2}
    return [BistellarMove(S, e, t) for e, t in taus.items() if t is not None and low <= set(t)]


def increasing_moves(S: OrientedComplex) -> list[BistellarMove]:
    """All moves strictly raising the complexity of the 2-sphere S, in
    ``enumerate_moves`` order: every facet subdivision, onto the least id
    not in S (found once), and the ``raising_flips``."""
    fresh = (next(v for v in range(len(S.degrees) + 1) if v not in S.degrees),)
    return sorted([BistellarMove(S, f, fresh) for f in S.facets] + raising_flips(S), key=lambda mv: mv.sigma)


def _endpoint_rank(key: OKey) -> int:
    """Ordering of Gamma_n vertices: complexity for 2-spheres, else vertex
    count; ``edge_key`` breaks ties by key bytes."""
    return complexity_of_key(key) if key.dim() == 2 else key.nvertices()


def is_inessential(move: BistellarMove) -> bool:
    """True iff some orientation-preserving isomorphism host -> result maps
    sigma to tau."""
    return move.edge is None


def edge_key(move: BistellarMove) -> SignedEdge | None:
    """The Gamma_n edge of an essential move, with its sign relative to the
    canonical direction; None for inessential moves.  The result's encoding
    is the least image of tau under its designated labellings, a o lab."""
    tail_key, (head_key, lab) = okey(move.host), move.result_class
    enc_fwd = marked_encoding(move.host, move.sigma)
    enc_bwd = min(tuple(sorted(a[lab[v]] for v in move.tau)) for a, _ in _kept(head_key.facets))
    if tail_key == head_key:
        if enc_fwd == enc_bwd:
            return None  # inessential
        if enc_fwd < enc_bwd:
            return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_fwd), 1)
        return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_bwd), -1)
    rt, rh = _endpoint_rank(tail_key), _endpoint_rank(head_key)
    if rt < rh or (rt == rh and tail_key.encode() < head_key.encode()):
        return SignedEdge(GammaEdgeKey(tail_key, head_key, enc_fwd), 1)
    return SignedEdge(GammaEdgeKey(head_key, tail_key, enc_bwd), -1)


@functools.cache
def _rep_moves(key: OKey) -> tuple[OrientedComplex, dict[Simplex, BistellarMove]]:
    """The representative of a class and the moves made on it so far."""
    return materialize(key), {}


def rep_move(key: OKey, sigma: Simplex) -> BistellarMove:
    """The move at ``sigma`` (ascending) on ``materialize(key)``, built once
    per process; the moves of one class share one host."""
    host, made = _rep_moves(key)
    mv = made.get(sigma)
    if mv is None:
        tau = move_tau(host, sigma)
        if tau is None:
            raise InvalidMove(f"no move at {sigma} on {key.encode()[:40]}...")
        mv = made[sigma] = BistellarMove(host, sigma, tau)
    return mv


def carry(
    key: OKey, lab: dict[int, int], sigma: Simplex, tau: Simplex, end: tuple[OKey, dict] | None = None
) -> tuple[BistellarMove, tuple[OKey, dict]]:
    """The move (sigma, tau) on a complex of class ``key`` with designated
    labelling ``lab``, read off the representative: the ``rep_move`` it maps
    to (whose cached ``edge`` is its edge), and the class of its result with
    the result's labelling, ``lab`` composed with the representative's.  A
    removal drops sigma's vertex; a subdivision sends tau's vertex to the
    representative's fresh one.  No state of a sequence is labelled again.
    ``end``, the class and a designated labelling of the complex after the
    move if the caller knows them, gives the move its result by transport.
    InvalidMove when (sigma, tau) is no move of the complex."""
    if not lab.keys() >= set(sigma):
        raise InvalidMove(f"{sigma} is not a simplex of the complex")
    mv = rep_move(key, tuple(sorted(lab[x] for x in sigma)))
    if mv.k == mv.host.dim:
        ok = len(tau) == 1 and tau[0] not in lab
    else:
        ok = {lab.get(x) for x in tau} == set(mv.tau)
    if not ok:
        raise InvalidMove(f"the move at {sigma} has no tau {tau}")
    if end is not None and "result_class" not in vars(mv):
        psi = {lab[x]: y for x, y in end[1].items() if x in lab}
        if len(tau) == 1:
            psi[mv.tau[0]] = end[1][tau[0]]
        vars(mv)["result_class"] = end[0], transported_labeling(end[0], psi)
    head, after, _ = _result_class(key, mv)
    out = {x: after[y] for x, y in lab.items() if y in after}
    if len(tau) == 1:
        out[tau[0]] = after[mv.tau[0]]
    return mv, (head, out)


def _result_class(key: OKey, mv: BistellarMove) -> tuple[OKey, dict[int, int], BistellarMove]:
    """``mv.result_class`` for a move on the representative of ``key``, and
    the inverse on the head representative, which mv keeps.  The inverse
    inherits its result class through psi, its result onto mv's host, and
    mv's edge reversed; its result is never built."""
    head, after = mv.result_class
    if "inverse" not in vars(mv):
        inv = vars(mv)["inverse"] = rep_move(head, tuple(sorted(after[x] for x in mv.tau)))
        if "result_class" not in vars(inv):
            psi = {y: x for x, y in after.items() if x in mv.host.degrees}
            if inv.k == inv.host.dim:
                psi[inv.tau[0]] = mv.sigma[0]
            se, lab = mv.edge, transported_labeling(key, psi)
            vars(inv).update(result_class=(key, lab), edge=se and SignedEdge(se.key, -se.sign))
    return head, after, vars(mv)["inverse"]


def materialize_edge(key: GammaEdgeKey) -> BistellarMove:
    """A concrete move realizing the edge in its canonical direction."""
    return rep_move(key.tail, key.orbit)


def move_from_endpoint(key: GammaEdgeKey, endpoint: str) -> BistellarMove:
    """A concrete move realizing the edge, hosted on the canonical
    representative of the chosen endpoint.

    ``endpoint='tail'`` gives the canonical-direction move; ``'head'`` gives
    its inverse on the head representative, which ``_result_class`` keeps on
    the tail move (so ``_rep_moves`` owns it).
    """
    mv = materialize_edge(key)
    return mv if endpoint == "tail" else _result_class(key.tail, mv)[2]
