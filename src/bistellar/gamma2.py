"""The move graph of oriented 2-spheres: cycles, their classification, and
the rational cocycle determined by the catalogued elementary-cycle values.

Complexity of a 2-sphere with k vertices is k, k+1/3 or k+2/3 according to
whether the minimal vertex degree is 3, 4 or at least 5 (the rule lives in
:mod:`bistellar.moves`, which orders the endpoints of move-graph edges by
it); the complexity of a move is the larger endpoint complexity, plus 1/6
when they tie.  Every
integer cycle in the move graph decomposes into "elementary" cycles of two
kinds:

* commutation cycles of two moves with disjoint, vertex-sharing or
  edge-sharing supports (kinds ``comm-a`` .. ``comm-i``);
* three special small cycles (kinds ``spec-a``, ``spec-b``, ``spec-c``).

The cocycle value on an elementary cycle is an exact rational determined by
the kind, by triangle counts in marked angular sectors around the shared
vertices of the supports, and by an orientation sign.  The decomposition
algorithm peels the chain stratum by stratum, strictly decreasing the
(max complexity, total weight there) measure, so it terminates and its
output is re-verified by exact chain arithmetic.  A candidate gamma,
scaled by the s that kills the target edge, is accepted iff it lowers that
measure, and only gamma's edges can move it: the test fails if gamma has an
edge above the top complexity, and otherwise passes iff the sum over
gamma's edges e at the top of |w_e - s*g_e| - |w_e| is negative (w and g
being the coefficients in the work chain and in gamma).

Moves read what they need from the objects that own it: a vertex degree
from the cached ``Complex.degrees``, the support of a move (the triangles
of sigma * d(tau)) from ``BistellarMove.removed``, and a move's endpoint
from ``BistellarMove.result``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .canonical import OKey
from .errors import (
    ClosureFailure,
    DecompositionStuck,
    InvalidMove,
    InvalidParams,
    NotACycle,
    NotApplicable,
    UnrecognizedConfiguration,
)
from .moves import (
    BistellarMove,
    GammaEdgeKey,
    apply_move,
    complexity_of_key,
    edge_key,
    enumerate_moves,
    materialize_edge,
    move_from_endpoint,
    move_tau,
    sphere_complexity,
    u_set,
)
from .simplicial import OrientedComplex, Simplex
from .talgebra import Chain

# ---------------------------------------------------------------------------
# complexity stratification
# ---------------------------------------------------------------------------


def _tied(a1: Fraction, a2: Fraction) -> Fraction:
    """Complexity of a move between spheres of complexities a1 and a2."""
    return a1 + Fraction(1, 6) if a1 == a2 else max(a1, a2)


def move_complexity(move: BistellarMove) -> Fraction:
    return _tied(sphere_complexity(move.host), sphere_complexity(move.result))


def edge_complexity(key: GammaEdgeKey) -> Fraction:
    return _tied(complexity_of_key(key.tail), complexity_of_key(key.head))


def decreasing_moves(L: OrientedComplex) -> list[BistellarMove]:
    """All moves strictly decreasing the sphere complexity."""
    a = sphere_complexity(L)
    return [mv for mv in enumerate_moves(L) if sphere_complexity(mv.result) < a]


# ---------------------------------------------------------------------------
# integer/rational 1-chains on canonical edges
# ---------------------------------------------------------------------------


class Gamma2Chain(Chain):
    """Finitely supported chain on canonical move-graph edges.

    An edge and its inverse are one key with opposite signs, so the
    antisymmetry {beta^-1} = -{beta} holds by construction.
    """

    terms: dict[GammaEdgeKey, Fraction]

    def add_move(self, move: BistellarMove, coeff=1) -> "Gamma2Chain":
        se = edge_key(move)
        if se is not None:
            self.add(se.key, se.sign * Fraction(coeff))
        return self

    def boundary(self) -> dict[OKey, Fraction]:
        out = Chain()
        for k, c in self.terms.items():
            out.add(k.head, c).add(k.tail, -c)
        return out.terms

    def is_cycle(self) -> bool:
        return not self.boundary()

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def mirror(self) -> "Gamma2Chain":
        """Image under orientation reversal of all spheres."""
        out = Gamma2Chain()
        for k, c in self.terms.items():
            mv = _materialize_cached(k)
            out.add_move(BistellarMove(-mv.host, mv.sigma, mv.tau), c)
        return out

    @staticmethod
    def from_json(data: list) -> "Gamma2Chain":
        out = Gamma2Chain()
        for enc, num, den in data:
            out.add(GammaEdgeKey.decode(enc), Fraction(int(num), int(den)))
        return out


@functools.cache
def _materialize_cached(key: GammaEdgeKey) -> BistellarMove:
    return materialize_edge(key)


# ---------------------------------------------------------------------------
# the value table
# ---------------------------------------------------------------------------


def rho(p: int, q: int) -> Fraction:
    if p < 0 or q < 0:
        raise InvalidParams(f"negative sector count ({p}, {q})")
    return Fraction(q - p, (p + q + 2) * (p + q + 3) * (p + q + 4))


def omega(p: int) -> Fraction:
    if p < 0:
        raise InvalidParams(f"negative sector count {p}")
    return Fraction(1, (p + 2) * (p + 3))


_TWELFTH = Fraction(1, 12)


def c_value(kind: str, params: tuple[int, ...]) -> Fraction:
    """Exact cocycle value on an elementary cycle of the given kind."""
    if kind in ("comm-a", "comm-d", "comm-g"):
        return Fraction(0)
    if kind in ("comm-b", "comm-e", "comm-h"):
        p, q = params
        return rho(p, q)
    if kind in ("comm-c", "comm-i"):
        p, q = params
        return rho(0, q) - rho(0, p)
    if kind == "comm-f":
        p, q = params
        return rho(0, q) + rho(0, p)
    if kind == "spec-a":
        p, q, r = params
        return omega(p) - omega(q) + omega(r) - _TWELFTH
    if kind == "spec-b":
        p, q, r, k = params
        return omega(p) - omega(q) - omega(r) + omega(k)
    if kind == "spec-c":
        p, q, r, k, l = params
        return omega(p) + omega(q) + omega(r) + omega(k) + omega(l) - _TWELFTH
    raise InvalidParams(f"unknown kind {kind}")


@dataclass
class ElementaryCycle:
    """A catalogued cycle: ``<c, chain> = sign * c_value(kind, params)``."""

    kind: str
    params: tuple[int, ...]
    chain: Gamma2Chain
    sign: int

    @property
    def value(self) -> Fraction:
        return self.sign * c_value(self.kind, self.params)


# ---------------------------------------------------------------------------
# move descriptors and supports
# ---------------------------------------------------------------------------


def _support_triangles(L: OrientedComplex, sigma: Simplex, tau: Simplex) -> tuple[set, set]:
    """(triangle set, vertex set) of the move's support sigma * d(tau)."""
    tris = {f for f, _ in BistellarMove(L, sigma, tau).removed}
    return tris, set().union(*tris)


def _sector_counts(L: OrientedComplex, w: int, tris1: set, tris2: set) -> tuple[int, int]:
    """Triangle counts (p, q) in the two angular sectors at w between the
    wedges of two supports; q follows support 1 in the positive direction."""
    cycle = L.link_cycle(w)
    d = len(cycle)
    labels = []
    for i in range(d):
        tri = tuple(sorted((w, cycle[i], cycle[(i + 1) % d])))
        if tri in tris1 and tri in tris2:
            raise UnrecognizedConfiguration("supports overlap in a triangle")
        if tri in tris1:
            labels.append(1)
        elif tri in tris2:
            labels.append(2)
        else:
            labels.append(0)
    if 1 not in labels or 2 not in labels:
        raise UnrecognizedConfiguration("support wedges do not both meet the link")

    def arc_end(mark: int) -> int:
        # index just past the last edge of the (cyclically contiguous) run
        idxs = [i for i, m in enumerate(labels) if m == mark]
        if len(idxs) == d:
            raise UnrecognizedConfiguration("wedge covers the whole link")
        # find the start of the run: an index with the previous label different
        starts = [i for i in idxs if labels[(i - 1) % d] != mark]
        if len(starts) != 1:
            raise UnrecognizedConfiguration("wedge is not contiguous")
        start = starts[0]
        return (start + len(idxs)) % d

    end1, end2 = arc_end(1), arc_end(2)
    # walk from the end of wedge 1 to the start of wedge 2, counting 0-edges
    q = 0
    i = end1
    while labels[i] == 0:
        q += 1
        i = (i + 1) % d
    if labels[i] != 2:
        raise UnrecognizedConfiguration("supports interleave around the vertex")
    p = 0
    i = end2
    while labels[i] == 0:
        p += 1
        i = (i + 1) % d
    if labels[i] != 1:
        raise UnrecognizedConfiguration("supports interleave around the vertex")
    return p, q


def _classify_pair(L: OrientedComplex, m1: tuple[Simplex, Simplex], m2: tuple[Simplex, Simplex]):
    """Classify a normalized ordered pair of moves (no removals) on L.

    Returns (kind, params, sign).  The figure conventions are read with the
    positive rotation induced by the orientation of L.
    """
    (s1, t1), (s2, t2) = m1, m2
    k1, k2 = len(s1) - 1, len(s2) - 1
    if {k1, k2} - {1, 2}:
        raise UnrecognizedConfiguration("normalized pair must consist of flips/insertions")
    tris1, v1 = _support_triangles(L, s1, t1)
    tris2, v2 = _support_triangles(L, s2, t2)
    inter = v1 & v2
    if not inter:
        kind = {(2, 2): "comm-a", (2, 1): "comm-d", (1, 2): "comm-d", (1, 1): "comm-g"}[(k1, k2)]
        return kind, (), 1
    if len(inter) == 1:
        (w,) = inter
        p, q = _sector_counts(L, w, tris1, tris2)
        kind = {(2, 2): "comm-b", (2, 1): "comm-e", (1, 2): "comm-e", (1, 1): "comm-h"}[(k1, k2)]
        sign = 1
        if k1 == 1 and w in s1:
            sign = -sign
        if k2 == 1 and w in s2:
            sign = -sign
        return kind, (p, q), sign
    if len(inter) == 2:
        M = tuple(sorted(inter))
        if M not in L.complex:
            raise UnrecognizedConfiguration("two shared vertices without a shared edge")
        for s, t in (m1, m2):
            if len(s) == 2 and (M == s or M == tuple(sorted(t))):
                raise UnrecognizedConfiguration("supports share a diagonal")
        if k1 == 1 and k2 == 2:
            # pin the insertion-first order; swapping the pair negates the cycle
            kind, params, sign = _classify_pair(L, m2, m1)
            return kind, params, -sign
        # direct M so that support 1 lies on its left
        tri1 = next(t for t in tris1 if set(M) <= set(t))
        (x1,) = set(tri1) - set(M)
        t_, h_ = M
        if L.sign_of((t_, h_, x1)) != 1:
            t_, h_ = h_, t_
        union = tris1 | tris2
        n_h = sum(1 for f in L.facets if h_ in f and f not in union)
        n_t = sum(1 for f in L.facets if t_ in f and f not in union)
        if k1 == 2 and k2 == 2:
            return "comm-c", (n_h, n_t), 1
        if k1 == 2 and k2 == 1:
            sign = 1 if h_ in s2 else -1
            return "comm-f", (n_t, n_h), sign
        # two flips sharing a quad side
        sign = 1
        if t_ in s1:
            sign = -sign
        if h_ in s2:
            sign = -sign
        return "comm-i", (n_t, n_h), sign
    raise UnrecognizedConfiguration(f"supports share {len(inter)} vertices")


def _normalize_witness(L: OrientedComplex, m1, m2):
    """Re-anchor removals as insertions; returns (L, m1, m2, sign)."""
    sign = 1
    (s1, t1), (s2, t2) = m1, m2
    if len(s1) == 1:
        L = apply_move(BistellarMove(L, s1, t1))
        m1 = (t1, s1)
        sign = -sign
    if len(s2) == 1:
        L = apply_move(BistellarMove(L, s2, t2))
        m2 = (t2, s2)
        sign = -sign
    return L, m1, m2, sign


def classify_elementary(L: OrientedComplex, sigma1: Simplex, sigma2: Simplex):
    """Kind and sector parameters of the commutation cycle gamma(L, s1, s2)."""
    sigma1, sigma2 = tuple(sorted(sigma1)), tuple(sorted(sigma2))
    tau1, tau2 = move_tau(L, sigma1), move_tau(L, sigma2)
    if tau1 is None or tau2 is None:
        raise NotApplicable(f"no move at {sigma1 if tau1 is None else sigma2}")
    Ln, m1n, m2n, nsign = _normalize_witness(L, (sigma1, tau1), (sigma2, tau2))
    kind, params, csign = _classify_pair(Ln, m1n, m2n)
    return kind, params, nsign * csign


# ---------------------------------------------------------------------------
# commutation cycles (first type)
# ---------------------------------------------------------------------------


def commutation_cycle(L: OrientedComplex, sigma1, sigma2) -> ElementaryCycle:
    """The 4-move cycle commuting the moves at sigma1 and sigma2.

    Raises NotApplicable when the paper's three conditions fail, and
    ClosureFailure if the constructed chain is not a cycle.
    """
    sigma1, sigma2 = tuple(sorted(sigma1)), tuple(sorted(sigma2))
    tau1 = move_tau(L, sigma1)
    tau2 = move_tau(L, sigma2, used=tau1 or ())
    if tau1 is None or tau2 is None:
        raise NotApplicable(f"no move at {sigma1 if tau1 is None else sigma2}")
    union = tuple(sorted(set(sigma1) | set(sigma2)))
    if union in L.complex:
        raise NotApplicable("a simplex contains both sigma1 and sigma2")
    chain = Gamma2Chain()
    state = L
    plan = [(sigma1, tau1), (sigma2, tau2), (tau1, sigma1), (tau2, sigma2)]
    for s, t in plan:
        mv = BistellarMove(state, s, t)
        try:
            state = mv.result
        except InvalidMove as exc:
            raise NotApplicable(f"move at {s} is not available mid-cycle: {exc}") from exc
        chain.add_move(mv)
    if state.complex != L.complex:
        raise ClosureFailure("commutation did not return to the start complex")
    if not chain.is_cycle():
        raise ClosureFailure("commutation chain has nonzero boundary")
    kind, params, sign = classify_elementary(L, sigma1, sigma2)
    return ElementaryCycle(kind, params, chain, sign)


# ---------------------------------------------------------------------------
# special cycles (second type)
# ---------------------------------------------------------------------------


def _try_moves(state: OrientedComplex, plan) -> tuple[Gamma2Chain, OrientedComplex] | None:
    chain = Gamma2Chain()
    for s, t in plan:
        mv = BistellarMove(state, tuple(sorted(s)), tuple(sorted(t)))
        try:
            state = mv.result
        except InvalidMove:
            return None
        chain.add_move(mv)
    return chain, state


def special_cycle_a(move: BistellarMove) -> ElementaryCycle | None:
    """The 3-edge cycle (insert, flip, remove) across a flip that trades a
    degree-3 vertex for another; None if the move lacks the pattern."""
    X = move.host
    if len(move.sigma) != 2:
        return None
    sig, tau = move.sigma, move.tau
    cands = [
        (a, b)
        for a in tau
        if X.degree(a) == 3
        for b in sig
        if X.degree(b) == 4
    ]
    for a, b in cands:
        nbrs_a = {v for f in X.facets if a in f for v in f} - {a}
        if not set(sig) <= nbrs_a:
            continue
        (T,) = nbrs_a - set(sig)
        Lap = next(v for v in tau if v != a)
        Rv = next(v for v in sig if v != b)
        link_tri = tuple(sorted((b, Rv, T)))
        # T-sphere: remove a from X
        got = _try_moves(X, [((a,), link_tri)])
        if got is None:
            continue
        _, Tsphere = got
        built = _try_moves(Tsphere, [(link_tri, (a,)), (sig, tau), ((b,), tuple(sorted((Lap, a, T))))])
        if built is None:
            continue
        chain, end = built
        if not chain.is_cycle():
            continue
        patch = [
            tuple(sorted(t))
            for t in ((Lap, b, T), (b, a, T), (a, Rv, T), (Lap, b, Rv), (b, a, Rv))
        ]
        if any(t not in X.complex for t in patch):
            continue

        def out(v):
            return X.degree(v) - sum(1 for t in patch if v in t)

        params = (out(Lap), out(T), out(Rv))
        s_or = X.sign_of((b, a, T))
        return ElementaryCycle("spec-a", params, chain, s_or)
    return None


def special_cycle_b(R: OrientedComplex, e: int, D: int, C: int) -> ElementaryCycle | None:
    """The 5-edge cycle through removing a degree-4 vertex e; kills the pair
    of flips at {e,D} and {e,C} for adjacent link corners D, C."""
    if R.degree(e) != 4:
        return None
    cycle = R.link_cycle(e)
    if D not in cycle or C not in cycle:
        return None
    i = cycle.index(D)
    d = len(cycle)
    if cycle[(i + 1) % d] == C:
        A = cycle[(i - 1) % d]
        B = cycle[(i + 2) % d]
    elif cycle[(i - 1) % d] == C:
        A = cycle[(i + 1) % d]
        B = cycle[(i - 2) % d]
    else:
        return None  # not adjacent corners
    # states: R --flip {e,D}->{A,C}--> TM --remove e--> TL; then forward
    got = _try_moves(R, [((e, D), (A, C)), ((e,), (A, B, C))])
    if got is None:
        return None
    _, TL = got
    built = _try_moves(
        TL,
        [
            ((A, B, C), (e,)),
            ((A, C), (D, e)),
            ((e, C), (B, D)),
            ((e,), (A, B, D)),
            ((B, D), (A, C)),
        ],
    )
    if built is None:
        return None
    chain, end = built
    if end.complex != TL.complex or not chain.is_cycle():
        return None
    around = {tuple(sorted((e, cycle[j], cycle[(j + 1) % d]))) for j in range(d)}

    def out(v):
        return R.degree(v) - sum(1 for t in around if v in t)

    params = (out(A), out(D), out(C), out(B))
    # orientation read on the state TM where {A,B,e} is a facet; it already
    # is one in R (a triangle around e), with the same sign
    s_or = R.sign_of((A, B, e))
    return ElementaryCycle("spec-b", params, chain, s_or)


def special_cycle_c(L: OrientedComplex, sigma1: Simplex, sigma2: Simplex) -> ElementaryCycle | None:
    """The pentagon 5-flip cycle; kills the pair of fan diagonals sigma1 =
    {A,D}, sigma2 = {A,C} sharing the apex A."""
    s1, s2 = set(sigma1), set(sigma2)
    if len(s1) != 2 or len(s2) != 2 or len(s1 & s2) != 1:
        return None
    (A,) = s1 & s2
    (Dv,) = s1 - {A}
    (Cv,) = s2 - {A}
    tau1, tau2 = move_tau(L, tuple(sorted(sigma1))), move_tau(L, tuple(sorted(sigma2)))
    if tau1 is None or tau2 is None or Cv not in tau1 or Dv not in tau2:
        return None
    (E,) = set(tau1) - {Cv}
    (B,) = set(tau2) - {Dv}
    if len({A, B, Cv, Dv, E}) != 5:
        return None
    built = _try_moves(
        L,
        [
            ((A, Dv), (E, Cv)),
            ((A, Cv), (E, B)),
            ((E, Cv), (Dv, B)),
            ((E, B), (A, Dv)),
            ((Dv, B), (A, Cv)),
        ],
    )
    if built is None:
        return None
    chain, end = built
    if end.complex != L.complex or not chain.is_cycle():
        return None
    fan = [tuple(sorted(t)) for t in ((A, B, Cv), (A, Cv, Dv), (A, Dv, E))]
    if any(t not in L.complex for t in fan):
        return None

    def out(v):
        return L.degree(v) - sum(1 for t in fan if v in t)

    params = (out(A), out(E), out(Dv), out(Cv), out(B))
    s_or = L.sign_of((A, B, Cv))
    return ElementaryCycle("spec-c", params, chain, s_or)


# ---------------------------------------------------------------------------
# decomposition of cycles
# ---------------------------------------------------------------------------


def _commute(L: OrientedComplex, sigma1, sigma2) -> ElementaryCycle | None:
    """The commutation cycle, or None where the catalogue does not apply."""
    try:
        return commutation_cycle(L, sigma1, sigma2)
    except (NotApplicable, ClosureFailure, UnrecognizedConfiguration):
        return None


def _top(key: GammaEdgeKey) -> str:
    """The endpoint of higher complexity, the head on ties."""
    return "head" if complexity_of_key(key.head) >= complexity_of_key(key.tail) else "tail"


def _candidates_single(key: GammaEdgeKey):
    """Elementary cycles containing the target edge, for odd strata where a
    single edge is a relative cycle (both endpoints lie strictly lower)."""
    for end in ("tail", "head"):
        mv = move_from_endpoint(key, end)
        H = mv.host
        # commute with a removal of an untouched degree-3 vertex
        touched = set(u_set(mv)) | set(mv.sigma) | set(mv.tau)
        for v in sorted(H.vertices):
            if v not in touched and H.degree(v) == 3:
                yield [_commute(H, mv.sigma, (v,))]
        # commute with a complexity-decreasing flip
        for other in decreasing_moves(H):
            if len(other.sigma) == 2 and other.sigma != mv.sigma:
                yield [_commute(H, mv.sigma, other.sigma)]
        # the special 3-edge cycle across a degree-3 trade
        yield [special_cycle_a(mv)]
        # pentagon cycles through either endpoint
        if len(mv.sigma) == 2:
            for Cv in mv.tau:
                for a in mv.sigma:
                    yield [special_cycle_c(H, mv.sigma, tuple(sorted((a, Cv))))]


def _candidates_paired(key: GammaEdgeKey, partners: list[GammaEdgeKey]):
    """Elementary cycles pairing the target edge with each partner sharing
    its top endpoint; then, for each partner, the two commutations of the
    route through a third, complexity-decreasing move from that sphere."""
    mt = move_from_endpoint(key, _top(key))
    S = mt.host
    for kp in partners:
        mp = move_from_endpoint(kp, _top(kp))
        yield [_commute(S, mt.sigma, mp.sigma)]
        yield [_commute(S, mp.sigma, mt.sigma)]
        # pair of removals is covered by commutation; flips at a common
        # degree-4 vertex need the special 5-edge cycle
        if len(mt.sigma) == 2 and len(mp.sigma) == 2:
            common = set(mt.sigma) & set(mp.sigma)
            if len(common) == 1:
                (e,) = common
                if S.degree(e) == 4:
                    (P,) = set(mt.sigma) - {e}
                    (Q,) = set(mp.sigma) - {e}
                    yield [special_cycle_b(S, e, P, Q)]
                    yield [special_cycle_b(S, e, Q, P)]
                yield [special_cycle_c(S, mt.sigma, mp.sigma)]
                yield [special_cycle_c(S, mp.sigma, mt.sigma)]
    inter = [m for m in decreasing_moves(S) if m.sigma != mt.sigma]
    for kp in partners:
        mp = move_from_endpoint(kp, _top(kp))
        for m3 in inter:
            if m3.sigma != mp.sigma:
                first = _commute(S, mt.sigma, m3.sigma)
                if first is not None:
                    yield [first, _commute(S, m3.sigma, mp.sigma)]


def _accept(work: Gamma2Chain, top: Fraction, key: GammaEdgeKey, chain: Gamma2Chain) -> Fraction | None:
    """The scale s that kills ``key`` in ``work - s*chain``, if that lowers
    the (max complexity, weight there) measure of ``work``; else None.

    Only the edges of ``chain`` move the measure: one above ``top`` raises
    the maximum (s is nonzero), and otherwise the weight at ``top`` changes
    by the sum below, a weight of 0 meaning the maximum drops.
    """
    ce = chain.coeff(key)
    if abs(ce) != 1:
        return None
    s = work.coeff(key) / ce
    delta = Fraction(0)
    for e, g in chain.terms.items():
        c = edge_complexity(e)
        if c > top:
            return None
        if c == top:
            w = work.coeff(e)
            delta += abs(w - s * g) - abs(w)
    return s if delta < 0 else None


def decompose_cycle(zeta: Gamma2Chain, order_seed: int | None = None) -> list[tuple[int, ElementaryCycle]]:
    """Decompose an integral cycle into elementary cycles, exactly.

    The residual is verified to be zero by chain arithmetic; a failure to
    find an applicable catalogued cycle raises DecompositionStuck with the
    residual attached.  ``order_seed`` permutes the tie-breaking order of
    targets and partners; the well-definedness of the cocycle value across
    orders is a correctness check, not an assumption.
    """
    import random

    if not zeta.is_cycle():
        raise NotACycle("decompose_cycle requires a cycle")
    if not zeta.is_integral():
        raise NotACycle("decompose_cycle requires integer coefficients")
    rng = random.Random(order_seed) if order_seed is not None else None
    work = Gamma2Chain(dict(zeta.terms))
    out: list[tuple[int, ElementaryCycle]] = []
    while work:
        cx = {k: edge_complexity(k) for k in work.terms}
        top = max(cx.values())
        top_edges = sorted((k for k, c in cx.items() if c == top), key=lambda k: k.encode())
        if rng is not None:
            rng.shuffle(top_edges)
        key = top_edges[0]
        if int(6 * top) % 2:
            candidates = _candidates_single(key)
        else:
            anchor = getattr(key, _top(key))
            partners = [k for k in top_edges if k != key and getattr(k, _top(k)) == anchor]
            candidates = _candidates_paired(key, partners)
        for pieces in candidates:
            if None in pieces:
                continue
            chain = pieces[0].chain
            for g in pieces[1:]:
                chain = chain.plus(g.chain)
            scale = _accept(work, top, key, chain)
            if scale is not None:
                break
        else:
            raise DecompositionStuck(
                f"no catalogued cycle applies to edge at complexity {top}", residual=work
            )
        for g in pieces:
            work = work.plus(g.chain, -scale)
            out.append((int(scale), g))
    # exact verification
    total = Gamma2Chain()
    for n, g in out:
        total = total.plus(g.chain, n)
    if total != zeta:
        raise DecompositionStuck("decomposition does not reproduce the cycle", residual=zeta)
    return out


def c_of_cycle(zeta: Gamma2Chain) -> Fraction:
    """Evaluate the catalogued cocycle on a (rational) cycle by decomposing
    an integer multiple and scaling back."""
    if not zeta.is_cycle():
        raise NotACycle("c is defined on cycles only")
    if not zeta.terms:
        return Fraction(0)
    den = 1
    for v in zeta.terms.values():
        den = math.lcm(den, v.denominator)
    parts = decompose_cycle(zeta.scaled(den))
    total = sum((n * g.value for n, g in parts), Fraction(0))
    return total / den
