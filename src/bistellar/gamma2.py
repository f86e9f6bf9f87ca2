"""The move graph of oriented 2-spheres: cycles, their classification, and
the rational cocycle determined by the catalogued elementary-cycle values.

Complexity of a 2-sphere with k vertices is k, k+1/3 or k+2/3 according to
whether the minimal vertex degree is 3, 4 or at least 5 (the rule and the
moves that lower or raise it live in :mod:`bistellar.moves`, which orders
the endpoints of move-graph edges by it); the complexity of a move is the
larger endpoint complexity, plus 1/6 when they tie.  Every integer cycle in
the move graph decomposes into "elementary" cycles of two kinds:

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
measure, read off gamma's edges alone (``_accept``).  The peeling loop
keeps the integer work chain in strata keyed by six times the complexity,
read with each edge's sort key from one table per edge (``_edge_order``);
commutation cycles are memoized per (host, sigma1, sigma2) (``_commute``).
A target edge with both endpoints lower (odd strata) tries commutations
with untouched degree-3 removals and decreasing flips, spec-a and the
pentagons; otherwise it is paired with each edge sharing its head (the
endpoint of higher complexity): commutation, spec-b, pentagon, then routes
through a decreasing move, first by two commutations and last by any two
of those paired cycles.  Each pair is tried in one order only, as the
swapped pair walks the same loop backwards (chain -g, value -v).  The
target is the least top edge in ``_edge_order``.

Moves read what they need from the objects that own it: a vertex degree
from the cached ``Complex.degrees``, the support of a move (the triangles
of sigma * d(tau)) from ``BistellarMove.removed``, and a move's endpoint
from ``BistellarMove.result``; face tests use ``facets_containing`` or the
facet signs.  One walker, ``_carried_walk``, takes the moves of every
elementary cycle on class representatives (``moves.carry``) and builds no
state but the first; a commutation cycle is classified on the
representative of a state of its own walk.  Walks close by construction: a
move (sigma, tau) toggles the triangles of d(sigma + tau), which cancel in
pairs on a commutation walk and in d(d Delta^4) on a spec-b or pentagon
loop; an untouched facet, found from 7 or 8 vertices on, keeps its sign.
So a walk's closing step, and a commutation's third step (ending at L.m2),
end at a state the walk holds, and their moves take its class by transport.
"""

from __future__ import annotations

import functools
import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

from .canonical import OKey, designated_labelings, okey
from .errors import (
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
    carry,
    complexity_of_key,
    complexity_thirds,
    decreasing_moves,
    materialize_edge,
    move_from_endpoint,
    move_tau,
)
from .simplicial import OrientedComplex, Simplex
from .talgebra import Chain

# ---------------------------------------------------------------------------
# complexity stratification
# ---------------------------------------------------------------------------


def _tied(a1: int, a2: int) -> int:
    """Six times the complexity of a move between spheres of complexities
    a1/3 and a2/3: the larger one, plus 1/6 when they tie."""
    return 2 * max(a1, a2) + (a1 == a2)


def move_complexity(move: BistellarMove) -> Fraction:
    a1, a2 = (complexity_thirds(d.values()) for d in (move.host.degrees, move.result_degrees()))
    return Fraction(_tied(a1, a2), 6)


def edge_complexity(key: GammaEdgeKey) -> Fraction:
    return Fraction(_edge_order(key)[0], 6)


@functools.cache
def _edge_order(key: GammaEdgeKey) -> tuple[int, str]:
    """Six times the complexity of an edge, then its ``encode()``: the order
    in which the decomposition peels edges."""
    return _tied(complexity_of_key(key.tail), complexity_of_key(key.head)), key.encode()


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
        se = move.edge
        if se is not None:
            self.add(se.key, se.sign * coeff)
        return self

    def boundary(self) -> dict[OKey, Fraction]:
        out: dict[OKey, Fraction] = {}
        for k, c in self.terms.items():
            out[k.head] = out.get(k.head, 0) + c
            out[k.tail] = out.get(k.tail, 0) - c
        return {v: c for v, c in out.items() if c}

    def is_cycle(self) -> bool:
        return not self.boundary()

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def mirror(self) -> "Gamma2Chain":
        """Image under orientation reversal of all spheres: each edge's move on
        the negated tail representative, carried onto the mirror class's, by
        transport when the head is chiral (-result keeps its labelling).  The
        representative move keeps the mirrored move, as it keeps its inverse."""
        out = Gamma2Chain()
        for k, c in self.terms.items():
            mv = materialize_edge(k)
            if "mirror" not in vars(mv):
                lab = designated_labelings(-mv.host)[0]
                end = (k.head.mirror(), mv.result_class[1]) if k.head.sign else None
                vars(mv)["mirror"] = carry(k.tail.mirror(), lab, mv.sigma, mv.tau, end)[0]
            out.add_move(vars(mv)["mirror"], c)
        return out

    @staticmethod
    def from_json(data: list) -> "Gamma2Chain":
        out = Gamma2Chain()
        for enc, num, den in data:
            out.add(GammaEdgeKey.decode(enc), Fraction(int(num), int(den)))
        return out


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


class ElementaryCycle(NamedTuple):
    """A catalogued cycle: ``<c, chain> = sign * c_value(kind, params)``."""

    kind: str
    params: tuple[int, ...]
    chain: Gamma2Chain
    sign: int

    @property
    def value(self) -> Fraction:
        return self.sign * c_value(self.kind, self.params)


# ---------------------------------------------------------------------------
# walks, supports and sector counts
# ---------------------------------------------------------------------------


def _carried_walk(L: OrientedComplex, plan, ends: dict) -> tuple[list[BistellarMove], list[tuple[OKey, dict]]] | None:
    """The ``moves.carry`` images of the (sigma, tau) pairs of ``plan`` taken
    in turn from L, and each state's class and labelling; None when a move
    is not available.  ``ends`` maps the index of a step whose end the walk
    knows to the pairs that carry the start there; that step's move gets its
    result class by transport from that state."""
    state = okey(L), designated_labelings(L)[0]
    moves, states = [], [state]
    for i, (s, t) in enumerate(plan):
        try:
            end = states[0] if i in ends else None
            for pair in ends.get(i, ()):
                end = carry(*end, *pair)[1]
            mv, state = carry(*state, s, t, end)
        except InvalidMove:
            return None
        moves.append(mv)
        states.append(state)
    return moves, states


def _chain(moves: list[BistellarMove]) -> Gamma2Chain:
    """The sum of the Gamma_2 edges of a walk's representative moves."""
    out = Gamma2Chain()
    for mv in moves:
        out.add_move(mv)
    return out


def _outside(L: OrientedComplex, v: int, patch) -> int:
    """The number of triangles of L at v outside ``patch`` (distinct triangles of L)."""
    return L.degree(v) - sum(1 for t in patch if v in t)


def _sector_counts(L: OrientedComplex, w: int, tris1: set, tris2: set) -> tuple[int, int]:
    """Triangle counts (p, q) in the two angular sectors at w between the
    wedges of two supports; q follows support 1 in the positive direction.
    From the start of wedge 1, the marks around w read 1+ 0^q 2+ 0^p."""
    cycle = L.link_cycle(w)
    marks = ""
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        tri = tuple(sorted((w, a, b)))
        if tri in tris1 and tri in tris2:
            raise UnrecognizedConfiguration("supports overlap in a triangle")
        marks += "1" if tri in tris1 else "2" if tri in tris2 else "0"
    if "1" not in marks or "2" not in marks:
        raise UnrecognizedConfiguration("support wedges do not both meet the link")
    i = next(i for i, m in enumerate(marks) if m == "1" and marks[i - 1] != "1")
    wedges = re.fullmatch(r"1+(0*)2+(0*)", marks[i:] + marks[:i])
    if wedges is None:
        raise UnrecognizedConfiguration("support wedges are not two arcs in turn around the vertex")
    q, p = map(len, wedges.groups())
    return p, q


def _classify_pair(L: OrientedComplex, m1: tuple, m2: tuple):
    """Classify an ordered pair of moves (no removals) on L, each given as
    (sigma, tau, support star).

    Returns (kind, params, sign).  The figure conventions are read with the
    positive rotation induced by the orientation of L.
    """
    (s1, t1, st1), (s2, t2, st2) = m1, m2
    k1, k2 = len(s1) - 1, len(s2) - 1
    if {k1, k2} - {1, 2}:
        raise UnrecognizedConfiguration("normalized pair must consist of flips/insertions")
    tris1, tris2 = {f for f, _ in st1}, {f for f, _ in st2}
    inter = set().union(*tris1) & set().union(*tris2)
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
        if not L.facets_containing(M):
            raise UnrecognizedConfiguration("two shared vertices without a shared edge")
        for s, t, _ in (m1, m2):
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
        n_h, n_t = _outside(L, h_, union), _outside(L, t_, union)
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


# ---------------------------------------------------------------------------
# commutation cycles (first type)
# ---------------------------------------------------------------------------


def commutation_cycle(L: OrientedComplex, sigma1, sigma2) -> ElementaryCycle:
    """The 4-move cycle commuting the moves at sigma1 and sigma2.

    It is classified on its walk, which visits L, L.m1, L.m1.m2 and L.m2: a
    removal is re-anchored as the insertion undoing it, which negates the
    sign.  Raises NotApplicable when the paper's three conditions fail.  The
    walk closes into a cycle (module docstring; tested below 7 vertices).
    """
    sigma1, sigma2 = tuple(sorted(sigma1)), tuple(sorted(sigma2))
    tau1 = move_tau(L, sigma1)
    tau2 = move_tau(L, sigma2, used=tau1 or ())
    if tau1 is None or tau2 is None:
        raise NotApplicable(f"no move at {sigma1 if tau1 is None else sigma2}")
    union = tuple(sorted(set(sigma1) | set(sigma2)))
    if L.facets_containing(union):
        raise NotApplicable("a simplex contains both sigma1 and sigma2")
    plan = [(sigma1, tau1), (sigma2, tau2), (tau1, sigma1), (tau2, sigma2)]
    got = _carried_walk(L, plan, {2: [(sigma2, tau2)], 3: []})
    if got is None:
        raise NotApplicable(f"the moves at {sigma1} and {sigma2} are not available in turn")
    moves, states = got
    # classify on the representative of the state past the removals and before
    # the insertions, a removal re-anchored as the insertion undoing it; a
    # vertex the state lacks gets an id past the representative's 0 .. n-1
    r1, r2 = len(sigma1) == 1, len(sigma2) == 1
    i = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}[r1, r2]
    host, lab = moves[i].host, dict(states[i][1])
    pairs = [(t, s) if r else (s, t) for s, t, r in ((sigma1, tau1, r1), (sigma2, tau2, r2))]
    for x in sorted(set().union(*pairs[0], *pairs[1]) - lab.keys()):
        lab[x] = len(lab)
    on_rep = [[tuple(sorted(lab[x] for x in m)) for m in p] for p in pairs]
    kind, params, sign = _classify_pair(host, *[(s, t, BistellarMove(host, s, t).removed) for s, t in on_rep])
    return ElementaryCycle(kind, params, _chain(moves), (-1) ** (r1 + r2) * sign)


def classify_elementary(L: OrientedComplex, sigma1: Simplex, sigma2: Simplex):
    """Kind, sector parameters and sign of the commutation cycle
    gamma(L, s1, s2); raises as ``commutation_cycle`` does."""
    g = commutation_cycle(L, sigma1, sigma2)
    return g.kind, g.params, g.sign


# ---------------------------------------------------------------------------
# special cycles (second type)
# ---------------------------------------------------------------------------


def special_cycle_a(move: BistellarMove) -> ElementaryCycle | None:
    """The 3-edge cycle (insert, flip, remove) across a flip {b, Rv} ->
    {a, Lap} of X with deg a = 3 and deg b = 4; None for any other move.
    Then a's link is b-Rv-T and b's is Rv-a-T-Lap, so the walk is available,
    and it closes: swapping a and b maps X - a onto X' - b."""
    X = move.host
    sig, tau = move.sigma, move.tau
    a = next((a for a in tau if X.degree(a) == 3), None)
    b = next((b for b in sig if X.degree(b) == 4), None)
    if a is None or b is None:
        return None
    (T,) = {v for f in X.facets_containing((a,)) for v in f} - {a, *sig}
    Lap = next(v for v in tau if v != a)
    Rv = next(v for v in sig if v != b)
    link_tri = tuple(sorted((b, Rv, T)))
    # remove a from X, then walk the cycle from that T-sphere
    moves, _ = _carried_walk(X, [((a,), link_tri), (link_tri, (a,)), (sig, tau), ((b,), (Lap, a, T))], {})
    # the links of a and b make these facets
    patch = [tuple(sorted(t)) for t in ((Lap, b, T), (b, a, T), (a, Rv, T), (Lap, b, Rv), (b, a, Rv))]
    params = tuple(_outside(X, v, patch) for v in (Lap, T, Rv))
    return ElementaryCycle("spec-a", params, _chain(moves[1:]), X.sign_of((b, a, T)))


def special_cycle_b(R: OrientedComplex, e: int, D: int, C: int) -> ElementaryCycle | None:
    """The 5-edge cycle through removing a degree-4 vertex e; kills the pair
    of flips at {e,D} and {e,C} for adjacent link corners D, C.  e must have
    degree 4 and D, C be its neighbours; None when D, C are not adjacent or
    the walk is unavailable.  Its last five moves close (module docstring)."""
    cycle = R.link_cycle(e)
    i, d = cycle.index(D), len(cycle)
    if C not in (cycle[i - 1], cycle[(i + 1) % d]):
        return None  # not adjacent corners
    A = cycle[(i + 1) % d] if C == cycle[i - 1] else cycle[i - 1]
    B = cycle[i - 2]  # the corner opposite D, as d = 4
    # states: R --flip {e,D}->{A,C}--> TM --remove e--> TL; then the cycle from TL
    plan = [((e, D), (A, C)), ((e,), (A, B, C)), ((A, B, C), (e,)), ((A, C), (D, e))]
    plan += [((e, C), (B, D)), ((e,), (A, B, D)), ((B, D), (A, C))]
    got = _carried_walk(R, plan, {6: plan[:2]})
    if got is None:
        return None
    around = {tuple(sorted((e, cycle[j], cycle[(j + 1) % d]))) for j in range(d)}
    params = tuple(_outside(R, v, around) for v in (A, D, C, B))
    # orientation read on the state TM where {A,B,e} is a facet; it already
    # is one in R (a triangle around e), with the same sign
    s_or = R.sign_of((A, B, e))
    return ElementaryCycle("spec-b", params, _chain(got[0][2:]), s_or)


def special_cycle_c(L: OrientedComplex, sigma1: Simplex, sigma2: Simplex) -> ElementaryCycle | None:
    """The pentagon 5-flip cycle; kills the pair of fan diagonals sigma1 =
    {A,D}, sigma2 = {A,C}, two edges that must share just the apex A.  None
    when the flips or the walk are unavailable; it closes by construction."""
    (A,) = set(sigma1) & set(sigma2)
    (Dv,) = set(sigma1) - {A}
    (Cv,) = set(sigma2) - {A}
    tau1, tau2 = move_tau(L, tuple(sorted(sigma1))), move_tau(L, tuple(sorted(sigma2)))
    if tau1 is None or tau2 is None or Cv not in tau1 or Dv not in tau2:
        return None
    (E,) = set(tau1) - {Cv}
    (B,) = set(tau2) - {Dv}  # not E: A's link would be C-D-E, and tau1 a face
    plan = [((A, Dv), (E, Cv)), ((A, Cv), (E, B)), ((E, Cv), (Dv, B)), ((E, B), (A, Dv)), ((Dv, B), (A, Cv))]
    got = _carried_walk(L, plan, {4: []})
    if got is None:
        return None
    # the two taus checked above make (A, Cv, Dv), (A, Dv, E) and (A, Cv, B) facets
    fan = [tuple(sorted(t)) for t in ((A, B, Cv), (A, Cv, Dv), (A, Dv, E))]
    params = tuple(_outside(L, v, fan) for v in (A, E, Dv, Cv, B))
    s_or = L.sign_of((A, B, Cv))
    return ElementaryCycle("spec-c", params, _chain(got[0]), s_or)


# ---------------------------------------------------------------------------
# decomposition of cycles
# ---------------------------------------------------------------------------


@functools.cache
def _commute(L: OrientedComplex, sigma1, sigma2) -> ElementaryCycle | None:
    """The commutation cycle, or None where the catalogue does not apply.

    Memoized on the value of the host (a materialized representative), so
    the same cycle serves every target that asks for it; no caller mutates
    its chain.
    """
    try:
        return commutation_cycle(L, sigma1, sigma2)
    except (NotApplicable, UnrecognizedConfiguration):
        return None


def _candidates_single(key: GammaEdgeKey):
    """Elementary cycles containing the target edge, for odd strata where a
    single edge is a relative cycle (both endpoints lie strictly lower)."""
    for end in ("tail", "head"):
        mv = move_from_endpoint(key, end)
        H = mv.host
        # commute with a removal of an untouched degree-3 vertex
        touched = set(mv.sigma + mv.tau)
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


def _legs(S: OrientedComplex, s1: Simplex, s2: Simplex):
    """The elementary cycles on S that leave by the move at s1 and return by
    the move at s2 (chain {s1} - {s2} on S's side): their commutation, then
    for two flips sharing one vertex e, spec-b when e has degree 4, built
    from s2's side as its walk returns by its first flip, and the pentagon.
    Each may be None."""
    yield _commute(S, s1, s2)
    common = set(s1) & set(s2)
    if len(s1) == len(s2) == 2 and len(common) == 1:
        (e,) = common
        if S.degree(e) == 4:
            (P,), (Q,) = set(s1) - common, set(s2) - common
            yield special_cycle_b(S, e, Q, P)
        yield special_cycle_c(S, s1, s2)


def _candidates_paired(key: GammaEdgeKey, partners: list[GammaEdgeKey]):
    """Elementary cycles pairing the target edge with each partner sharing
    its head; then, for each partner, the two commutations of the route
    through a third, complexity-decreasing move from that sphere; last, the
    same routes with any two legs (``_legs``).  A route's legs cancel the
    third move's edge, so it peels the pair as one cycle would.  The last
    routes decompose a square of flips at opposite corners of a degree-4
    vertex, which no single cycle and no pair of commutations kills."""
    mt = move_from_endpoint(key, "head")
    S = mt.host
    for kp in partners:
        mp = move_from_endpoint(kp, "head")
        yield [_commute(S, mt.sigma, mp.sigma)]
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
                yield [special_cycle_c(S, mt.sigma, mp.sigma)]
    inter = [m for m in decreasing_moves(S) if m.sigma != mt.sigma]
    for kp in partners:
        mp = move_from_endpoint(kp, "head")
        for m3 in inter:
            if m3.sigma != mp.sigma:
                first = _commute(S, mt.sigma, m3.sigma)
                if first is not None:
                    yield [first, _commute(S, m3.sigma, mp.sigma)]
    for kp in partners:
        mp = move_from_endpoint(kp, "head")
        for m3 in inter:
            if m3.sigma != mp.sigma:
                for i, first in enumerate(_legs(S, mt.sigma, m3.sigma)):
                    for j, second in enumerate(_legs(S, m3.sigma, mp.sigma)):
                        if i or j:  # two commutations were tried above
                            yield [first, second]


def _accept(work: dict, top: int, key: GammaEdgeKey, chain: Gamma2Chain) -> int | None:
    """The scale s that kills ``key`` in ``work - s*chain``, if that lowers
    the (max complexity, weight there) measure of ``work``; else None.

    ``work`` holds at least the edges at ``top``, six times the top
    complexity of the work chain.  Only the edges of ``chain`` move the
    measure: one above ``top`` raises the maximum (s is nonzero), and
    otherwise the weight at ``top`` changes by the sum below.
    """
    ce = chain.coeff(key)
    if abs(ce) != 1:
        return None
    s = work.get(key, 0) * ce
    delta = 0
    for e, g in chain.terms.items():
        c = _edge_order(e)[0]
        if c > top:
            return None
        if c == top:
            w = work.get(e, 0)
            delta += abs(w - s * g) - abs(w)
    return s if delta < 0 else None


def _target(strata: dict[int, dict], rng: random.Random | None) -> tuple[int, GammaEdgeKey, list[GammaEdgeKey]]:
    """Six times the top complexity of a stratified work chain, the edge to
    peel there, and on an even stratum its partners, the other top edges
    with its head.  Without ``rng`` the edge is the least in ``_edge_order``
    and only its partners are sorted; with it, the first of the top edges
    in that order shuffled by ``rng``, and the partners keep that order."""
    top = max(strata)
    if rng is None:
        key = min(strata[top], key=_edge_order)
        edges = sorted((k for k in strata[top] if k.head == key.head), key=_edge_order)
    else:
        edges = sorted(strata[top], key=_edge_order)
        rng.shuffle(edges)
        key = edges[0]
    return top, key, [] if top % 2 else [k for k in edges if k != key and k.head == key.head]


def decompose_cycle(zeta: Gamma2Chain, order_seed: int | None = None) -> list[tuple[int, ElementaryCycle]]:
    """Decompose an integral cycle into elementary cycles, exactly.

    The residual is verified to be zero by chain arithmetic; a failure to
    find an applicable catalogued cycle raises DecompositionStuck with the
    residual attached.  ``order_seed`` permutes the tie-breaking order of
    targets and partners; the well-definedness of the cocycle value across
    orders is a correctness check, not an assumption.
    """
    if not zeta.is_cycle():
        raise NotACycle("decompose_cycle requires a cycle")
    if not zeta.is_integral():
        raise NotACycle("decompose_cycle requires integer coefficients")
    rng = random.Random(order_seed) if order_seed is not None else None
    # the work chain, split by six times the complexity of its edges
    strata: dict[int, dict[GammaEdgeKey, int]] = {}
    for k, v in zeta.terms.items():
        strata.setdefault(_edge_order(k)[0], {})[k] = int(v)
    out: list[tuple[int, ElementaryCycle]] = []
    while strata:
        top, key, partners = _target(strata, rng)
        candidates = _candidates_single(key) if top % 2 else _candidates_paired(key, partners)
        for pieces in candidates:
            if None in pieces:
                continue
            chain = pieces[0].chain
            for g in pieces[1:]:
                chain = chain.plus(g.chain)
            scale = _accept(strata[top], top, key, chain)
            if scale is not None:
                break
        else:
            residual = Gamma2Chain({k: v for st in strata.values() for k, v in st.items()})
            raise DecompositionStuck(
                f"no catalogued cycle applies to edge at complexity {Fraction(top, 6)}", residual=residual
            )
        for g in pieces:
            for k, v in g.chain.terms.items():
                st = strata.setdefault(_edge_order(k)[0], {})
                st[k] = st.get(k, 0) - scale * v
                if not st[k]:
                    del st[k]
            out.append((int(scale), g))
        strata = {c: st for c, st in strata.items() if st}
    # exact verification
    total = Gamma2Chain()
    for n, g in out:
        total.iadd(g.chain, n)
    if total != zeta:
        raise DecompositionStuck("decomposition does not reproduce the cycle", residual=zeta)
    return out


def c_of_cycle(zeta: Gamma2Chain) -> Fraction:
    """Evaluate the catalogued cocycle on a rational cycle by decomposing an
    integer multiple and scaling back.  ``decompose_cycle`` raises NotACycle
    on a chain that is no cycle; the zero chain has no pieces, value 0."""
    den = math.lcm(*(v.denominator for v in zeta.terms.values()))
    parts = decompose_cycle(zeta.scaled(den))
    return sum((n * g.value for n, g in parts), Fraction(0)) / den
