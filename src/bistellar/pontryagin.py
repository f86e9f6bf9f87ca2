"""The first rational Pontryagin class from a triangulation.

The pipeline evaluates the catalogued cocycle on cycles built from
reduction sequences:

* ``xi_chain``: for every oriented 2-sphere class a rational 1-chain in the
  move graph with boundary {L} - {boundary of the tetrahedron}, defined by
  averaging over all complexity-decreasing moves (``_descent``, whose
  other branch follows one such move per class and gives the direct
  procedure its one descent path per 2-sphere class);
* ``h_value``: the cocycle representative h({beta}) = <c, {beta} + xi_tail
  - xi_head>;
* ``local_f``: the universal local formula on oriented 3-sphere classes,
  c(zeta(L)) for the cycle zeta(L) made of the induced vertex moves of a
  reduction sequence from the 4-simplex boundary and the xi-corrections of
  the vertex links;
* ``p1_dual_local`` / ``p1_dual_direct``: the Poincare-dual cycle of the
  first Pontryagin class, f_sharp of a local cochain filled once per mirror
  pair of link classes: local_f, or for the per-simplex procedure the same
  zeta with descent paths in place of xi (``_zeta_value`` and ``_p1_dual``
  serve both);
* ``sw_duals`` lives in :mod:`bistellar.sw` as the mod-2 companion.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from .canonical import OKey, designated_labelings, materialize, okey, simplex_boundary_key
from .errors import DimensionTooSmall, InvalidMove, MalformedInput, NotACycle, SphereCheckFailed, parsing
from .gamma2 import Gamma2Chain, c_of_cycle
from .moves import BistellarMove, _rep_moves, _result_class, carry, decreasing_moves, is_inessential, rep_move
from .reduction import MoveSequence, reduce_to_boundary, replay
from .simplicial import Complex, OrientedComplex, faces
from .talgebra import LocalCochain, SimplicialChain, f_sharp


class XiCache:
    """Persistent store for xi-chains, reduction certificates and the eta
    chains of the certificates.

    Keys are oriented canonical class keys.  The xi-chain of a mirrored
    class is the mirror image of the stored representative's chain, so only
    one representative per unoriented class is ever computed; a loaded one
    is checked by ``_descent`` on its first use.  The file keeps eta under
    the class of its certificate; a loaded eta is keyed by the certificate
    read with it.  Only a loaded certificate is replayed: once, to its
    recorded end key, before it or its eta is first used, whether the file
    holds its eta or not.  A certificate this process computed is valid as
    built and is never replayed.  ``paths`` holds the descent paths of the
    direct procedure in memory only; they are not saved.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.chains: dict[OKey, Gamma2Chain] = {}
        self.certs: dict[OKey, MoveSequence] = {}
        self._eta: dict[MoveSequence, Gamma2Chain] = {}
        self._unreplayed: set[MoveSequence] = set()  # loaded certificates
        self._unchecked: set[OKey] = set()  # classes of loaded xi chains
        self.paths: dict[OKey, Gamma2Chain] = {}
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path: str) -> None:
        with open(path) as fh, parsing(path):
            self.merge(json.load(fh))

    def merge(self, data: dict) -> None:
        """Add the entries of ``data`` (the JSON form ``save`` writes) that
        this cache lacks; each certificate must start from the class it is
        filed under and end at the boundary of a simplex."""
        for enc, chain in data.get("xi", {}).items():
            key = OKey.decode(enc)
            if key not in self.chains:
                self.chains[key] = Gamma2Chain.from_json(chain)
                self._unchecked.add(key)
        certs = {enc: MoveSequence.from_json(cert) for enc, cert in data.get("certificates", {}).items()}
        for enc, cert in certs.items():
            if cert.start != OKey.decode(enc):
                raise MalformedInput(f"certificate filed under {enc[:40]}... starts from another class")
            if cert.end != simplex_boundary_key(cert.start.dim()):
                raise MalformedInput(f"certificate of {enc[:40]}... does not end at the simplex boundary")
            self.certs.setdefault(cert.start, cert)
            self._unreplayed.add(cert)
        for enc, chain in data.get("eta", {}).items():
            if enc not in certs:
                raise MalformedInput(f"eta entry {enc[:40]}... has no certificate for its class")
            if certs[enc] not in self._eta:
                self._eta[certs[enc]] = Gamma2Chain.from_json(chain)

    def to_json(self) -> dict:
        certs = sorted(self.certs.items(), key=lambda kv: kv[0].encode())
        return {
            "xi": {k.encode(): v.to_json() for k, v in sorted(self.chains.items(), key=lambda kv: kv[0].encode())},
            "certificates": {k.encode(): v.to_json() for k, v in certs},
            "eta": {k.encode(): self._eta[v].to_json() for k, v in certs if v in self._eta},
        }

    def save(self) -> None:
        if not self.path:
            return
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
        os.replace(tmp, self.path)

    def certificate(self, key: OKey, budget: int = 4000, seed: int = 0) -> MoveSequence:
        hit = self.certs.get(key)
        if hit is None:
            hit = reduce_to_boundary(materialize(key), budget=budget, seed=seed)
            self.certs[key] = hit
        return hit

    def eta(self, cert: MoveSequence) -> Gamma2Chain:
        """Sum of the induced vertex-move edges along a reduction certificate
        of a 3-sphere class toward the 4-simplex boundary, carried along the
        certificate by ``_carry_eta`` or loaded with it.  A loaded
        certificate replays first; a failed replay raises each time it is
        asked for."""
        if cert in self._unreplayed:
            replay(cert)
            self._unreplayed.discard(cert)
        hit = self._eta.get(cert)
        if hit is None:
            hit = self._eta[cert] = _carry_eta(cert)
        return hit


def _carry_eta(cert: MoveSequence) -> Gamma2Chain:
    """The edges of the induced vertex moves along a certificate, with no
    state after the start built.

    A vertex's link changes only at the moves whose U(beta) holds it, so
    when a vertex u is first used its link is still the one it had on the
    start representative or, if a facet subdivision made u, the boundary of
    that facet, oriented by the facet's sign (from the facet signs, carried
    along by the closed-form rule of ``moves``).  u then keeps the class of
    its link and a labelling of the link onto the class representative,
    carried through each move changing lk(u) by ``moves.carry``, which
    reads the move's edge off the representative.  No link is labelled
    twice.
    """
    start = materialize(cert.start)
    signs = dict(start.facet_signs)
    out = Gamma2Chain()
    links: dict[int, tuple[OKey, dict[int, int]]] = {}
    born: dict[int, OrientedComplex] = {}  # links of subdivision vertices not yet used
    for sig, tau in cert.moves:
        D = tuple(sorted(sig + tau))
        for u in D:
            if len(sig if u in sig else tau) > 1:  # u is in U(beta)
                if u not in links:
                    lk = born.pop(u) if u in born else start.link((u,))
                    links[u] = okey(lk), designated_labelings(lk)[0]
                s, t = (tuple(x for x in m if x != u) for m in (sig, tau))
                mv, links[u] = carry(*links[u], s, t)
                out.add_move(mv)
        if len(tau) == 1:  # lk(tau) is d(sigma), signed as sigma was
            lk = {f: signs[sig] * b for f, b in faces(sig)}
            born[tau[0]] = OrientedComplex(Complex(lk, _validated=True), lk, check=False)
        # the faces D - {t}, t in tau, signed c times their boundary signs in
        # D, give way to the faces D - {v}, v in sigma, signed -c times theirs
        star = list(zip(D, faces(D)))
        c = next(signs[f] * b for v, (f, b) in star if v in tau)
        for v, (f, b) in star:
            if v in tau:
                del signs[f]
            else:
                signs[f] = -c * b
        if len(sig) == 1:
            links.pop(sig[0], None)
            born.pop(sig[0], None)
    return out


def xi_chain(L: OrientedComplex | OKey, cache: XiCache | None = None) -> Gamma2Chain:
    """The averaged recurrence chain with boundary {L} - {tetrahedron}.

    Grounded at the tetrahedron boundary; branches over all
    complexity-decreasing moves with equal weight.  Memoized per oriented
    class; the mirrored class gets the mirrored chain.
    """
    cache = cache if cache is not None else XiCache()
    key = L if isinstance(L, OKey) else okey(L)
    return _descent(key, cache, average=True)


def _descent(key: OKey, cache: XiCache, average: bool) -> Gamma2Chain:
    """A chain with boundary {L} - {tetrahedron} for the 2-sphere class
    ``key``, built by descending complexity and memoized in the cache.

    ``average=True`` gives xi: the mean over every complexity-decreasing
    ``rep_move`` of the representative.  ``average=False`` gives the
    descent path of the direct procedure: it follows the representative's
    first decreasing move in ``enumerate_moves`` order, and an achiral class
    takes the mean of its path and the path's mirror, so both sides of a
    codimension-3 simplex agree.  Complexity strictly decreases at every
    step, so neither needs a budget.  A mirrored class gets the mirror of
    its representative's chain.  Its boundary holds by induction, so only a
    loaded xi-chain is tested: one with another boundary is ``MalformedInput``.
    """
    _need_dim(key.dim(), 2, "a descent to the tetrahedron")
    table, d3 = cache.chains if average else cache.paths, simplex_boundary_key(2)
    hit = table.get(key)
    if hit is not None and average and key in cache._unchecked:
        if hit.boundary() != ({} if key == d3 else {key: 1, d3: -1}):
            raise MalformedInput(f"xi entry {key.encode()[:40]}... does not bound its class")
        cache._unchecked.discard(key)
    if hit is not None:
        return hit
    rep_key = min(key, key.mirror(), key=OKey.encode)
    if rep_key != key:
        out = _descent(rep_key, cache, average).mirror()
    elif key == d3:
        out = Gamma2Chain()
    else:
        moves = [rep_move(key, mv.sigma) for mv in decreasing_moves(_rep_moves(key)[0])]
        if not moves:
            raise SphereCheckFailed(f"no complexity-decreasing move on {key.encode()[:40]}...: not a 2-sphere")
        if not average:
            moves = moves[:1]
        r = Fraction(1, len(moves))
        out = Gamma2Chain()
        for mv in moves:
            out.iadd(_descent(_result_class(key, mv)[0], cache, average), r).add_move(mv, -r)
        if not average and key.sign == 0:
            out = out.scaled(Fraction(1, 2)).plus(out.mirror(), Fraction(1, 2))
    table[key] = out
    return out


def h_value(move: BistellarMove, cache: XiCache | None = None) -> Fraction:
    """h({beta}) = <c, {beta} + xi(tail) - xi(head)> for an essential move."""
    cache = cache if cache is not None else XiCache()
    if is_inessential(move):
        raise InvalidMove("h is defined on essential moves")
    arg = Gamma2Chain().add_move(move).iadd(_descent(okey(move.host), cache, average=True))
    arg.iadd(_descent(okey(move.result), cache, average=True), -1)
    return c_of_cycle(arg)


def local_f(
    L: OrientedComplex,
    budget: int = 4000,
    seed: int = 0,
    cache: XiCache | None = None,
) -> Fraction:
    """The local formula for the first Pontryagin class on an oriented
    3-sphere class.

    A reduction sequence from the 4-simplex boundary to L contributes the
    induced vertex moves; the vertex links of L contribute xi-corrections;
    the resulting cycle is evaluated against the catalogue.  The value is
    independent of the sequence found (tested, not assumed).
    """
    _need_dim(L.dim, 3, "the local formula")
    return _zeta_value(okey(L), cache if cache is not None else XiCache(), True, budget, seed)


def _zeta_value(key: OKey, cache: XiCache, average: bool, budget: int, seed: int) -> Fraction:
    """c(zeta(L)) for the oriented 3-sphere class ``key``: minus the eta
    chain of a reduction certificate of L (the sequence toward L is the
    reverse of the reduction), minus a chain with boundary
    {lk v} - {tetrahedron} for each vertex v of the class representative,
    xi (``average=True``) or the descent path (``average=False``).  zeta is
    summed in integers, times the parts' common denominator and divided by
    its gcd with the coefficients: the cycle ``c_of_cycle`` decomposes for
    zeta.  The value is scaled back."""
    rep = materialize(key)
    parts = [cache.eta(cache.certificate(key, budget=budget, seed=seed))]
    parts += [_descent(okey(rep.link((v,))), cache, average) for v in rep.vertices]
    den = math.lcm(*(c.denominator for p in parts for c in p.terms.values()))
    zeta = Gamma2Chain()
    for p in parts:
        for k, c in p.terms.items():
            zeta.add(k, -c.numerator * (den // c.denominator))
    g = math.gcd(den, *zeta.terms.values())
    return c_of_cycle(Gamma2Chain({k: c // g for k, c in zeta.terms.items()})) / (den // g)


def _need_dim(dim: int, want: int, what: str) -> None:
    """DimensionTooSmall below ``want``, InvalidMove above it."""
    if dim != want:
        raise (DimensionTooSmall if dim < want else InvalidMove)(f"{what} needs dimension {want}, not {dim}")


def p1_dual_local(
    K: OrientedComplex, budget: int = 4000, seed: int = 0, cache: XiCache | None = None
) -> SimplicialChain:
    """The Poincare dual of the first rational Pontryagin class, by the
    universal local formula: f_sharp of the local cochain f = local_f, the
    degree dim-4 chain carrying f(link sigma) on each simplex sigma."""
    return _p1_dual(K, cache, True, budget, seed)


def p1_number(K: OrientedComplex, budget: int = 4000, seed: int = 0, cache: XiCache | None = None) -> Fraction:
    """Evaluation of the dual class against the fundamental class of a
    connected oriented 4-manifold: the coefficient sum of the dual 0-cycle."""
    _need_dim(K.dim, 4, "the Pontryagin number")
    return p1_dual_local(K, budget=budget, seed=seed, cache=cache).total()


def p1_dual_direct(
    K: OrientedComplex, budget: int = 4000, seed: int = 0, cache: XiCache | None = None
) -> SimplicialChain:
    """The per-simplex procedure: f_sharp of the local cochain built like
    local_f with descent paths (``_descent`` with ``average=False``, kept in
    ``XiCache.paths``) in place of xi.

    Writing g(M) = c(path(M) - xi(M)) for a 2-sphere class M, the direct
    value on a 3-sphere class L is local_f(L) - sum over vertices v of
    g(lk v).  Path and xi are mirror-equivariant and c is odd under
    mirroring, so the value is a function of the class, odd under
    orientation reversal and zero on achiral classes, as f_sharp needs.
    ``budget`` and ``seed`` reach only the 3-sphere reductions; the paths
    need neither.
    """
    return _p1_dual(K, cache, False, budget, seed)


def _p1_dual(K: OrientedComplex, cache: XiCache | None, average: bool, budget: int, seed: int) -> SimplicialChain:
    """f_sharp of the cochain ``_zeta_value(., average)`` on the link classes
    of the codimension-4 simplices of K.  As f(-L) = -f(L), it is evaluated
    once per mirror pair, on its first class in ``OKey.encode`` order (the
    +1 class when both occur), and never on an achiral class."""
    if K.dim < 4:
        raise DimensionTooSmall(f"the first Pontryagin class needs dimension >= 4, not {K.dim}")
    cache = cache if cache is not None else XiCache()
    keys = {okey(K.link(sig)) for sig in K.faces_of_dim(K.dim - 4)}
    todo = [k for k in sorted(keys, key=OKey.encode) if k.sign == 1 or (k.sign and k.mirror() not in keys)]
    f = LocalCochain(4)
    for k in todo:
        f.set(k, _zeta_value(k, cache, average, budget, seed))
    chain = f_sharp(f, K)
    if not chain.is_cycle():
        raise NotACycle("the p1 chain is not a cycle")
    return chain
