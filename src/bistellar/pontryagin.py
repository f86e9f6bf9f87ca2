"""The first rational Pontryagin class from a triangulation.

The pipeline evaluates the catalogued cocycle on cycles built from
reduction sequences:

* ``xi_chain``: for every oriented 2-sphere class a rational 1-chain in the
  move graph with boundary {L} - {boundary of the tetrahedron}, defined by
  averaging over all complexity-decreasing moves;
* ``h_value``: the cocycle representative h({beta}) = <c, {beta} + xi_tail
  - xi_head>;
* ``local_f``: the universal local formula on oriented 3-sphere classes,
  via a reduction sequence from the 4-simplex boundary, its induced vertex
  moves, and the xi-corrections of the vertex links;
* ``p1_dual_local`` / ``p1_dual_direct``: the Poincare-dual cycle of the
  first Pontryagin class, by the local formula or by the per-simplex
  procedure that skips the xi recursion;
* ``sw_duals`` lives in :mod:`bistellar.sw` as the mod-2 companion.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction

from .canonical import OKey, materialize, okey
from .errors import DimensionTooSmall, InvalidMove, NotACycle, parsing
from .gamma2 import Gamma2Chain, c_of_cycle, decreasing_moves
from .moves import BistellarMove, induced_vertex_moves, is_inessential
from .reduction import MoveSequence, reduce_to_boundary, replay
from .simplicial import OrientedComplex, boundary_of_simplex, orient
from .talgebra import LocalCochain, SimplicialChain, f_sharp


class XiCache:
    """Persistent store for xi-chains and reduction certificates.

    Keys are oriented canonical class keys.  The xi-chain of a mirrored
    class is the mirror image of the stored representative's chain, so only
    one representative per unoriented class is ever computed.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.chains: dict[OKey, Gamma2Chain] = {}
        self.certs: dict[OKey, MoveSequence] = {}
        self._eta: dict[MoveSequence, Gamma2Chain] = {}
        self._red2: dict[MoveSequence, Gamma2Chain] = {}
        if path and os.path.exists(path):
            self.load(path)

    def load(self, path: str) -> None:
        with open(path) as fh, parsing(path):
            self.merge(json.load(fh))

    def merge(self, data: dict) -> None:
        """Add the entries of ``data`` (the JSON form ``save`` writes) that
        this cache lacks."""
        for enc, chain in data.get("xi", {}).items():
            self.chains.setdefault(OKey.decode(enc), Gamma2Chain.from_json(chain))
        for enc, cert in data.get("certificates", {}).items():
            self.certs.setdefault(OKey.decode(enc), MoveSequence.from_json(cert))

    def to_json(self) -> dict:
        return {
            "xi": {k.encode(): v.to_json() for k, v in sorted(self.chains.items(), key=lambda kv: kv[0].encode())},
            "certificates": {
                k.encode(): v.to_json() for k, v in sorted(self.certs.items(), key=lambda kv: kv[0].encode())
            },
        }

    def save(self, path: str | None = None) -> None:
        path = path or self.path
        if not path:
            return
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
        os.replace(tmp, path)

    def certificate(self, key: OKey, budget: int = 4000, seed: int = 0) -> MoveSequence:
        hit = self.certs.get(key)
        if hit is None:
            hit = reduce_to_boundary(materialize(key), budget=budget, seed=seed)
            self.certs[key] = hit
        return hit

    def eta(self, cert: MoveSequence) -> Gamma2Chain:
        """Sum of the induced vertex-move edges along a reduction certificate
        of a 3-sphere class toward the 4-simplex boundary."""
        hit = self._eta.get(cert)
        if hit is None:
            hit = Gamma2Chain()
            for mv in _cert_moves(cert):
                for _, sub in induced_vertex_moves(mv):
                    if sub is not None:
                        hit.add_move(sub)
            self._eta[cert] = hit
        return hit

    def red2(self, cert: MoveSequence) -> Gamma2Chain:
        """Edge chain of a reduction certificate of a 2-sphere class."""
        hit = self._red2.get(cert)
        if hit is None:
            hit = Gamma2Chain()
            for mv in _cert_moves(cert):
                hit.add_move(mv)
            self._red2[cert] = hit
        return hit


def _cert_moves(cert: MoveSequence) -> list[BistellarMove]:
    """The moves of a certificate, each on the state it applies to."""
    _, states = replay(cert)
    return [BistellarMove(states[i], sig, tau) for i, (sig, tau) in enumerate(cert.moves)]


@functools.cache
def _d3_key() -> OKey:
    return okey(orient(boundary_of_simplex(3)))


def xi_chain(L: OrientedComplex | OKey, cache: XiCache | None = None) -> Gamma2Chain:
    """The averaged recurrence chain with boundary {L} - {tetrahedron}.

    Grounded at the tetrahedron boundary; branches over all
    complexity-decreasing moves with equal weight.  Memoized per oriented
    class; the mirrored class gets the mirrored chain.
    """
    cache = cache if cache is not None else XiCache()
    key = L if isinstance(L, OKey) else okey(L)
    return _xi(key, cache)


def _xi(key: OKey, cache: XiCache) -> Gamma2Chain:
    hit = cache.chains.get(key)
    if hit is not None:
        return hit
    rep_key = min(key, key.mirror(), key=lambda k: k.encode())
    if rep_key != key:
        out = _xi(rep_key, cache).mirror()
    elif key == _d3_key():
        out = Gamma2Chain()
    else:
        L = materialize(key)
        moves = decreasing_moves(L)
        assert moves, "a 2-sphere above the tetrahedron always has a decreasing move"
        r = Fraction(1, len(moves))
        out = Gamma2Chain()
        for mv in moves:
            out = out.plus(_xi(okey(mv.result), cache), r).add_move(mv, -r)
    bnd = out.boundary()
    want: dict[OKey, Fraction] = {}
    if key != _d3_key():
        want = {key: Fraction(1), _d3_key(): Fraction(-1)}
    if bnd != want:
        raise NotACycle(f"xi boundary invariant failed for {key.encode()[:40]}...")
    cache.chains[key] = out
    return out


def h_value(move: BistellarMove, cache: XiCache | None = None) -> Fraction:
    """h({beta}) = <c, {beta} + xi(tail) - xi(head)> for an essential move."""
    cache = cache if cache is not None else XiCache()
    if is_inessential(move):
        raise InvalidMove("h is defined on essential moves")
    arg = Gamma2Chain().add_move(move)
    arg = arg.plus(_xi(okey(move.host), cache), 1)
    arg = arg.plus(_xi(okey(move.result), cache), -1)
    if not arg.is_cycle():
        raise NotACycle("h argument chain is not a cycle")
    return c_of_cycle(arg)


def local_f(
    L: OrientedComplex,
    budget: int = 4000,
    seed: int = 0,
    cache: XiCache | None = None,
    certificate: MoveSequence | None = None,
) -> Fraction:
    """The local formula for the first Pontryagin class on an oriented
    3-sphere class.

    A reduction sequence from the 4-simplex boundary to L contributes the
    induced vertex moves; the vertex links of L contribute xi-corrections;
    the resulting cycle is evaluated against the catalogue.  The value is
    independent of the sequence found (tested, not assumed).
    """
    cache = cache if cache is not None else XiCache()
    key = okey(L)
    if certificate is None:
        certificate = cache.certificate(key, budget=budget, seed=seed)
    elif certificate.start != key:
        raise InvalidMove("certificate start does not match the sphere class")
    # the sequence toward L is the reverse of the reduction, so eta negates
    zeta = cache.eta(certificate).scaled(-1)
    rep = materialize(key)
    for v in rep.vertices:
        zeta = zeta.plus(_xi(okey(rep.link((v,))), cache), -1)
    if not zeta.is_cycle():
        raise NotACycle("local formula cycle check failed: orientation bookkeeping bug")
    return c_of_cycle(zeta)


def _local_f_worker(encoded: str, budget: int, seed: int) -> tuple[Fraction, dict]:
    cache = XiCache()
    val = local_f(materialize(OKey.decode(encoded)), budget=budget, seed=seed, cache=cache)
    return val, cache.to_json()


def _need_dim4(K: OrientedComplex) -> None:
    if K.dim < 4:
        raise DimensionTooSmall(f"the first Pontryagin class needs dimension >= 4, not {K.dim}")


def p1_dual_local(
    K: OrientedComplex,
    budget: int = 4000,
    seed: int = 0,
    cache: XiCache | None = None,
    jobs: int = 1,
) -> SimplicialChain:
    """The Poincare dual of the first rational Pontryagin class, by the
    universal local formula: f_sharp of the local cochain f = local_f, the
    degree dim-4 chain carrying f(link sigma) on each simplex sigma.  As
    f(-L) = -f(L), local_f runs once per mirror pair, on its first class in
    ``OKey.encode`` order (the +1 class when both occur).

    ``jobs`` caps concurrent workers over distinct link classes; the result
    is independent of scheduling because the arithmetic is exact and keyed
    by class.
    """
    _need_dim4(K)
    cache = cache if cache is not None else XiCache()
    keys = {okey(K.link(sig)) for sig in K.complex.faces_of_dim(K.dim - 4)}
    todo = [k for k in sorted(keys, key=OKey.encode) if k.sign == 1 or (k.sign and k.mirror() not in keys)]
    f = LocalCochain(4)
    if jobs > 1 and len(todo) > 1:
        import multiprocessing as mp

        try:
            with mp.get_context("spawn").Pool(min(jobs, len(todo))) as pool:
                tasks = [(k.encode(), budget, seed) for k in todo]
                for k, (val, saved) in zip(todo, pool.starmap(_local_f_worker, tasks)):
                    f.set(k, val)
                    cache.merge(saved)
            todo = []
        except OSError:
            pass  # no process pool here: the loop below computes every class
    for k in todo:
        f.set(k, local_f(materialize(k), budget=budget, seed=seed, cache=cache))
    chain = f_sharp(f, K)
    if not chain.is_cycle():
        raise NotACycle("the local-formula chain is not a cycle")
    return chain


def p1_number(K: OrientedComplex, budget: int = 4000, seed: int = 0, cache: XiCache | None = None) -> Fraction:
    """Evaluation of the dual class against the fundamental class of a
    connected oriented 4-manifold: the coefficient sum of the dual 0-cycle."""
    _need_dim4(K)
    if K.dim != 4:
        raise InvalidMove("the Pontryagin number needs a 4-manifold")
    return p1_dual_local(K, budget=budget, seed=seed, cache=cache).total()


def p1_dual_direct(
    K: OrientedComplex,
    budget: int = 4000,
    seed: int = 0,
    cache: XiCache | None = None,
) -> SimplicialChain:
    """The per-simplex procedure: no xi recursion.

    For each codimension-4 simplex sigma (taken with ascending orientation)
    the cycle zeta_sigma combines the induced vertex moves of a reduction
    of link(sigma) with the reduction chains of the links of the
    codimension-3 cofaces, oriented so each incidence coefficient is +1.
    """
    _need_dim4(K)
    cache = cache if cache is not None else XiCache()
    m = K.dim
    chain = SimplicialChain(K, m - 4)
    for sig in K.complex.faces_of_dim(m - 4):
        lk3 = K.link(sig)
        zeta = cache.eta(cache.certificate(okey(lk3), budget=budget, seed=seed)).scaled(-1)
        for w in lk3.vertices:
            tau = tuple(sorted(sig + (w,)))
            # orient tau so that the incidence coefficient [tau : sig] is +1
            lk2 = K.link(tau)
            if (-1) ** tau.index(w) == -1:
                lk2 = -lk2
            zeta = zeta.plus(cache.red2(cache.certificate(okey(lk2), budget=budget, seed=seed)), 1)
        if not zeta.is_cycle():
            raise NotACycle("zeta_sigma is not a cycle: incidence orientation bug")
        chain.add(sig, c_of_cycle(zeta))
    if not chain.is_cycle():
        raise NotACycle("the direct-procedure chain is not a cycle")
    return chain
