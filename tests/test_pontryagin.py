import random
from fractions import Fraction

import pytest

from bistellar.canonical import okey, relabel
from bistellar.errors import BudgetExhausted, DimensionTooSmall, InvalidMove
from bistellar.gamma2 import Gamma2Chain
from bistellar.library import cp2_9
from bistellar.moves import apply_move, enumerate_moves, inverse_move, materialize_edge
from bistellar.pontryagin import XiCache, h_value, local_f, p1_dual_direct, p1_dual_local, p1_number, xi_chain
from bistellar.reduction import reduce_to_boundary
from bistellar.simplicial import boundary_of_simplex, build_complex, orient
from helpers import octahedron, perturbed_cp2, random_loop_cycle, random_walk_sphere


def test_xi_tetrahedron_is_zero():
    cache = XiCache()
    assert not xi_chain(orient(boundary_of_simplex(3)), cache).terms


def test_xi_five_vertex_sphere():
    cache = XiCache()
    d3 = orient(boundary_of_simplex(3))
    K5 = apply_move(enumerate_moves(d3)[0])
    xi = xi_chain(K5, cache)
    removals = [m for m in enumerate_moves(K5) if len(m.sigma) == 1]
    assert xi == Gamma2Chain().add_move(removals[0], -1)


def test_xi_boundary_invariant():
    cache = XiCache()
    octa = octahedron()
    xi = xi_chain(octa, cache)
    b = xi.boundary()
    d3 = orient(boundary_of_simplex(3))
    assert b == {okey(octa): Fraction(1), okey(d3): Fraction(-1)}


def test_xi_mirror_equivariance():
    cache = XiCache()
    rng = random.Random(3)
    for _ in range(5):
        L = random_walk_sphere(rng, steps=rng.randrange(1, 5))
        assert xi_chain(-L, cache) == xi_chain(L, cache).mirror()


def test_h_antisymmetry():
    cache = XiCache()
    rng = random.Random(5)
    sampled = 0
    while sampled < 20:
        L = random_walk_sphere(rng, steps=rng.randrange(0, 4))
        mvs = enumerate_moves(L)
        mv = mvs[rng.randrange(len(mvs))]
        from bistellar.moves import is_inessential

        if is_inessential(mv):
            continue
        sampled += 1
        assert h_value(inverse_move(mv), cache) == -h_value(mv, cache)


def test_h_on_tetrahedron_subdivision():
    # {beta} + xi(tetrahedron) - xi(5-vertex) cancels exactly: h = 0
    cache = XiCache()
    d3 = orient(boundary_of_simplex(3))
    assert h_value(enumerate_moves(d3)[0], cache) == 0


def test_h_requires_essential():
    cache = XiCache()
    d3 = orient(boundary_of_simplex(3))
    K5 = apply_move(enumerate_moves(d3)[0])
    flips = [m for m in enumerate_moves(K5) if len(m.sigma) == 2]
    from bistellar.moves import is_inessential

    bad = [m for m in flips if is_inessential(m)]
    assert bad
    with pytest.raises(InvalidMove):
        h_value(bad[0], cache)


def test_h_represents_c_on_cycles():
    """Edge-by-edge h sums agree with the catalogued value on cycles."""
    from bistellar.gamma2 import c_of_cycle

    cache = XiCache()
    rng = random.Random(7)
    done = 0
    while done < 6:
        ch = random_loop_cycle(rng)
        if ch is None:
            continue
        done += 1
        total = Fraction(0)
        for key, coeff in ch.terms.items():
            total += coeff * h_value(materialize_edge(key), cache)
        assert total == c_of_cycle(ch)


def test_local_f_on_simplex_boundary():
    assert local_f(orient(boundary_of_simplex(4)), cache=XiCache()) == 0


def test_local_f_vanishes_on_self_mirror_classes():
    cache = XiCache()
    d4 = orient(boundary_of_simplex(4))
    K6 = apply_move(enumerate_moves(d4)[0])
    assert okey(K6).sign == 0
    assert local_f(K6, cache=cache) == 0


def test_local_f_seed_independence_and_equivariance():
    rng = random.Random(5)
    state = None
    while state is None or okey(state).sign == 0:
        state = orient(boundary_of_simplex(4))
        for _ in range(10):
            cands = [apply_move(m) for m in enumerate_moves(state)]
            cands = [s for s in cands if len(s.vertices) <= 8]
            state = cands[rng.randrange(len(cands))]
    vals = []
    certs = set()
    for s in range(5):
        cert = reduce_to_boundary(state, seed=s)
        certs.add(cert.moves)
        vals.append(local_f(state, cache=XiCache(), certificate=cert))
    assert len(set(vals)) == 1
    assert len(certs) >= 2
    assert local_f(-state, cache=XiCache()) == -vals[0]


def test_p1_dual_local_on_4_sphere():
    chain = p1_dual_local(orient(boundary_of_simplex(5)), cache=XiCache())
    assert not chain.terms
    assert chain.total() == 0


def test_p1_dual_on_5_sphere_is_trivial_cycle():
    chain = p1_dual_local(orient(boundary_of_simplex(6)), cache=XiCache())
    assert chain.degree == 1
    assert chain.is_cycle()
    assert not chain.terms  # zero chain bounds trivially


def test_p1_cp2_calibration():
    K = orient(cp2_9())
    cache = XiCache()
    chain = p1_dual_local(K, cache=cache)
    assert chain.total() == 3
    assert all(v == Fraction(1, 3) for v in chain.terms.values())
    assert p1_number(K, cache=cache) == 3
    assert p1_number(-K, cache=cache) == -3


def test_p1_direct_matches_local_on_cp2():
    K = orient(cp2_9())
    cache = XiCache()
    a = p1_dual_local(K, cache=cache)
    b = p1_dual_direct(K, cache=cache)
    assert a.is_cycle() and b.is_cycle()
    diff = a.plus(b.scaled(-1))
    assert not diff.terms  # equal on the nose here


def test_p1_direct_on_4_sphere():
    chain = p1_dual_direct(orient(boundary_of_simplex(5)), cache=XiCache())
    assert chain.total() == 0


def test_p1_disjoint_union_componentwise():
    cp2 = cp2_9()
    shift = max(cp2.vertices) + 1
    d5 = boundary_of_simplex(5)
    moved = relabel(d5, {v: v + shift for v in d5.vertices})
    union = build_complex(list(cp2.facets) + list(moved.facets))
    OK = orient(union)
    chain = p1_dual_local(OK, cache=XiCache())
    assert chain.total() == 3
    comp_sums = {}
    for (v,), coeff in chain.terms.items():
        comp_sums.setdefault(v >= shift, Fraction(0))
        comp_sums[v >= shift] += coeff
    assert comp_sums.get(False, 0) == 3
    assert comp_sums.get(True, 0) == 0


def test_xi_cache_persistence(tmp_path):
    path = str(tmp_path / "xi.json")
    cache = XiCache(path)
    octa = octahedron()
    xi = xi_chain(octa, cache)
    cache.certificate(okey(orient(boundary_of_simplex(4))))
    cache.save()
    reloaded = XiCache(path)
    assert okey(octa) in reloaded.chains or okey(octa).mirror() in reloaded.chains
    assert xi_chain(octa, reloaded) == xi
    assert reloaded.certs


@pytest.mark.parametrize("fn", [p1_dual_local, p1_dual_direct, p1_number])
@pytest.mark.parametrize("n", [3, 4])
def test_p1_needs_dimension_four(fn, n):
    with pytest.raises(DimensionTooSmall):
        fn(orient(boundary_of_simplex(n)), cache=XiCache())


def test_p1_jobs_matches_serial_and_keeps_certificates(tmp_path):
    K = perturbed_cp2(0, steps=1)
    classes = {min(k, k.mirror()) for k in (okey(K.link((v,))) for v in K.vertices) if k.sign}
    assert len(classes) >= 2  # the worker pool runs only for two or more classes
    serial = p1_dual_local(K, cache=XiCache())
    path = str(tmp_path / "xi.json")
    cache = XiCache(path)
    pooled = p1_dual_local(K, cache=cache, jobs=2)
    assert pooled.terms == serial.terms
    cache.save()
    saved = XiCache(path).certs
    assert all(k in saved or k.mirror() in saved for k in classes)
    for jobs in (1, 2):
        with pytest.raises(BudgetExhausted):
            p1_dual_local(K, budget=0, cache=XiCache(), jobs=jobs)


def test_p1_computes_each_mirror_pair_on_its_first_class():
    """local_f runs on the +1 class of a mirror pair, on the -1 class where
    that occurs alone, and never on an achiral class: the certificates (and
    so the saved cache bytes) follow that choice."""
    K = perturbed_cp2(0, steps=1)
    keys = {okey(K.link((v,))) for v in K.vertices}
    lone = {k for k in keys if k.sign == -1 and k.mirror() not in keys}
    assert len(keys) == 5 and len(lone) == 1 and any(k.sign == 0 for k in keys)
    cache = XiCache()
    p1_dual_local(K, cache=cache)
    assert set(cache.certs) == {k for k in keys if k.sign == 1} | lone


def test_memo_tables_never_change_an_answer():
    import sys

    first, second = perturbed_cp2(1, steps=2), perturbed_cp2(0, steps=1)
    p1_dual_local(first, cache=XiCache())
    warm = XiCache()
    chain = p1_dual_local(second, cache=warm)
    mods = [m for n, m in list(sys.modules.items()) if n == "bistellar" or n.startswith("bistellar.")]
    tables = {id(o): o for m in mods for o in vars(m).values() if hasattr(o, "cache_clear")}.values()
    assert {t.__name__ for t in tables} >= {
        "_ucanon", "_ocanon", "_rep_signs", "complexity_of_key", "_materialize_cached", "_d3_key"
    }
    assert all(t.cache_info().currsize for t in tables)
    for t in tables:
        t.cache_clear()
    cold = XiCache()
    assert p1_dual_local(second, cache=cold).terms == chain.terms
    assert cold.to_json() == warm.to_json()


def test_p1_direct_replays_each_certificate_once(monkeypatch):
    """The 2-sphere certificate chains are built once per certificate, not
    once per codimension-3 coface."""
    import bistellar.pontryagin as pontryagin

    calls = []
    real = pontryagin.replay

    def spy(seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(pontryagin, "replay", spy)
    chain = p1_dual_direct(orient(cp2_9()), cache=XiCache())
    assert chain.terms == {(v,): Fraction(1, 3) for v in range(9)}
    assert len(calls) == len(set(calls)) == 4


def test_cold_p1_bytes_pinned():
    """Cold local p1 on an asymmetric input keeps its exact bytes: the saved
    cache (every xi chain and certificate) and the p1 chain, serialized by
    the shared chain arithmetic."""
    import hashlib
    import json

    def digest(data) -> str:
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

    cache = XiCache()
    chain = p1_dual_local(perturbed_cp2(0, steps=1), cache=cache)
    assert digest(cache.to_json()) == "e872f70b2d882ac7854366cf1c6babf9270dfa643cc9d38e92928b0e7885e3ff"
    assert digest(chain.to_json()) == "c90a152c99b2232cc6af647e96891549572fd2a97fa7194ae52858516711bfae"
