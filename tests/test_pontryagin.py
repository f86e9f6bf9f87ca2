import random
from fractions import Fraction

import pytest

from bistellar.canonical import materialize, okey, relabel
from bistellar.enumeration import spheres_by_expansion
from bistellar.errors import BudgetExhausted, DimensionTooSmall, InvalidMove, SphereCheckFailed
from bistellar.gamma2 import Gamma2Chain
from bistellar.library import cp2_9, cross_polytope_boundary
from bistellar.moves import BistellarMove, apply_move, edge_key, enumerate_moves, inverse_move, materialize_edge
from bistellar.pontryagin import XiCache, h_value, local_f, p1_dual_direct, p1_dual_local, p1_number, xi_chain
from bistellar.reduction import MoveSequence, reduce_to_boundary
from bistellar.simplicial import Complex, boundary_of_simplex, build_complex, orient
from helpers import (
    blocked_spheres,
    eta_oracle,
    octahedron,
    perturbed_cp2,
    random_loop_cycle,
    random_walk_sphere,
    torus_7,
    walk_certificate,
)


def _mirror_by_relabelling(chain: Gamma2Chain) -> Gamma2Chain:
    """The mirror of a chain by the negate-and-relabel rule: each edge's
    move made on the negated tail representative and keyed by ``edge_key``."""
    out = Gamma2Chain()
    for k, c in chain.terms.items():
        mv = materialize_edge(k)
        se = edge_key(BistellarMove(-mv.host, mv.sigma, mv.tau))
        out.add(se.key, se.sign * c)
    return out


def _assert_mirrors_by_relabelling(chains) -> None:
    """``Gamma2Chain.mirror`` agrees with the negate-and-relabel rule on
    every chain, among whose edges there are chiral and achiral tails, and
    mirroring twice, from the mirrored moves the representative moves keep,
    gives the chain back."""
    assert {k.tail.sign == 0 for ch in chains for k in ch.terms} == {True, False}
    for ch in chains:
        assert ch.mirror() == _mirror_by_relabelling(ch)
        assert ch.mirror().mirror() == ch


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


def test_descent_mirror_laws_on_every_small_sphere():
    """On every 2-sphere class with at most 9 vertices: the descent path of
    -L is the mirror of the path of L, an achiral class's path and xi are
    their own mirrors, and both chains have boundary {L} - {tetrahedron}."""
    from bistellar.canonical import simplex_boundary_key
    from bistellar.pontryagin import _descent

    cache = XiCache()
    keys = [okey(orient(Complex(k, _validated=True))) for ks in spheres_by_expansion(9).values() for k in ks]
    assert len(keys) == 73 and sum(k.sign == 0 for k in keys) == 46
    for key in keys:
        path, xi = _descent(key, cache, average=False), xi_chain(key, cache)
        assert _descent(key.mirror(), cache, average=False) == path.mirror()
        if key.sign == 0:
            assert path.mirror() == path and xi.mirror() == xi
        d3 = simplex_boundary_key(2)
        want = {} if key == d3 else {key: 1, d3: -1}
        assert path.boundary() == xi.boundary() == want
    _assert_mirrors_by_relabelling([*cache.chains.values(), *cache.paths.values()])


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
        vals.append(local_f(state, cache=XiCache(), seed=s))
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


def test_p1_dual_on_a_perturbed_5_sphere_is_a_nonzero_cycle():
    """Eight seeded Pachner moves take the boundary of the 6-simplex to a
    12-vertex 5-sphere whose local and direct p1 chains are nonzero 1-chains,
    so the cycle check computes a real boundary (local: 5 terms, direct: 7)."""
    rng = random.Random(8)
    K = orient(boundary_of_simplex(6))
    for _ in range(8):
        moves = sorted(enumerate_moves(K), key=lambda m: (m.sigma, m.tau))
        K = apply_move(moves[rng.randrange(len(moves))])
    assert len(K.vertices) == 12
    cache = XiCache()
    for chain in (p1_dual_local(K, cache=cache), p1_dual_direct(K, cache=cache)):
        assert chain.degree == 1 and chain.terms
        assert not chain.boundary().terms


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


def test_xi_cache_persistence(tmp_path, monkeypatch):
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
    monkeypatch.chdir(tmp_path)
    unsaved = XiCache()
    xi_chain(octa, unsaved)
    unsaved.save()  # a cache without a path writes nothing
    assert [p.name for p in tmp_path.iterdir()] == ["xi.json"]


@pytest.mark.parametrize("fn", [p1_dual_local, p1_dual_direct, p1_number])
@pytest.mark.parametrize("n", [3, 4])
def test_p1_needs_dimension_four(fn, n):
    with pytest.raises(DimensionTooSmall):
        fn(orient(boundary_of_simplex(n)), cache=XiCache())


def _h_of_first_move(K, cache):
    return h_value(enumerate_moves(K)[0], cache)


@pytest.mark.parametrize(
    "fn, K, err",
    [
        (xi_chain, boundary_of_simplex(2), DimensionTooSmall),
        (xi_chain, boundary_of_simplex(4), InvalidMove),
        (xi_chain, cross_polytope_boundary(4), InvalidMove),
        (xi_chain, torus_7(), SphereCheckFailed),
        (local_f, boundary_of_simplex(3), DimensionTooSmall),
        (local_f, cross_polytope_boundary(3), DimensionTooSmall),
        (local_f, boundary_of_simplex(5), InvalidMove),
        (local_f, cross_polytope_boundary(5), InvalidMove),
        (_h_of_first_move, boundary_of_simplex(4), InvalidMove),
    ],
    ids=["xi-d2", "xi-d4", "xi-cross4", "xi-torus", "local-d3", "local-octahedron", "local-d5", "local-cross5", "h-d4"],
)
def test_wrong_dimension_is_a_typed_error(fn, K, err):
    with pytest.raises(err):
        fn(orient(K), cache=XiCache())


def test_p1_budget_zero_is_exhausted():
    with pytest.raises(BudgetExhausted):
        p1_dual_local(perturbed_cp2(0, steps=1), budget=0, cache=XiCache())


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
    direct = XiCache()
    p1_dual_direct(K, cache=direct)
    assert set(direct.certs) == set(cache.certs)


def test_direct_cochain_laws_on_link_classes():
    """The direct cochain, checked on each class and its mirror apart from
    f_sharp: odd under orientation reversal, zero on achiral classes, and
    equal to local_f(L) - sum over vertices v of c(path(lk v) - xi(lk v))."""
    from bistellar.canonical import materialize
    from bistellar.gamma2 import c_of_cycle
    from bistellar.pontryagin import _descent, _zeta_value

    K = perturbed_cp2(1, steps=5)
    keys = {okey(K.link((v,))) for v in K.vertices} | {okey(orient(cross_polytope_boundary(4)))}
    assert len(keys) == 10 and sum(k.sign == 0 for k in keys) == 2
    cache = XiCache()
    g = {}
    both = [m for k in sorted(keys, key=lambda k: k.encode()) for m in (k, k.mirror())]
    for key in both:
        direct = _zeta_value(key, cache, False, 4000, 0)
        assert _zeta_value(key.mirror(), cache, False, 4000, 0) == -direct
        if key.sign == 0:
            assert direct == 0
        rep = materialize(key)
        for m in {okey(rep.link((v,))) for v in rep.vertices} - set(g):
            g[m] = c_of_cycle(_descent(m, cache, average=False).plus(xi_chain(m, cache), -1))
        assert direct == local_f(rep, cache=cache) - sum(g[okey(rep.link((v,)))] for v in rep.vertices)


def test_memo_tables_never_change_an_answer():
    import sys

    first, second = perturbed_cp2(1, steps=2), perturbed_cp2(0, steps=1)
    p1_dual_local(first, cache=XiCache())
    warm = XiCache()
    chain = p1_dual_local(second, cache=warm)
    # a cache read back from its saved form decodes every class key
    loaded = XiCache()
    loaded.merge(warm.to_json())
    assert p1_dual_local(second, cache=loaded).terms == chain.terms
    mods = [m for n, m in list(sys.modules.items()) if n == "bistellar" or n.startswith("bistellar.")]
    tables = {id(o): o for m in mods for o in vars(m).values() if hasattr(o, "cache_clear")}.values()
    assert {t.__name__ for t in tables} >= {
        "_ucanon", "_class_table", "_ocanon", "_rep_signs", "complexity_of_key", "_rep_moves",
        "simplex_boundary_key", "_commute", "_edge_order", "_decode_okey", "_decode_edge_key",
    }
    assert all(t.cache_info().currsize for t in tables)
    for t in tables:
        t.cache_clear()
    cold = XiCache()
    assert p1_dual_local(second, cache=cold).terms == chain.terms
    assert cold.to_json() == warm.to_json()


def test_readme_names_every_memo_table():
    import importlib
    import pathlib
    import pkgutil
    import re

    import bistellar

    modules = [info.name for info in pkgutil.iter_modules(bistellar.__path__)]
    found = set()
    for name in modules:
        mod = importlib.import_module(f"bistellar.{name}")
        found |= {f"{name}.{attr}" for attr, obj in vars(mod).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    paragraph = next(p for p in readme.split("\n\n") if "functools.cache" in p)
    named = {n for n in re.findall(r"`(\w+\.\w+)`", paragraph) if n.split(".")[0] in modules}
    assert named == found


def test_warm_p1_reads_eta_from_the_file(tmp_path, monkeypatch):
    """Warm local p1 on a saved cache builds no eta chain, replays each
    certificate once and gives the cold chain; a file without the eta
    section also replays each certificate once, builds its eta chain with
    no second replay, gives the same chain and gains the section when
    saved."""
    import json

    import bistellar.pontryagin as pontryagin

    K = perturbed_cp2(0, steps=1)
    path = str(tmp_path / "xi.json")
    cold = XiCache(path)
    chain = p1_dual_local(K, cache=cold)
    cold.save()
    old_format = str(tmp_path / "old.json")
    with open(path) as fh:
        data = json.load(fh)
    assert set(data["eta"]) == set(data["certificates"])
    del data["eta"]
    with open(old_format, "w") as fh:
        json.dump(data, fh)

    built, replays = [], []
    real_build, real_replay = pontryagin._carry_eta, pontryagin.replay
    monkeypatch.setattr(pontryagin, "_carry_eta", lambda seq: built.append(seq) or real_build(seq))
    monkeypatch.setattr(pontryagin, "replay", lambda seq: replays.append(seq) or real_replay(seq))
    warm = XiCache(path)
    assert p1_dual_local(K, cache=warm).terms == chain.terms
    assert not built
    assert sorted(map(MoveSequence.dumps, replays)) == sorted(map(MoveSequence.dumps, warm.certs.values()))

    old, seen = XiCache(old_format), len(replays)
    assert p1_dual_local(K, cache=old).terms == chain.terms
    assert p1_dual_local(K, cache=old).terms == chain.terms
    loaded = sorted(map(MoveSequence.dumps, old.certs.values()))
    assert sorted(map(MoveSequence.dumps, replays[seen:])) == sorted(map(MoveSequence.dumps, built)) == loaded
    old.save()
    with open(old_format) as fh, open(path) as want:
        assert json.load(fh) == json.load(want)


def test_p1_direct_reduces_once_and_replays_nothing(monkeypatch):
    """On CP^2 the direct procedure reduces its one 3-sphere link class once
    and never replays the certificate it computed: eta is carried from the
    start representative.  Its 2-sphere chains are descent paths, which no
    reduction or replay builds."""
    import bistellar.pontryagin as pontryagin

    replays, reduced = [], []
    real_replay, real_reduce = pontryagin.replay, pontryagin.reduce_to_boundary
    monkeypatch.setattr(pontryagin, "replay", lambda seq: replays.append(seq) or real_replay(seq))
    monkeypatch.setattr(pontryagin, "reduce_to_boundary", lambda K, **kw: reduced.append(K.dim) or real_reduce(K, **kw))
    chain = p1_dual_direct(orient(cp2_9()), cache=XiCache())
    assert chain.terms == {(v,): Fraction(1, 3) for v in range(9)}
    assert replays == []
    assert reduced == [3]


@pytest.mark.parametrize("seed, steps", [(0, 1), (1, 5), (5, 12)])
def test_p1_direct_matches_local_off_symmetry(seed, steps):
    """On CP^2 after seeded Pachner moves the two procedures give the same
    total, and reversing the orientation negates it."""
    K = perturbed_cp2(seed, steps)
    cache = XiCache()
    direct = p1_dual_direct(K, cache=cache)
    assert direct.is_cycle()
    assert direct.total() == p1_dual_local(K, cache=cache).total() == 3
    assert p1_dual_direct(-K, cache=cache).total() == -3


def test_p1_direct_is_invariant_under_pachner_moves():
    rng = random.Random(3)
    K = perturbed_cp2(2, steps=5)
    cache = XiCache()
    for _ in range(3):
        assert p1_dual_direct(K, cache=cache).total() == 3
        moves = sorted(enumerate_moves(K), key=lambda m: (m.sigma, m.tau))
        K = apply_move(moves[rng.randrange(len(moves))])
    assert p1_dual_direct(K, cache=cache).total() == 3


def _no_replays(monkeypatch) -> list:
    """The certificates ``pontryagin`` replays from now on."""
    import bistellar.pontryagin as pontryagin

    replays, real = [], pontryagin.replay
    monkeypatch.setattr(pontryagin, "replay", lambda seq: replays.append(seq) or real(seq))
    return replays


@pytest.mark.parametrize("seed, steps", [(1, 5), (2, 5), (3, 5), (4, 12)])
def test_eta_of_every_cold_certificate_is_its_definition(seed, steps, monkeypatch):
    """Each certificate cold local p1 computes has, with no replay, the eta
    chain of its replayed states."""
    replays = _no_replays(monkeypatch)
    cache = XiCache()
    p1_dual_local(perturbed_cp2(seed, steps), cache=cache)
    assert len(cache.certs) >= 4
    for cert in cache.certs.values():
        assert cache.eta(cert) == eta_oracle(cert)
    assert replays == []


def test_eta_of_plateau_certificates_is_its_definition():
    """A certificate that passes through the plateau: the blocked
    30-vertex sphere's, whose first state has every vertex blocked."""
    cache = XiCache()
    cert = cache.certificate(okey(blocked_spheres()[0]))
    assert cache.eta(cert) == eta_oracle(cert)


@pytest.mark.parametrize("seed", range(4))
def test_eta_along_random_walks_is_its_definition(seed, monkeypatch):
    """Walks with all four kinds of 3-sphere move, where a removed vertex's
    id comes back as a new vertex whose link then changes: the link of a
    subdivision's vertex is read off the facet signs, with no replay."""
    replays = _no_replays(monkeypatch)
    cert = walk_certificate(random.Random(seed))
    assert len(cert.moves) == 12 and {len(s) for s, _ in cert.moves} == {1, 2, 3, 4}
    assert XiCache().eta(cert) == eta_oracle(cert)
    assert replays == []


def test_cold_local_p1_keys_edges_on_representatives_only(monkeypatch):
    """Cold local p1 keys every move-graph edge on a move hosted on its class
    representative, orientation included: eta, xi, the walks of the
    decomposition and the mirrors all read their edges off ``rep_move``.
    Its xi chains then mirror as the negate-and-relabel rule does."""
    from bistellar import moves
    from bistellar.gamma2 import _commute

    hosts, real = [], moves.edge_key
    monkeypatch.setattr(moves, "edge_key", lambda mv: hosts.append(mv.host) or real(mv))
    moves._rep_moves.cache_clear()
    _commute.cache_clear()
    cache = XiCache()
    assert p1_dual_local(perturbed_cp2(1, steps=5), cache=cache).total() == 3
    monkeypatch.undo()
    assert len(hosts) > 100
    assert all(h == materialize(okey(h)) for h in hosts)
    _assert_mirrors_by_relabelling(cache.chains.values())


def test_descent_applies_each_representative_move_once(monkeypatch):
    """``_descent`` takes its decreasing moves from the representative-move
    memo, so each (class, sigma) it uses is applied at most once in cold
    local p1, shared with the Gamma_2 walks and the inverses' transport."""
    from collections import Counter

    from bistellar import moves, pontryagin
    from bistellar.gamma2 import _commute

    def labelled(mv):
        return tuple(sorted(mv.host.facet_signs.items())), mv.sigma

    used, applied = set(), Counter()
    real_decreasing, real_apply = pontryagin.decreasing_moves, moves.apply_move
    monkeypatch.setattr(pontryagin, "decreasing_moves", lambda L: [used.add(labelled(m)) or m for m in real_decreasing(L)])
    monkeypatch.setattr(moves, "apply_move", lambda mv: applied.update([labelled(mv)]) or real_apply(mv))
    moves._rep_moves.cache_clear()
    _commute.cache_clear()
    assert p1_dual_local(perturbed_cp2(1, steps=5), cache=XiCache()).total() == 3
    monkeypatch.undo()
    assert len(used) > 50 and sum(applied[u] for u in used) > 50
    assert max(applied[u] for u in used) == 1


def _digest(data) -> str:
    import hashlib
    import json

    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _cold_p1_digests() -> dict:
    cache = XiCache()
    chain = p1_dual_local(perturbed_cp2(0, steps=1), cache=cache)
    saved = cache.to_json()
    return {"xi": _digest(saved["xi"]), "certificates": _digest(saved["certificates"]),
            "file": _digest(saved), "chain": _digest(chain.to_json())}


def test_cold_p1_chain_and_xi_bytes_pinned():
    """Cold local p1 on an asymmetric input keeps the exact bytes of its xi
    chains and of the p1 chain, serialized by the shared chain arithmetic;
    neither depends on which reduction certificates are found."""
    got = _cold_p1_digests()
    assert got["xi"] == "7bd2daddc7552b53f7b3a0095943ba560b68daddc8768b13aa417529a6bf74f9"
    assert got["chain"] == "c90a152c99b2232cc6af647e96891549572fd2a97fa7194ae52858516711bfae"


def test_cold_p1_certificate_bytes_pinned():
    """The certificates of the saved cache, and the whole file with its eta
    chains, keep their exact bytes for the default seed."""
    got = _cold_p1_digests()
    assert got["certificates"] == "a1b591c6ca1369ab04025f328eea261c1ff2e11f71430b22b36025dfe6bcde93"
    assert got["file"] == "b5378c83c798591b15f7b38dc1d2436d7eb283faabfc3b14be3a69259f2a1bee"


def test_direct_p1_chain_and_certificate_bytes_pinned():
    """Direct p1 on an asymmetric input keeps the exact bytes of its chain
    and of the certificates it saves, which are 3-sphere certificates only;
    a change to the descent-path rule shows up here as a re-pin."""
    cache = XiCache()
    chain = p1_dual_direct(perturbed_cp2(1, steps=5), cache=cache)
    assert {k.dim() for k in cache.certs} == {3}
    assert _digest(chain.to_json()) == "8cbab16c710134d24ad5f963364afe9c94cebfaf2d3968c789c4d4d2ac13295c"
    assert _digest(cache.to_json()["certificates"]) == "a3d6650d6c639edfe963b0ce2093ff9370466123584847a11e144b7f65b410d1"
