import random
from collections import Counter
from itertools import chain

import pytest

from bistellar.canonical import OKey, okey, oriented_isomorphism, relabel_oriented, ukey
from bistellar.enumeration import spheres_by_expansion
from bistellar.errors import InvalidMove, SphereCheckFailed
from bistellar.moves import (
    BistellarMove,
    GammaEdgeKey,
    apply_move,
    complexity_thirds,
    decreasing_moves,
    edge_key,
    enumerate_moves,
    increasing_moves,
    induced_vertex_moves,
    inverse_move,
    is_inessential,
    sphere_from_move,
    u_set,
)
from bistellar.simplicial import Complex, OrientedComplex, boundary_of_simplex, build_complex, orient
from bistellar.spheres import is_combinatorial_sphere
from helpers import icosahedron, octahedron, random_walk_sphere, torus_7


def test_enumerate_on_tetrahedron_boundary():
    d3 = orient(boundary_of_simplex(3))
    moves = enumerate_moves(d3)
    assert len(moves) == 4
    assert all(len(m.sigma) == 3 for m in moves)


def test_enumerate_on_octahedron():
    moves = enumerate_moves(octahedron())
    ks = sorted(len(m.sigma) - 1 for m in moves)
    assert ks.count(1) == 12 and ks.count(2) == 8 and ks.count(0) == 0


def test_enumerate_on_4_simplex_boundary():
    d4 = orient(boundary_of_simplex(4))
    moves = enumerate_moves(d4)
    assert len(moves) == 5
    assert all(len(m.sigma) == 4 for m in moves)


def test_apply_subdivision():
    d3 = orient(boundary_of_simplex(3))
    mv = enumerate_moves(d3)[0]
    out = apply_move(mv)
    assert out.f_vector == (5, 9, 6)


def test_apply_flip_makes_degree_3():
    octa = octahedron()
    fl = [m for m in enumerate_moves(octa) if len(m.sigma) == 2][0]
    out = apply_move(fl)
    assert 3 in {out.degree(v) for v in out.vertices}


def test_apply_then_inverse_is_identity_class():
    """Every move on every 2-sphere class with at most 8 vertices undoes."""
    from bistellar.enumeration import spheres_by_expansion
    from bistellar.simplicial import Complex

    for n, keys in spheres_by_expansion(8).items():
        for k in keys:
            L = orient(Complex(k, _validated=True))
            for mv in enumerate_moves(L):
                back = apply_move(inverse_move(mv))
                assert ukey(back.complex) == ukey(L.complex)
                assert oriented_isomorphism(back, L) is not None


def test_apply_outputs_are_spheres():
    rng = random.Random(37)
    for _ in range(6):
        L = random_walk_sphere(rng, steps=rng.randrange(0, 4), max_cx=8)
        for mv in enumerate_moves(L)[:5]:
            out = apply_move(mv)
            assert is_combinatorial_sphere(out.complex).verdict is True
    # dimension-3 spot checks
    d4 = orient(boundary_of_simplex(4))
    for mv in enumerate_moves(d4):
        out = apply_move(mv)
        assert is_combinatorial_sphere(out.complex).verdict is True


def test_four_sphere_search_budget_reaches_links(monkeypatch):
    import bistellar.reduction as reduction

    rng = random.Random(1)
    K = orient(boundary_of_simplex(5))
    for _ in range(6):
        moves = sorted(enumerate_moves(K), key=lambda m: (m.sigma, m.tau))
        K = apply_move(moves[rng.randrange(len(moves))])
    assert is_combinatorial_sphere(K.complex).verdict is True

    budgets = []
    real = reduction.reduce_to_boundary

    def spy(L, budget, seed):
        budgets.append(budget)
        return real(L, budget=budget, seed=seed)

    monkeypatch.setattr(reduction, "reduce_to_boundary", spy)
    # links that exhaust the budget are Unknown, and Unknown is never No
    starved = is_combinatorial_sphere(K.complex, budget=0)
    assert starved.verdict is None
    # one search per vertex-link class, then one on K itself
    classes = {ukey(K.complex.link((v,))) for v in K.vertices}
    assert len(budgets) == len(classes) + 1 and set(budgets) == {0}


def test_a_move_is_its_host_sigma_and_tau(monkeypatch):
    import bistellar.moves as moves

    d3 = orient(boundary_of_simplex(3))
    a = BistellarMove(d3, [0, 1, 2], [4])
    b = BistellarMove(orient(boundary_of_simplex(3)), (0, 1, 2), (4,))
    assert (a.sigma, a.tau) == ((0, 1, 2), (4,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != BistellarMove(d3, (0, 1, 3), (4,)) and a != BistellarMove(d3, (0, 1, 2), (5,))
    assert a != BistellarMove(apply_move(b), (0, 1, 2), (4,)) and a != (d3, (0, 1, 2), (4,))
    assert repr(a) == f"BistellarMove(host={d3!r}, sigma=(0, 1, 2), tau=(4,))"
    with pytest.raises(AttributeError, match="cannot assign to BistellarMove.sigma"):
        a.sigma = (0, 1, 3)
    assert a.sigma == (0, 1, 2) and hash(a) == hash(b)
    applied, real = [], moves.apply_move
    monkeypatch.setattr(moves, "apply_move", lambda mv: applied.append(mv) or real(mv))
    assert a.result is a.result and applied == [a]


def test_invalid_move_rejected():
    d3 = orient(boundary_of_simplex(3))
    with pytest.raises(InvalidMove):
        apply_move(BistellarMove(d3, (0, 1), (2, 3)))  # tau is a face
    with pytest.raises(InvalidMove):
        apply_move(BistellarMove(d3, (0, 1, 2), (3,)))  # stale tau vertex


def test_every_applied_move_is_checked_against_move_tau(monkeypatch):
    """``apply_move`` computes the tau of every move once, however it was
    built, so a move built as the move finders build theirs, (host, sigma,
    tau), is rejected when its tau is not the one at sigma; so is a
    certificate step with a wrong tau."""
    import bistellar.moves as moves
    from bistellar.reduction import MoveSequence, reduce_to_boundary, replay

    calls = []
    real = moves.move_tau
    monkeypatch.setattr(moves, "move_tau", lambda *a, **k: calls.append(a) or real(*a, **k))
    L = octahedron()
    for finder in (enumerate_moves, decreasing_moves, increasing_moves):
        for mv in finder(L):
            calls.clear()
            apply_move(mv)
            assert len(calls) == 1
            for wrong in {m.tau for m in enumerate_moves(L)} - {mv.tau}:
                with pytest.raises(InvalidMove):
                    apply_move(BistellarMove(L, mv.sigma, wrong))

    seq = reduce_to_boundary(octahedron())
    (sig, tau), *rest = seq.moves
    bad = MoveSequence(seq.start, ((sig, tau + (99,)), *rest), seq.end)
    with pytest.raises(InvalidMove):
        replay(bad)


def test_edge_key_encodes_class_keys_only_on_a_rank_tie(monkeypatch):
    from bistellar.canonical import OKey

    calls = []
    real = OKey.encode
    monkeypatch.setattr(OKey, "encode", lambda self: calls.append(self) or real(self))
    # every move of the octahedron changes the complexity
    assert all(edge_key(mv) for mv in enumerate_moves(octahedron()))
    assert not calls


def test_induced_moves_facet_subdivision():
    d3 = orient(boundary_of_simplex(3))
    mv = [m for m in enumerate_moves(d3) if m.sigma == (0, 1, 2)][0]
    assert u_set(mv) == (0, 1, 2)
    sub = induced_vertex_moves(mv)
    assert [v for v, _ in sub] == [0, 1, 2]
    res = apply_move(mv)
    for v, m in sub:
        # each induced move is an edge subdivision of the link cycle
        assert len(m.sigma) == 2 and len(m.tau) == 1
        assert ukey(apply_move(m).complex) == ukey(res.link((v,)).complex)


def test_induced_moves_on_a_circle_are_identities():
    circle = orient(boundary_of_simplex(2))
    mv = next(m for m in enumerate_moves(circle) if m.sigma == (0, 1))  # an edge subdivision
    assert induced_vertex_moves(mv) == [(0, None), (1, None)]


def test_induced_moves_edge_flip():
    octa = octahedron()
    fl = [m for m in enumerate_moves(octa) if len(m.sigma) == 2][0]
    sub = induced_vertex_moves(fl)
    assert len(sub) == 4
    removals = [m for _, m in sub if len(m.sigma) == 1]
    insertions = [m for _, m in sub if len(m.sigma) == 2]
    assert len(removals) == 2 and len(insertions) == 2
    assert {v for v, m in sub if len(m.sigma) == 1} == set(fl.sigma)


def test_induced_moves_3_sphere_insertion():
    d4 = orient(boundary_of_simplex(4))
    mv = enumerate_moves(d4)[0]
    sub = induced_vertex_moves(mv)
    assert len(sub) == 4
    assert set(v for v, _ in sub) == set(mv.sigma)
    res = apply_move(mv)
    for v, m in sub:
        assert ukey(apply_move(m).complex) == ukey(res.link((v,)).complex)


def test_edge_key_equivalence_and_antisymmetry():
    d3 = orient(boundary_of_simplex(3))
    moves = enumerate_moves(d3)
    keys = {edge_key(m).key for m in moves}
    assert len(keys) == 1  # all facet subdivisions are equivalent
    mv = moves[0]
    fwd, bwd = edge_key(mv), edge_key(inverse_move(mv))
    assert fwd.key == bwd.key and fwd.sign == -bwd.sign


def test_an_edge_key_is_one_object_per_value():
    """The flips of the octahedron and of a relabelled copy are one orbit:
    their edges are one object, which decoding and the constructor give
    back and which hashes and compares like its tuple; a ``_replace`` copy
    is a second object that computes the same hash."""
    L = octahedron()
    M = relabel_oriented(L, dict(zip(L.vertices, range(100, 106)[::-1])))
    flips = [mv for K in (L, M) for mv in enumerate_moves(K) if mv.k == 1]
    e = flips[0].edge.key
    assert len(flips) == 24 and all(mv.edge.key is e for mv in flips)
    assert GammaEdgeKey.decode(e.encode()) is e and GammaEdgeKey(*e) is e
    assert e.head is okey(L) and e.tail is okey(flips[0].result)
    assert hash(e) == hash(tuple(e)) and e == tuple(e)
    copy = e._replace(orbit=e.orbit)
    assert copy is not e and type(copy) is GammaEdgeKey and vars(copy) == {}
    assert copy == e and hash(copy) == hash(e) and {e: 1}[copy] == 1


def test_keys_built_after_emptied_interning_tables_equal_the_old():
    """With every memo table emptied, the interning tables included, a class
    key and an edge key built again are new objects equal to the old ones,
    and decoding gives the new ones."""
    import sys

    mv = enumerate_moves(octahedron())[0]
    old_key, old_edge = okey(mv.host), edge_key(mv).key
    mods = [m for n, m in list(sys.modules.items()) if n == "bistellar" or n.startswith("bistellar.")]
    tables = {id(o): o for m in mods for o in vars(m).values() if hasattr(o, "cache_clear")}.values()
    assert {t.__name__ for t in tables} >= {"_interned_okey", "_interned_edge"}
    for t in tables:
        t.cache_clear()
    key, edge = okey(octahedron()), edge_key(BistellarMove(octahedron(), mv.sigma, mv.tau)).key
    assert key is not old_key and edge is not old_edge
    assert key == old_key and hash(key) == hash(old_key) and edge == old_edge and hash(edge) == hash(old_edge)
    assert OKey.decode(old_key.encode()) is key is edge.head
    assert GammaEdgeKey.decode(old_edge.encode()) is edge


def test_facet_subdivision_is_essential():
    d3 = orient(boundary_of_simplex(3))
    assert not is_inessential(enumerate_moves(d3)[0])


def test_inessential_flip_exists_on_small_spheres():
    """Exhaustive search over 2-spheres with <= 7 vertices finds a flip
    equivalent to its own inverse."""
    from bistellar.enumeration import spheres_by_expansion
    from bistellar.simplicial import Complex

    found = []
    for n, keys in spheres_by_expansion(7).items():
        for k in keys:
            L = orient(Complex(k, _validated=True))
            for mv in enumerate_moves(L):
                if len(mv.sigma) == 2 and is_inessential(mv):
                    found.append((n, mv))
    assert found, "no inessential flip found on spheres with <= 7 vertices"
    for _, mv in found[:3]:
        assert edge_key(mv) is None


def test_sphere_from_move_subdivision():
    d3 = orient(boundary_of_simplex(3))
    mv = enumerate_moves(d3)[0]
    Lb = sphere_from_move(mv)
    assert is_combinatorial_sphere(Lb)
    assert len(Lb.vertices) == 7  # 4 + 1 fresh + u1, u2
    assert Lb.dim == 3
    u1, u2 = sorted(Lb.vertices)[-2:]
    res = apply_move(mv)
    lk2 = Lb.link((u2,))
    assert oriented_isomorphism(lk2, res) is not None
    lk1 = Lb.link((u1,))
    assert oriented_isomorphism(lk1, -d3) is not None
    assert okey(lk1) == okey(-d3)


def test_sphere_from_move_octahedron_flip():
    octa = octahedron()
    fl = [m for m in enumerate_moves(octa) if len(m.sigma) == 2][0]
    Lb = sphere_from_move(fl)
    assert is_combinatorial_sphere(Lb)
    assert len(Lb.vertices) == 8
    assert Lb.dim == 3


def test_sphere_from_move_vertex_set():
    rng = random.Random(41)
    for _ in range(5):
        L = random_walk_sphere(rng, steps=rng.randrange(0, 3), max_cx=8)
        mv = enumerate_moves(L)[rng.randrange(len(enumerate_moves(L)))]
        Lb = sphere_from_move(mv)
        expected = set(L.vertices) | set(mv.tau)
        assert len(Lb.vertices) == len(expected) + 2


def test_gamma1_is_a_path():
    """The 1-sphere move graph restricted to <= 12 vertices: the k-gon
    connects only to the (k+1)- and (k-1)-gons, by a single edge each."""
    cycles = {
        n: orient(build_complex([[i, (i + 1) % n] for i in range(n)]))
        for n in range(3, 13)
    }
    edges: dict[tuple[int, int], set] = {}
    for n, C in cycles.items():
        for mv in enumerate_moves(C):
            res = apply_move(mv)
            m = len(res.vertices)
            if m > 12:
                continue
            se = edge_key(mv)
            assert se is not None  # vertex-count changes: always essential
            edges.setdefault(tuple(sorted((n, m))), set()).add(se.key)
    assert set(edges) == {(n, n + 1) for n in range(3, 12)}
    assert all(len(ks) == 1 for ks in edges.values())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orientation_transport_matches_orient(n):
    """On seeded walks over boundary_of_simplex(n) (dimensions 2-4), picking a
    move dimension k first so insertions and removals both occur: the signs
    set by apply_move equal orient(result) up to one global sign, pass the
    coherence check, and sphere_from_move gives link(u2) = +L2, link(u1) = -L1."""
    rng = random.Random(100 + n)
    state = orient(boundary_of_simplex(n))
    kinds = set()
    for _ in range(40):
        moves = sorted(enumerate_moves(state), key=lambda m: (m.sigma, m.tau))
        k = rng.choice(sorted({m.k for m in moves}))
        mv = rng.choice([m for m in moves if m.k == k])
        kinds.add(k)
        res = apply_move(mv)
        ref = orient(res.complex)
        kept = next(f for f in res.facets if f in state.facet_signs)
        eps = res.facet_signs[kept] * ref.facet_signs[kept]
        assert res.facet_signs == {f: eps * s for f, s in ref.facet_signs.items()}
        OrientedComplex(res.complex, res.facet_signs, check=True)
        Lb = sphere_from_move(mv)
        u1, u2 = sorted(Lb.vertices)[-2:]
        assert Lb.link((u2,)) == res
        assert Lb.link((u1,)) == -state
        state = res
    assert {0, n - 1} <= kinds


def test_one_application_per_move(monkeypatch):
    """The move's cached result serves every function that needs its endpoint."""
    import bistellar.moves as moves_mod
    from bistellar.gamma2 import move_complexity

    calls = []
    real = moves_mod.apply_move
    monkeypatch.setattr(moves_mod, "apply_move", lambda mv: calls.append(mv) or real(mv))
    mv = next(m for m in enumerate_moves(octahedron()) if m.k == 1)
    edge_key(mv)
    is_inessential(mv)
    move_complexity(mv)
    inverse_move(mv)
    assert calls == [mv]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_removed_and_added_are_the_facet_diff(n):
    """On seeded walks in dimensions 2-4 with insertions and removals:
    ``removed`` is host - result and ``added`` is result - host, and the
    signs in d(D) carry the host's orientation onto the result's, negated."""
    rng = random.Random(200 + n)
    state = orient(boundary_of_simplex(n))
    kinds = set()
    for _ in range(25):
        moves = sorted(enumerate_moves(state), key=lambda m: (m.sigma, m.tau))
        for mv in moves:
            res = apply_move(mv)
            assert {f for f, _ in mv.removed} == state.facets - res.facets
            assert {f for f, _ in mv.added} == res.facets - state.facets
            (c,) = {state.facet_signs[f] * b for f, b in mv.removed}
            assert {res.facet_signs[f] * b for f, b in mv.added} == {-c}
            assert mv.result_degrees() == res.degrees
        k = rng.choice(sorted({m.k for m in moves}))
        kinds.add(k)
        state = apply_move(rng.choice([m for m in moves if m.k == k]))
    assert {0, n - 1} <= kinds


def test_decreasing_moves_build_no_result(monkeypatch):
    """``decreasing_moves`` reads its candidates off the degree table, yet
    returns the moves of the complexity filter over ``enumerate_moves``, in
    that order: on every 2-sphere class up to 10 vertices in both
    orientations and relabelled at random (minimal degree 3 or 4), the
    icosahedron and RP^2 (5), and the 7-vertex torus (6: no move, so xi
    fails).  It neither enumerates nor applies a move."""
    import bistellar.gamma2 as gamma2_mod
    import bistellar.moves as moves_mod
    from bistellar.gamma2 import decreasing_moves
    from bistellar.library import catalog
    from bistellar.pontryagin import XiCache, xi_chain

    real_enum, real_apply = moves_mod.enumerate_moves, moves_mod.apply_move

    def reference(L):
        a = complexity_thirds(L.degrees.values())
        return [mv for mv in real_enum(L) if complexity_thirds(mv.result_degrees().values()) < a]

    calls = []
    monkeypatch.setattr(moves_mod, "apply_move", lambda mv: calls.append(mv) or real_apply(mv))
    monkeypatch.setattr(moves_mod, "enumerate_moves", lambda K: calls.append(K) or real_enum(K))
    monkeypatch.setattr(gamma2_mod, "enumerate_moves", moves_mod.enumerate_moves, raising=False)
    rng = random.Random(7)
    cases = []
    for facets in chain.from_iterable(spheres_by_expansion(10).values()):
        L = orient(Complex(facets, _validated=True))
        image = rng.sample(range(3 * len(L.vertices)), len(L.vertices))
        cases += [L, -L, relabel_oriented(L, dict(zip(L.vertices, image)))]
    assert len(cases) == 918
    cases += [icosahedron(), catalog()["rp2_6"].complex, octahedron(), torus_7()]
    kept = Counter()
    for L in cases:
        calls.clear()
        got = decreasing_moves(L)
        assert calls == []
        want = reference(L)
        assert [(m.sigma, m.tau) for m in got] == [(m.sigma, m.tau) for m in want]
        kept[min(L.degrees.values())] += len(want)
    assert [min(K.degrees.values()) for K in cases[-3:]] == [5, 4, 6]
    assert kept[3] and kept[4] and kept[5] and not kept[6]
    with pytest.raises(SphereCheckFailed):
        xi_chain(orient(torus_7()), cache=XiCache())
