import random

import pytest

from bistellar.canonical import okey, ukey, oriented_isomorphism
from bistellar.errors import InvalidMove
from bistellar.moves import (
    BistellarMove,
    apply_move,
    edge_key,
    enumerate_moves,
    induced_vertex_moves,
    inverse_move,
    is_inessential,
    sphere_from_move,
    u_set,
)
from bistellar.simplicial import OrientedComplex, boundary_of_simplex, build_complex, orient
from bistellar.spheres import is_combinatorial_sphere
from helpers import octahedron, random_walk_sphere


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
    assert len(budgets) == len(K.vertices) + 1 and set(budgets) == {0}


def test_invalid_move_rejected():
    d3 = orient(boundary_of_simplex(3))
    with pytest.raises(InvalidMove):
        apply_move(BistellarMove(d3, (0, 1), (2, 3)))  # tau is a face
    with pytest.raises(InvalidMove):
        apply_move(BistellarMove(d3, (0, 1, 2), (3,)))  # stale tau vertex


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
    assert len(Lb.vertices) == 8
    assert Lb.dim == 3


def test_sphere_from_move_vertex_set():
    rng = random.Random(41)
    for _ in range(5):
        L = random_walk_sphere(rng, steps=rng.randrange(0, 3), max_cx=8)
        mv = enumerate_moves(L)[rng.randrange(len(enumerate_moves(L)))]
        Lb = sphere_from_move(mv, check_sphere=False)
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
        Lb = sphere_from_move(mv, check_sphere=False)
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
        k = rng.choice(sorted({m.k for m in moves}))
        kinds.add(k)
        state = apply_move(rng.choice([m for m in moves if m.k == k]))
    assert {0, n - 1} <= kinds
