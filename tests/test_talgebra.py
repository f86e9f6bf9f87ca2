import random
from fractions import Fraction

import pytest

from bistellar.canonical import okey
from bistellar.errors import DimensionTooSmall
from bistellar.moves import apply_move, enumerate_moves, sphere_from_move
from bistellar.simplicial import boundary_of_simplex, orient
from bistellar.talgebra import (
    LocalCochain,
    alpha_cycle,
    boundary_t,
    d_edge,
    delta_edge,
    delta_eval,
    f_sharp,
    join_product_t,
    s_eval,
    sphere_chain,
)
from helpers import octahedron, random_walk_sphere


def _random_3sphere(rng, steps=6, cap=9):
    state = orient(boundary_of_simplex(4))
    for _ in range(steps):
        cands = [apply_move(m) for m in enumerate_moves(state)]
        cands = [s for s in cands if len(s.vertices) <= cap]
        state = cands[rng.randrange(len(cands))]
    return state


def _random_cochain(rng, spheres, grade):
    f = LocalCochain(grade)
    for s in spheres:
        f.set(s, Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
    return f


def test_polygon_classes_are_torsion():
    octa = octahedron()
    d = boundary_t(sphere_chain(octa))
    assert not d.terms  # every 1-sphere has an orientation-reversing automorphism


def test_boundary_squared_zero_on_3_spheres():
    rng = random.Random(3)
    for _ in range(20):
        L = _random_3sphere(rng, steps=rng.randrange(0, 6))
        assert not boundary_t(boundary_t(sphere_chain(L))).terms


def test_boundary_of_4_simplex_boundary():
    d4 = orient(boundary_of_simplex(4))
    d = boundary_t(sphere_chain(d4))
    assert not d.terms  # 5 copies of the tetrahedron class, torsion over Q


def test_join_of_zero_spheres():
    s0 = orient(boundary_of_simplex(1))
    prod = join_product_t(sphere_chain(s0), sphere_chain(s0))
    assert prod.grade == 2
    # the 4-cycle class has an orientation-reversing automorphism
    assert not prod.terms


def test_join_leibniz():
    rng = random.Random(5)
    s0 = orient(boundary_of_simplex(1))
    for _ in range(10):
        L = random_walk_sphere(rng, steps=rng.randrange(0, 4))
        x, y = sphere_chain(s0), sphere_chain(L)
        lhs = boundary_t(join_product_t(x, y))
        rhs = join_product_t(boundary_t(x), y).plus(
            join_product_t(x, boundary_t(y)).scaled((-1) ** x.grade)
        )
        assert lhs == rhs


def test_join_associative_and_supercommutative():
    rng = random.Random(7)
    s0 = orient(boundary_of_simplex(1))
    a, b = sphere_chain(s0), sphere_chain(orient(boundary_of_simplex(2)))
    for _ in range(3):
        c = sphere_chain(random_walk_sphere(rng, steps=rng.randrange(0, 3)))
        lhs = join_product_t(join_product_t(a, b), c)
        rhs = join_product_t(a, join_product_t(b, c))
        assert lhs == rhs
        sign = (-1) ** (b.grade * c.grade)
        assert join_product_t(b, c) == join_product_t(c, b).scaled(sign)


def test_empty_cochain_evaluates_zero():
    f = LocalCochain(3)
    assert delta_eval(f, orient(boundary_of_simplex(3))) == 0


def test_delta_squared_zero():
    rng = random.Random(11)
    spheres = [random_walk_sphere(rng, steps=rng.randrange(0, 4)) for _ in range(6)]
    f = _random_cochain(rng, spheres, 3)
    # delta f (grade 4) evaluated through another delta on 4-spheres:
    # (delta delta f)(<M>) = 0 for sampled 4-spheres M = L_beta of 3-sphere moves
    for _ in range(20):
        L = _random_3sphere(rng, steps=rng.randrange(0, 4))
        mv = enumerate_moves(L)[0]
        M = sphere_from_move(mv, check_sphere=False)  # a 4-sphere

        def delta_f(sph):  # (delta f)(<sph>) for a 3-sphere
            return delta_eval(f, sph)

        total = sum((delta_f(M.link((v,))) for v in M.vertices), Fraction(0))
        # (delta delta f)(<M>) = (-1)^4 * total and must vanish
        assert total == 0


def test_torsion_classes_forced_to_zero():
    f = LocalCochain(3)
    d3 = orient(boundary_of_simplex(3))
    f.set(d3, Fraction(5))
    assert f(d3) == 0  # tetrahedron boundary is its own mirror


def test_cochain_equivariance():
    L = random_walk_sphere(random.Random(4), steps=8)  # a chiral 9-vertex sphere
    assert okey(L).sign != 0
    f = LocalCochain(3).set(L, Fraction(7, 2))
    assert f(L) == Fraction(7, 2) and f(-L) == Fraction(-7, 2)


def test_cochain_set_overwrites_through_the_mirror():
    L = random_walk_sphere(random.Random(4), steps=8)  # a chiral 9-vertex sphere
    f = LocalCochain(3).set(L, Fraction(7, 2)).set(-L, Fraction(1))
    assert f(L) == -1 and f(-L) == 1 and len(f.terms) == 1
    assert not f.set(L, 0).terms


def test_f_sharp_zero_cochain_and_dimension_guard():
    d5 = orient(boundary_of_simplex(5))  # a 4-manifold
    f = LocalCochain(4)
    assert not f_sharp(f, d5).terms
    with pytest.raises(DimensionTooSmall):
        f_sharp(LocalCochain(4), orient(boundary_of_simplex(3)))


def test_f_sharp_vertex_coefficients():
    # grade n on an n-manifold: the chain records f on vertex links
    rng = random.Random(29)
    L = _random_3sphere(rng, steps=5, cap=8)
    f = LocalCochain(3)  # eats the 2-sphere vertex links
    f.set(L.link((L.vertices[0],)), Fraction(2, 3))
    chain = f_sharp(f, L)
    assert chain.degree == 0
    for v in L.vertices:
        assert chain.coefficient((v,)) == f(L.link((v,)))


def test_simplicial_chain_orientation_flip():
    from bistellar.talgebra import SimplicialChain

    octa = octahedron()
    edge = sorted(octa.complex.faces_of_dim(1))[0]
    chain = SimplicialChain(octa, 1, {edge: Fraction(3)})
    assert chain.coefficient((edge[1], edge[0])) == -Fraction(3)
    assert chain.coefficient(edge) == Fraction(3)


def test_chain_homotopy_identity_grade3():
    """d = delta s - s delta on random (cochain, 2-sphere move) samples."""
    rng = random.Random(17)
    nontrivial = 0
    for _ in range(50):
        L = random_walk_sphere(rng, steps=rng.randrange(1, 5))
        mvs = enumerate_moves(L)
        mv = mvs[rng.randrange(len(mvs))]
        res = apply_move(mv)
        support = [L, res] + [random_walk_sphere(rng, steps=rng.randrange(0, 4)) for _ in range(2)]
        f = _random_cochain(rng, support, 3)
        lhs = d_edge(f, mv)
        term1 = delta_edge(lambda m: s_eval(f, m), mv)
        Lb = sphere_from_move(mv, check_sphere=False)
        s_delta = delta_eval(f, Lb) if (f.grade + 1) % 2 == 0 else -delta_eval(f, Lb)
        assert lhs == term1 - s_delta
        if lhs != 0:
            nontrivial += 1
    assert nontrivial >= 3


def test_s_equivariance_through_edge_sign():
    rng = random.Random(19)
    for _ in range(10):
        L = random_walk_sphere(rng, steps=rng.randrange(1, 4))
        mv = enumerate_moves(L)[0]
        f = _random_cochain(rng, [sphere_from_move(mv, check_sphere=False)], 4)
        v1 = s_eval(f, mv)
        mirrored = type(mv)(-mv.host, mv.sigma, mv.tau)
        assert s_eval(f, mirrored) == -v1


def test_alpha_cycle_examples():
    d4 = orient(boundary_of_simplex(4))
    assert not alpha_cycle(d4).terms
    d5 = orient(boundary_of_simplex(5))
    assert not alpha_cycle(d5).terms


def test_alpha_cycle_on_cp2():
    from bistellar.library import cp2_9
    from bistellar.simplicial import orient as _orient

    K = _orient(cp2_9())
    a = alpha_cycle(K)
    total = sum(abs(v) for v in a.terms.values())
    assert total == 9  # nine links, all in one chiral class
