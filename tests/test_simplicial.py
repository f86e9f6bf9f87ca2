import random
from itertools import combinations

import pytest

from bistellar.errors import (
    DuplicateVertexInFacet,
    FacetContainment,
    NonOrientable,
    NotPseudomanifold,
    SimplexNotInComplex,
)
from bistellar.canonical import ukey
from bistellar.simplicial import (
    barycentric_subdivision,
    boundary_of_simplex,
    build_complex,
    cone,
    faces,
    is_orientable,
    join,
    orient,
)
from helpers import octahedron, random_walk_sphere

RP2_6 = [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
         [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]


def test_build_boundary_of_simplex():
    K = build_complex(list(combinations(range(4), 3)))
    assert K.f_vector == (4, 6, 4)
    assert K.dim == 2


def test_build_full_triangle():
    K = build_complex([[0, 1, 2]])
    assert K.f_vector == (3, 3, 1)


def test_build_rp2_counts():
    K = build_complex(RP2_6)
    assert K.f_vector == (6, 15, 10)
    assert K.euler_characteristic == 1


def test_build_rejects_duplicates_and_containment():
    with pytest.raises(DuplicateVertexInFacet):
        build_complex([[0, 0, 1]])
    with pytest.raises(FacetContainment):
        build_complex([[0, 1, 2], [0, 1]])


def test_link_examples():
    d3 = boundary_of_simplex(3)
    lk = d3.link((0,))
    assert lk.f_vector == (3, 3)  # boundary of the opposite triangle
    octa = octahedron().complex
    # link of an edge is the 0-sphere of the two apexes
    edge = sorted(octa.faces_of_dim(1))[0]
    assert octa.link(edge).f_vector == (2,)
    # link of a vertex is a 4-cycle
    assert octa.link((0,)).f_vector == (4, 4)
    # link of the empty simplex is the complex itself
    assert d3.link(()) == d3
    # a non-pure complex: a triangle with a dangling edge at vertex 0
    K = build_complex([[0, 1, 2], [0, 3]])
    assert K.link((0,)).facets == {(1, 2), (3,)}
    assert K.link((0, 1)).facets == {(2,)}
    with pytest.raises(SimplexNotInComplex):
        d3.link((9,))


def test_join_and_cone():
    s0 = boundary_of_simplex(1)
    j, _, _ = join(s0, s0)
    assert j.f_vector == (4, 4)  # a 4-cycle
    c = cone(boundary_of_simplex(2))
    assert c.f_vector == (4, 6, 3)
    bip, _, _ = join(boundary_of_simplex(2), s0)
    assert bip.f_vector == (5, 9, 6)


def test_join_relabels_on_collision():
    s0 = boundary_of_simplex(1)
    j, m1, m2 = join(s0, s0)
    assert set(m1.values()) | set(m2.values()) == set(j.vertices)
    assert not set(m1.values()) & set(m2.values())


def test_barycentric_subdivision_examples():
    edge = build_complex([[0, 1]])
    sub, back = barycentric_subdivision(edge)
    assert sub.f_vector == (3, 2)
    assert back[0] in edge.faces
    d3 = boundary_of_simplex(3)
    sub, _ = barycentric_subdivision(d3)
    assert sub.f_vector == (14, 36, 24)
    assert sub.euler_characteristic == 2
    tri = boundary_of_simplex(2)
    sub, _ = barycentric_subdivision(tri)
    assert sub.f_vector == (6, 6)


def test_barycentric_preserves_euler_characteristic():
    rng = random.Random(11)
    for _ in range(5):
        K = random_walk_sphere(rng, steps=rng.randrange(0, 4)).complex
        sub, _ = barycentric_subdivision(K)
        assert sub.euler_characteristic == K.euler_characteristic
    rp2 = build_complex(RP2_6)
    sub, _ = barycentric_subdivision(rp2)
    assert sub.euler_characteristic == 1


def test_orient_examples():
    d3 = boundary_of_simplex(3)
    oc = orient(d3)
    assert sorted(oc.facet_signs.values()).count(1) + sorted(oc.facet_signs.values()).count(-1) == 4
    assert is_orientable(octahedron().complex)
    with pytest.raises(NonOrientable):
        orient(build_complex(RP2_6))


def test_orient_unique_up_to_global_flip():
    oc = orient(octahedron().complex)
    flipped = -oc
    # the flipped assignment is the unique other coherent one extending -1
    # on the seed facet
    seed = min(oc.facets)
    assert flipped.facet_signs[seed] == -1
    assert {f: -s for f, s in oc.facet_signs.items()} == flipped.facet_signs


def test_faces_and_ridges():
    assert faces((2, 5, 7)) == [((5, 7), 1), ((2, 7), -1), ((2, 5), 1)]
    K = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    assert K.ridges[(0, 1)] == [(0, 1, 2), (0, 1, 3)]
    assert K.ridges[(1, 2)] == [(0, 1, 2)]
    assert K.ridge_degrees() == {r: len(fs) for r, fs in K.ridges.items()}


def test_faces_of_dim_and_degrees():
    K = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [2, 4]])
    for k in range(-1, K.dim + 2):
        assert K.faces_of_dim(k) == sorted(f for f in K.faces if len(f) == k + 1)
    K.faces_of_dim(1).clear()  # callers get a copy
    assert len(K.faces_of_dim(1)) == 7
    for L in (K, build_complex(RP2_6), random_walk_sphere(random.Random(2), steps=6).complex):
        want = {v: sum(1 for f in L.facets if v in f) for v in L.vertices}
        assert dict(L.degrees) == want
        assert [L.degree(v) for v in L.vertices] == list(want.values())
    assert K.degree(99) == 0


@pytest.mark.parametrize(
    "facets, closed",
    [
        (list(combinations(range(4), 3)), True),
        (list(combinations(range(4), 3)) + list(combinations(range(3, 7), 3)), False),
        (list(combinations(range(4), 3)) + list(combinations(range(4, 8), 3)), False),
    ],
    ids=["one-tetrahedron-boundary", "two-sharing-a-vertex", "two-disjoint"],
)
def test_closed_pseudomanifold_needs_strong_connectivity(facets, closed):
    assert build_complex(facets).is_closed_pseudomanifold is closed


def test_orient_rejects_three_facets_on_a_ridge():
    with pytest.raises(NotPseudomanifold):
        orient(build_complex([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))


def test_closure_property():
    rng = random.Random(7)
    for _ in range(5):
        K = random_walk_sphere(rng, steps=rng.randrange(0, 5)).complex
        for f in K.faces:
            for i in range(len(f)):
                assert f[:i] + f[i + 1 :] in K.faces


def test_link_of_link():
    rng = random.Random(13)
    for _ in range(20):
        K = random_walk_sphere(rng, steps=rng.randrange(0, 5)).complex
        faces = [f for f in K.faces if 0 < len(f) <= K.dim]
        tau = faces[rng.randrange(len(faces))]
        subsets = [s for s in K.faces if s and set(s) < set(tau)]
        if not subsets:
            continue
        sig = subsets[rng.randrange(len(subsets))]
        rest = tuple(v for v in tau if v not in sig)
        assert K.link(sig).link(rest) == K.link(tau)


def test_star_is_join_of_simplex_and_link():
    rng = random.Random(17)
    for _ in range(100):
        K = random_walk_sphere(rng, steps=rng.randrange(0, 4)).complex
        faces = [f for f in K.faces if f]
        sig = faces[rng.randrange(len(faces))]
        star = K.star(sig)
        simplex_complex = build_complex([sig])
        jn, _, _ = join(simplex_complex, K.link(sig))
        assert ukey(star) == ukey(jn)
