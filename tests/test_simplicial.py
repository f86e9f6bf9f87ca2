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
from bistellar.canonical import okey, ukey
from bistellar.spheres import is_combinatorial_manifold, is_combinatorial_sphere
from bistellar.sw import sw_duals
from bistellar.simplicial import (
    Complex,
    OrientedComplex,
    barycentric_subdivision,
    boundary_of_simplex,
    build_complex,
    cone,
    faces,
    is_orientable,
    join,
    join_oriented,
    orient,
    perm_parity,
)
from helpers import octahedron, random_sphere, random_walk_sphere, torus_7

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
    with pytest.raises(FacetContainment):
        build_complex([[0, 1, 2, 3], [4, 5], [2]])
    # non-pure without containment: a triangle plus a disjoint edge
    K = build_complex([[0, 1, 2], [3, 4]])
    assert K.facets == {(0, 1, 2), (3, 4)} and not K.is_pure


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


@pytest.mark.parametrize(
    "K2",
    [orient(boundary_of_simplex(1)), random_walk_sphere(random.Random(3), steps=8)],
    ids=["boundary-of-edge", "chiral-2-sphere"],
)
def test_join_oriented_signs(K2):
    """A facet of K1 * K2 carries sign(F1) * sign(F2): the join is coherent,
    and the link of a K1 vertex is the join of its link in K1 with K2."""
    K1 = random_walk_sphere(random.Random(2), steps=6)  # chiral, vertex 7 missing
    assert okey(K1) != okey(-K1)
    J = join_oriented(K1, K2)
    OrientedComplex(J.complex, J.facet_signs)
    for i, v in enumerate(K1.vertices):  # K1 is relabeled in order onto 0, 1, ...
        assert okey(J.link((i,))) == okey(join_oriented(K1.link((v,)), K2))


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


def _chiral_sphere() -> OrientedComplex:
    rng = random.Random(3)
    while True:
        L = random_walk_sphere(rng, steps=8, max_cx=12)
        if okey(L).sign != 0:
            return L


def test_oriented_complex_is_a_complex_sharing_what_it_starts_from():
    K = octahedron().complex
    degrees = K.degrees
    OC = orient(K)
    assert isinstance(OC, Complex)
    assert OC.degrees is degrees
    index = OC._vertex_facets
    assert (-OC)._vertex_facets is index


def test_oriented_complex_view_forgets_the_orientation():
    OC = octahedron()
    view = OC.complex
    assert type(view) is Complex
    assert view == Complex(OC.facets)
    assert OC != view and view != OC


def test_oriented_complex_checks_its_input():
    """One sign, +1 or -1, per facet of a pure complex.  A complex with
    facets of two sizes is refused even when each part is coherently
    signed: ``move_tau`` reads a pure closed pseudomanifold."""
    tet = orient(boundary_of_simplex(3))
    K, signs = tet.complex, tet.facet_signs
    with pytest.raises(NotPseudomanifold, match="cover exactly"):
        OrientedComplex(K, {f: s for f, s in signs.items() if f != min(signs)})
    with pytest.raises(NotPseudomanifold, match="must be"):
        OrientedComplex(K, {**signs, min(signs): 2})
    both = {**signs, **orient(build_complex([(4, 5), (5, 6), (4, 6)])).facet_signs}
    with pytest.raises(NotPseudomanifold, match="not pure"):
        OrientedComplex(Complex(both), both)


def test_oriented_complex_equality_compares_facets_and_signs():
    L = _chiral_sphere()
    copy = OrientedComplex(Complex(sorted(L.facets)), {f: L.facet_signs[f] for f in sorted(L.facets, reverse=True)})
    assert copy == L and hash(copy) == hash(L)
    assert -L != L and -(-L) == L
    assert okey(-L) != okey(L)


def test_recognition_reads_an_oriented_complex_as_its_complex():
    rng = random.Random(2)
    for OC in (octahedron(), orient(torus_7()), random_sphere(rng, 7)):
        K = OC.complex
        assert is_combinatorial_sphere(OC) == is_combinatorial_sphere(K)
        assert is_combinatorial_manifold(OC) == is_combinatorial_manifold(K)
        assert [c.simplices for c in sw_duals(OC)] == [c.simplices for c in sw_duals(K)]


def test_faces_and_ridges():
    assert faces((2, 5, 7)) == [((5, 7), 1), ((2, 7), -1), ((2, 5), 1)]
    K = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3]])
    assert K.ridges[(0, 1)] == [(0, 1, 2), (0, 1, 3)]
    assert K.ridges[(1, 2)] == [(0, 1, 2)]


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
        star = build_complex(f for f in K.facets if set(sig) <= set(f))
        simplex_complex = build_complex([sig])
        jn, _, _ = join(simplex_complex, K.link(sig))
        assert ukey(star) == ukey(jn)


def _scan(K, sigma):
    """The facets containing sigma, by a scan of every facet."""
    return sorted(f for f in K.facets if set(sigma) <= set(f))


def _check_against_scans(K):
    """facets_containing, both links and move_tau on every face of K, each
    on a fresh copy, agree with whole-facet scans; the copy never builds its
    face set."""
    from bistellar.moves import move_tau

    faces = sorted(K.faces)
    star = {s: _scan(K, s) for s in faces if s}
    fresh = Complex(K.facets, _validated=True)
    try:
        oriented = orient(fresh)
    except (NotPseudomanifold, NonOrientable):
        oriented = None
    for s in faces:
        assert sorted(fresh.facets_containing(s)) == _scan(K, s)
        assert fresh.link(s) == Complex({tuple(v for v in f if v not in s) for f in _scan(K, s)}, _validated=True)
        if s:
            assert move_tau(fresh, s) == move_tau(K, s, star=star)
        if oriented is not None:
            signs = {}
            for f in _scan(K, s):
                lam = tuple(v for v in f if v not in s)
                signs[lam] = oriented.facet_signs[f] * perm_parity(s + lam)
            assert oriented.link(s).facet_signs == signs
            if s:
                assert move_tau(oriented, s) == move_tau(oriented, s, star=star)
    assert fresh.link(()) == K
    assert "faces" not in fresh.__dict__


def test_facet_index_matches_whole_facet_scans():
    from bistellar.library import catalog, cp2_9
    from helpers import perturbed_cp2

    for entry in catalog().values():
        _check_against_scans(entry.complex)
    _check_against_scans(cp2_9())
    K = perturbed_cp2(1, 5)
    for s in K.complex.faces_of_dim(0) + K.complex.faces_of_dim(1):
        _check_against_scans(K.link(s).complex)
    _check_against_scans(build_complex([[0, 1, 2], [0, 3]]))
    K = build_complex([[0, 1, 2], [0, 3]])
    for non_face in [(9,), (1, 3), (0, 1, 3)]:
        assert K.facets_containing(non_face) == []
        with pytest.raises(SimplexNotInComplex):
            K.link(non_face)
    with pytest.raises(SimplexNotInComplex):
        orient(boundary_of_simplex(3)).link((0, 9))


def test_equal_oriented_complexes_hash_equal():
    """An oriented complex computes its hash once; a copy built from a
    complex whose hash is cached does not inherit it, so equal complexes
    hash equal and a mirror keeps its own hash."""
    L = orient(boundary_of_simplex(4))
    h = hash(L)
    copy = OrientedComplex(Complex(L.facets), dict(L.facet_signs))
    assert copy == L and hash(copy) == h == hash(L)
    neg = -L  # built from L, which holds its hash
    fresh = OrientedComplex(Complex(sorted(L.facets)), {f: -s for f, s in L.facet_signs.items()})
    assert neg == fresh and neg != L and hash(neg) == hash(fresh)
    assert hash(OrientedComplex(L.complex, dict(L.facet_signs))) == h
    assert len({L, copy, neg, fresh}) == 2


def _orientation_error(f):
    try:
        f()
    except (NotPseudomanifold, NonOrientable) as e:
        return type(e), str(e)
    return None


def test_one_sign_propagation_raises_as_before():
    """``orient`` and the representative signs of an oriented class key share
    one propagation (``coherent_signs``), which raises as the separate passes
    did: two disjoint tetrahedron boundaries orient (two components) but have
    no oriented key; a ridge in three facets and ``rp2_6`` raise on both."""
    from bistellar.library import catalog
    from bistellar.simplicial import coherent_signs

    two = Complex(list(combinations(range(4), 3)) + list(combinations(range(4, 8), 3)))
    OC = orient(two)
    assert coherent_signs(two.facets) == (OC.facet_signs, 2)
    assert _orientation_error(lambda: okey(OC)) == (
        NotPseudomanifold, "an oriented class key needs a strongly connected complex"
    )
    three = Complex([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (1, 2, 3), (0, 2, 4), (1, 2, 4), (0, 3, 4), (1, 3, 4)])
    rp2 = catalog()["rp2_6"].complex
    cases = [
        (three, (NotPseudomanifold, "every ridge must lie in exactly two facets")),
        (rp2, (NonOrientable, "sign propagation conflict")),
        (Complex([(0, 1, 2), (2, 3)]), (NotPseudomanifold, "complex is not pure")),
    ]
    for K, want in cases:
        assert _orientation_error(lambda: orient(K)) == want
        assert _orientation_error(lambda: okey(OrientedComplex(K, {f: 1 for f in K.facets}, check=False))) == want


def _links_by_parity(K: OrientedComplex, sig) -> dict:
    """The link signs of the reference rule: the sign of F written with
    sig's vertices first, by the parity of that vertex order."""
    out = {}
    for f in K.facets_containing(sig):
        lam = tuple(v for v in f if v not in sig)
        out[lam] = K.facet_signs[f] * perm_parity(sig + lam)
    return out


def test_link_signs_by_position_match_the_parity_rule():
    """``OrientedComplex.link`` reads each sign off the positions of sigma's
    vertices in the facet; on every face of three complexes, in dimensions
    4 and 5, that is the parity of sigma's vertices moved to the front."""
    from bistellar.library import cp2_9
    from helpers import perturbed_cp2, product

    complexes = [orient(cp2_9()), perturbed_cp2(1, 5), orient(product(cp2_9(), boundary_of_simplex(2)))]
    count = 0
    for K in complexes:
        for sig in K.faces:
            if sig:
                assert K.link(sig).facet_signs == _links_by_parity(K, sig)
                count += 1
    assert count > 5000
