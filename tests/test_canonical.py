import random
from itertools import permutations

from bistellar.canonical import (
    canonical_form,
    marked_encoding,
    materialize,
    okey,
    oriented_isomorphism,
    relabel,
    relabel_oriented,
    ukey,
)
from bistellar.enumeration import oriented_sphere_classes, spheres_by_expansion
from bistellar.simplicial import Complex, boundary_of_simplex, build_complex, orient
from helpers import octahedron


def _random_relabel(K, rng):
    perm = list(K.vertices)
    rng.shuffle(perm)
    return relabel(K, dict(zip(K.vertices, perm)))


def test_relabelings_share_keys():
    rng = random.Random(23)
    octa = octahedron().complex
    for _ in range(10):
        assert ukey(_random_relabel(octa, rng)) == ukey(octa)


def test_different_complexes_different_keys():
    d4 = boundary_of_simplex(4)
    six = build_complex(
        [[0, 1, 2, 3], [0, 1, 2, 5], [0, 1, 3, 5], [0, 2, 3, 5],
         [1, 2, 3, 4], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5]]
    )
    assert six.f_vector[0] == 6
    assert ukey(d4) != ukey(six)


def test_octahedron_admits_orientation_reversal():
    oc = octahedron()
    assert okey(oc).sign == 0
    assert okey(oc) == okey(-oc)


def test_canonical_form_api():
    oc = octahedron()
    form = canonical_form(oc)
    assert form.oriented_key is not None
    form_u = canonical_form(oc.complex)
    assert form_u.oriented_key is None
    assert set(form.labeling) == set(oc.vertices)


def test_materialize_round_trip():
    oc = orient(boundary_of_simplex(3))
    rep = materialize(okey(oc))
    assert okey(rep) == okey(oc)


def test_key_equality_matches_naive_isomorphism_search():
    """Key equality agrees with a brute-force permutation search on all
    pairs of 2-sphere classes with <= 7 vertices."""

    def naive_isomorphic(K1, K2):
        if K1.f_vector != K2.f_vector:
            return False
        v1, v2 = K1.vertices, K2.vertices
        d1 = sorted(K1.degree(v) for v in v1)
        d2 = sorted(K2.degree(v) for v in v2)
        if d1 != d2:
            return False
        for perm in permutations(v2):
            mapping = dict(zip(v1, perm))
            if {tuple(sorted(mapping[v] for v in f)) for f in K1.facets} == set(K2.facets):
                return True
        return False

    classes = [Complex(k, _validated=True) for n, ks in spheres_by_expansion(7).items() for k in ks]
    rng = random.Random(5)
    reps = [_random_relabel(K, rng) for K in classes]
    for i, A in enumerate(classes):
        for j, B in enumerate(reps):
            assert (ukey(A) == ukey(B)) == naive_isomorphic(A, B), (i, j)


def test_oriented_isomorphism_and_marked_encoding():
    rng = random.Random(9)
    oc = octahedron()
    perm = dict(zip(oc.vertices, sorted(oc.vertices, key=lambda v: rng.random())))
    other = relabel_oriented(oc, perm)
    iso = oriented_isomorphism(oc, other)
    assert iso is not None
    image = {tuple(sorted(iso[v] for v in f)) for f in oc.facets}
    assert image == set(other.facets)
    # marked encodings are relabeling-invariant
    edge = sorted(oc.complex.faces_of_dim(1))[0]
    assert marked_encoding(oc, edge) == marked_encoding(other, tuple(sorted(perm[v] for v in edge)))


def test_no_sphere_below_four_vertices():
    for n in (3, 0, -2):
        assert spheres_by_expansion(n) == {}
        assert oriented_sphere_classes(n) == {}
    assert spheres_by_expansion(4) == {4: [ukey(boundary_of_simplex(3))]}
