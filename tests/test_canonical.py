import hashlib
import json
import random
from itertools import permutations

import pytest

from bistellar.canonical import (
    OKey,
    _ucanon,
    canonical_form,
    marked_encoding,
    materialize,
    okey,
    oriented_isomorphism,
    relabel,
    relabel_oriented,
    ukey,
    unoriented_canon,
)
from bistellar.enumeration import oriented_sphere_classes, spheres_by_expansion
from bistellar.errors import NotPseudomanifold
from bistellar.simplicial import Complex, OrientedComplex, boundary_of_simplex, build_complex, orient, perm_parity
from helpers import icosahedron, octahedron, random_sphere


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


def test_empty_complex_goes_through_the_general_search():
    """{()} has no vertices: one leaf, the image ((),) and the empty labelling,
    on the first search and on the class-table exit alike."""
    assert unoriented_canon(Complex([()])) == (((),), [{}])
    assert _ucanon.__wrapped__(frozenset({()})) == (((),), [{}])


def test_oriented_isomorphism_is_none_between_two_classes():
    assert oriented_isomorphism(octahedron(), orient(boundary_of_simplex(3))) is None
    assert oriented_isomorphism(octahedron(), -octahedron()) is not None  # achiral


def test_no_sphere_below_four_vertices():
    for n in (3, 0, -2):
        assert spheres_by_expansion(n) == {}
        assert oriented_sphere_classes(n) == {}
    assert spheres_by_expansion(4) == {4: [ukey(boundary_of_simplex(3))]}


def test_expansion_pinned_and_one_child_per_orbit():
    """The classes with <= 9 vertices, byte for byte.  Applying one
    complexity-raising move per automorphism orbit (every facet subdivision
    below the bound, and the flips that raise the minimal degree) and keying
    only the children reached by their canonical parent move keeps the
    canonical-form misses of a cold expansion at 73, one per class, against
    121 keying every child, 514 for one flip or facet subdivision per orbit
    and 1,084 for every move."""
    from bistellar.canonical import _class_table, _ucanon

    _ucanon.cache_clear()
    _class_table.cache_clear()
    out = spheres_by_expansion(9)
    misses = _ucanon.cache_info().misses
    text = json.dumps({str(n): [list(map(list, k)) for k in ks] for n, ks in out.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == "9f8b71d14bd137c440e60559ac00eaf2cb525f5635cf9c9792efe6c2aaf2f106"
    assert misses <= 73


def test_disconnected_oriented_input_is_rejected():
    """(+A) + (-A) for a chiral 2-sphere A has no labeling carrying its
    orientation onto one representative, and one facet's sign does not fix
    the orientation of (+A) + (+A) either: an oriented key needs a strongly
    connected complex, and both are NotPseudomanifold, not a bare error."""
    A = next(L for ks in spheres_by_expansion(8).values() for k in ks
             if okey(L := orient(Complex(k, _validated=True))).sign != 0)
    shift = max(A.vertices) + 1
    for second in (-1, 1):
        signs = dict(A.facet_signs)
        signs.update({tuple(v + shift for v in f): second * s for f, s in A.facet_signs.items()})
        union = OrientedComplex(Complex(signs, _validated=True), signs)
        for fn in (okey, canonical_form):
            with pytest.raises(NotPseudomanifold):
                fn(union)
    assert okey(A).sign == -okey(-A).sign != 0


def _keys(rng):
    """The keys of a few complexes, chiral and achiral, with a random
    relabelling of each that no earlier call has labelled."""
    for L in (octahedron(), icosahedron(), random_sphere(random.Random(5), 9)):
        M = relabel_oriented(L, dict(zip(L.vertices, rng.sample(range(1000, 2000), len(L.vertices)))))
        yield okey(L), okey(M)


def test_a_class_key_is_one_object_per_value():
    """Relabellings, decoding and mirroring twice all give back the one
    object of a class key, which hashes and compares like its tuple."""
    signs = []
    for k, k2 in _keys(random.Random(11)):
        assert k2 is k
        assert OKey(*k) is OKey(facets=k.facets, sign=k.sign) is k
        assert OKey.decode(k.encode()) is k
        assert k.mirror().mirror() is k and (k.mirror() is k) == (k.sign == 0)
        assert hash(k) == hash(tuple(k)) and k == tuple(k) and tuple(k) == k
        signs.append(k.sign)
    assert signs == [0, 0, 1]


def test_a_copy_past_the_interning_table_hashes_as_the_key():
    """``_replace`` and ``_make`` build a second object of one value, which
    computes its own hash: the tuple's, so it finds the key's entry."""
    for k, _ in _keys(random.Random(12)):
        table = {k: "entry"}
        for copy in (k._replace(sign=k.sign), OKey._make(k)):
            assert copy is not k and type(copy) is OKey and vars(copy) == {}
            assert copy == k and hash(copy) == hash(k) == hash(tuple(k))
            assert table[copy] == "entry" and copy in {k} and k in {copy}


def test_kept_automorphisms_after_an_emptied_class_table():
    """The orientation-keeping automorphisms of a class, with their paths, are
    the same when the class table was emptied since the class was labelled:
    the class is searched again.  On a simplex boundary, which is never
    filed, they are the even permutations; the transported labeling of a
    relabelled copy is its first designated labeling either way."""
    from bistellar import canonical

    rng = random.Random(3)
    for L in (octahedron(), orient(boundary_of_simplex(4))):
        key = okey(L)
        want = sorted(canonical._kept(key.facets))
        M = relabel_oriented(L, dict(zip(L.vertices, rng.sample(range(50), len(L.vertices)))))
        psi = oriented_isomorphism(M, materialize(key))
        first = canonical.designated_labelings(M)[0]
        canonical._kept.cache_clear()
        canonical._class_table.cache_clear()
        assert sorted(canonical._kept(key.facets)) == want
        assert canonical.transported_labeling(key, psi) == first
    assert len(want) == 60 and all(perm_parity(a) == 1 for a, _ in want)
