"""The canonical labeling against a plain reference implementation.

``_reference_canon`` is the straightforward individualization-refinement
search: every refinement round rescans all facets for every vertex, and a
discrete coloring still takes one confirming round.  The library's
``unoriented_canon`` must return the same canonical facets and the same
optimal labelings in the same order, because ``designated_labelings(...)[0]``
is what ``move_from_endpoint`` transports moves with.

``_reference_designated`` transports the orientation of an oriented complex
through each reference labeling facet by facet; the library classifies a
labeling on one facet only, and must give the same key and the same
designated labelings in the same order, in both orientations.

A search that reaches a leaf of a class already in ``_class_table`` stops
there and rebuilds the labelings from the class's automorphisms, and the
boundary of a simplex is not searched at all; the tests below reach both
paths on relabelled copies and hold them to the same reference.
"""

import random

import pytest

import bistellar.canonical as canonical
from bistellar.canonical import OKey, oriented_canon, relabel, unoriented_canon
from bistellar.enumeration import spheres_by_expansion
from bistellar.library import catalog
from bistellar.errors import NonOrientable
from bistellar.simplicial import Complex, OrientedComplex, boundary_of_simplex, orient, perm_parity
from helpers import perturbed_cp2


def _reference_refine(vertices, facets, colors):
    while True:
        sig = {}
        for v in vertices:
            inc = sorted(tuple(sorted(colors[w] for w in f if w != v)) for f in facets if v in f)
            sig[v] = (colors[v], tuple(inc))
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: ranking[sig[v]] for v in vertices}
        if new == colors:
            return colors
        colors = new


def _reference_canon(K: Complex):
    vertices = K.vertices
    facets = sorted(K.facets)
    best, best_labelings = [], []

    def leaf(colors):
        lab = {v: colors[v] for v in vertices}
        image = tuple(sorted(tuple(sorted(lab[v] for v in f)) for f in facets))
        if not best or image < best[0]:
            best[:] = [image]
            best_labelings[:] = [lab]
        elif image == best[0]:
            best_labelings.append(lab)

    def search(colors):
        colors = _reference_refine(vertices, facets, colors)
        byc = {}
        for v in vertices:
            byc.setdefault(colors[v], []).append(v)
        target = next((sorted(byc[c]) for c in sorted(byc) if len(byc[c]) > 1), None)
        if target is None:
            leaf(colors)
            return
        for v in target:
            branched = {w: 2 * colors[w] for w in vertices}
            branched[v] -= 1
            ranking = {c: i for i, c in enumerate(sorted(set(branched.values())))}
            search({w: ranking[branched[w]] for w in vertices})

    deg = {v: K.degree(v) for v in vertices}
    ranking = {d: i for i, d in enumerate(sorted(set(deg.values())))}
    search({v: ranking[deg[v]] for v in vertices})
    return best[0], best_labelings


def _reference_designated(OC: OrientedComplex, facets, labelings):
    """The oriented key and designated labelings by transporting every facet
    sign: each labeling must keep all signs of the representative or flip
    them all."""
    rep = orient(Complex(facets, _validated=True)).facet_signs
    pres, rev = [], []
    for lab in labelings:
        eps = set()
        for f, s in OC.facet_signs.items():
            image = [lab[v] for v in f]
            eps.add(s * perm_parity(image) * rep[tuple(sorted(image))])
        assert len(eps) == 1
        (pres if eps == {1} else rev).append(lab)
    sign = 0 if pres and rev else (1 if pres else -1)
    return OKey(facets, sign), pres if sign >= 0 else rev


def _assert_matches_reference(K: Complex):
    facets, labelings = _reference_canon(K)
    got = unoriented_canon(K)
    assert got.facets == facets
    assert [list(lab.items()) for lab in got.labelings] == [list(lab.items()) for lab in labelings]
    try:
        OC = orient(K)
    except NonOrientable:
        return
    for M in (OC, -OC):
        key, designated = _reference_designated(M, facets, labelings)
        got_key, got_designated = oriented_canon(M)
        assert got_key == key
        assert [list(lab.items()) for lab in got_designated] == [list(lab.items()) for lab in designated]


def test_relabeled_two_spheres_match_reference():
    rng = random.Random(17)
    for ks in spheres_by_expansion(8).values():
        for k in ks:
            K = Complex(k, _validated=True)
            perm = list(K.vertices)
            rng.shuffle(perm)
            _assert_matches_reference(relabel(K, dict(zip(K.vertices, perm))))


def test_perturbed_cp2_links_match_reference():
    K = perturbed_cp2(seed=4).complex
    for v in K.vertices:
        _assert_matches_reference(K.link((v,)))


@pytest.mark.parametrize(
    "name",
    [
        "boundary_delta_2", "boundary_delta_5", "boundary_delta_6", "cross_3", "cross_4", "octahedron",
        "icosahedron", "rp2_6",
    ],
)
def test_symmetric_complexes_match_reference(name):
    """Long labeling lists: 5,040 for the boundary of the 6-simplex, 384 for
    the 4-dimensional cross-polytope, 120 for the icosahedron."""
    _assert_matches_reference(catalog()[name].complex)


def test_zero_sphere_matches_reference():
    """S^0 is one ridge (the empty face) in two facets; the swap of its two
    points reverses the orientation, so its key is achiral."""
    _assert_matches_reference(boundary_of_simplex(1))
    assert oriented_canon(orient(boundary_of_simplex(1)))[0] == OKey(((0,), (1,)), 0)


@pytest.mark.parametrize("seed, steps", [(1, 5), (5, 12)])
def test_perturbed_cp2_vertex_and_edge_links_match_reference(seed, steps):
    K = perturbed_cp2(seed, steps).complex
    for sigma in [*K.faces_of_dim(0), *K.faces_of_dim(1)]:
        _assert_matches_reference(K.link(sigma))


def _relabeled(K: Complex, rng: random.Random) -> Complex:
    """K on a random sample of vertex names, so the sorted vertex order is
    shuffled against K's."""
    return relabel(K, dict(zip(K.vertices, rng.sample(range(100), len(K.vertices)))))


def _clear_tables():
    for table in (canonical._ucanon, canonical._ocanon, canonical._class_table):
        table.cache_clear()


def test_known_classes_match_reference_after_early_exit():
    """From cleared tables, the first relabelled copy of each class takes the
    full search and the second stops at its first leaf of that class."""
    rng = random.Random(29)
    classes = [k for ks in spheres_by_expansion(9).values() for k in ks]
    _clear_tables()
    for k in classes:
        for _ in range(2):
            _assert_matches_reference(_relabeled(Complex(k, _validated=True), rng))
    assert len(canonical._class_table()) == len(classes) - 1  # the tetrahedron boundary is not searched


@pytest.mark.parametrize("name", ["boundary_delta_5", "boundary_delta_6", "cross_4", "icosahedron"])
def test_symmetric_complexes_relabeled_after_their_class_is_known(name):
    K = catalog()[name].complex
    unoriented_canon(K)
    _assert_matches_reference(_relabeled(K, random.Random(name)))


@pytest.mark.parametrize("d", range(6))
def test_relabeled_simplex_boundaries_match_reference(d):
    _assert_matches_reference(_relabeled(boundary_of_simplex(d + 1), random.Random(d)))


def test_known_icosahedron_takes_a_few_refinements(monkeypatch):
    """The first relabelled icosahedron walks its whole search tree (120
    optimal leaves); a second one stops at its first optimal leaf."""
    rng = random.Random(5)
    ico = catalog()["icosahedron"].complex
    calls = []
    refine = canonical._refine
    monkeypatch.setattr(canonical, "_refine", lambda *args: calls.append(1) or refine(*args))
    _clear_tables()
    first = unoriented_canon(_relabeled(ico, rng))
    assert len(calls) > 100 and len(first.labelings) == 120
    calls.clear()
    second = unoriented_canon(_relabeled(ico, rng))
    assert len(calls) <= 5 and second.facets == first.facets and len(second.labelings) == 120
