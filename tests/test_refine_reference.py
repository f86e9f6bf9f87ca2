"""Cell-wise refinement against the round-by-round refinement it replaced.

``_rounds_refine`` is the earlier ``canonical._refine``, kept verbatim: every
round builds the full signature of every position and ranks them all.  The
library's ``_refine`` builds signatures only in cells of two or more
positions and reads a triangle's color tuple as one integer; it must return
the same coloring and color count on every call, so the search visits the
same leaves and every key and labeling stays the same.

No other test has a non-pure input: the mixed complexes below hold facets
of two, three and four vertices, where the integer codes must not be used.
``_reference_search`` is the plain search over ``_rounds_refine`` (no class
table, no early exit); ``unoriented_canon`` of a non-pure complex must give
its canonical facets and labelings in the same order.
"""

import random
from collections import Counter

import pytest

import bistellar.canonical as canonical
from bistellar.canonical import relabel, unoriented_canon
from bistellar.enumeration import spheres_by_expansion
from bistellar.simplicial import Complex
from helpers import perturbed_cp2


def _rounds_refine(facets, star, colors, count):
    n = len(colors)
    while count < n:
        facet_colors = [tuple(sorted(map(colors.__getitem__, f))) for f in facets]
        sig = [(c, tuple(sorted(map(facet_colors.__getitem__, s)))) for c, s in zip(colors, star)]
        distinct = set(sig)
        if len(distinct) == count:
            break
        ranking = {s: i for i, s in enumerate(sorted(distinct))}
        colors, count = [ranking[s] for s in sig], len(ranking)
    return colors, count


def _positions(K: Complex):
    """The facets of K on the positions of its sorted vertices, sorted, and
    the facets containing each position: the search's inputs."""
    pos = {v: p for p, v in enumerate(K.vertices)}
    facets = sorted(tuple(pos[v] for v in f) for f in K.facets)
    star = [[j for j, f in enumerate(facets) if p in f] for p in range(len(pos))]
    return facets, star


def _reference_search(K: Complex):
    """The canonical facet tuple of K and its labelings in leaf order."""
    vertices = K.vertices
    facets, star = _positions(K)
    best, labelings = [], []

    def search(colors, count):
        colors, count = _rounds_refine(facets, star, colors, count)
        if count == len(colors):
            image = tuple(sorted(tuple(sorted(colors[p] for p in f)) for f in facets))
            if not best or image < best[0]:
                best[:], labelings[:] = [image], []
            if image == best[0]:
                labelings.append(dict(zip(vertices, colors)))
            return
        cell = min(c for c, k in Counter(colors).items() if k > 1)
        for p in [p for p, c in enumerate(colors) if c == cell]:
            child = [x if x < cell else x + 1 for x in colors]
            child[p] = cell
            search(child, count + 1)

    deg = [len(s) for s in star]
    ranking = {d: i for i, d in enumerate(sorted(set(deg)))}
    search([ranking[d] for d in deg], len(ranking))
    return best[0], labelings


def _mixed_complex(rng: random.Random) -> Complex:
    """A random complex on 5-9 vertices whose facets have at least two sizes
    out of two, three and four vertices."""
    n = rng.randint(5, 9)
    while True:
        drawn = {tuple(sorted(rng.sample(range(n), rng.choice([2, 3, 3, 4])))) for _ in range(rng.randint(4, 14))}
        facets = [f for f in drawn if not any(len(f) < len(g) and set(f) <= set(g) for g in drawn)]
        if len({len(f) for f in facets}) > 1:
            return Complex(facets)


def _recorded(monkeypatch, run):
    """Every ``_refine`` call ``run()`` makes from cleared tables: its
    arguments and its result."""
    calls = []
    refine = canonical._refine

    def spy(facets, star, colors, count, tri):
        out = refine(facets, star, colors, count, tri)
        calls.append(((facets, star, list(colors), count), tri, out))
        return out

    for table in (canonical._ucanon, canonical._ocanon, canonical._class_table):
        table.cache_clear()
    monkeypatch.setattr(canonical, "_refine", spy)
    run()
    return calls


def _assert_same_refinements(calls):
    for args, tri, (colors, count, cells) in calls:
        facets, _, before, n_before = args
        assert tri == all(len(f) == 3 for f in facets)
        assert (colors, count) == _rounds_refine(*args)
        if n_before == len(before):
            assert cells is None
        else:
            assert cells == [[p for p, c in enumerate(colors) if c == k] for k in range(count)]


def test_refinements_of_the_expansion_match_rounds(monkeypatch):
    calls = _recorded(monkeypatch, lambda: spheres_by_expansion(9))
    assert len(calls) > 300 and all(tri for _, tri, _ in calls)
    _assert_same_refinements(calls)


@pytest.mark.parametrize("seed, steps", [(1, 5), (5, 12)])
def test_refinements_of_perturbed_cp2_links_match_rounds(monkeypatch, seed, steps):
    """Vertex links are 3-spheres (tuple codes), edge links 2-spheres
    (integer codes)."""
    K = perturbed_cp2(seed, steps).complex
    links = [K.link(sigma) for sigma in [*K.faces_of_dim(0), *K.faces_of_dim(1)]]
    calls = _recorded(monkeypatch, lambda: [unoriented_canon(L) for L in links])
    assert {tri for _, tri, _ in calls} == {True, False}
    _assert_same_refinements(calls)


def test_refinements_of_mixed_complexes_match_rounds(monkeypatch):
    rng = random.Random(41)
    complexes = [_mixed_complex(rng) for _ in range(60)]
    calls = _recorded(monkeypatch, lambda: [unoriented_canon(K) for K in complexes])
    assert calls and not any(tri for _, tri, _ in calls)
    _assert_same_refinements(calls)


def test_refinements_of_arbitrary_colorings_match_rounds():
    """Random dense colorings, whose cells mix vertex degrees, on mixed
    complexes and on 2-spheres."""
    rng = random.Random(43)
    spheres = [Complex(k, _validated=True) for ks in spheres_by_expansion(8).values() for k in ks]
    for K in [_mixed_complex(rng) for _ in range(40)] + spheres:
        facets, star = _positions(K)
        tri = all(len(f) == 3 for f in facets)
        for _ in range(5):
            drawn = [rng.randrange(len(star)) for _ in star]
            ranking = {c: i for i, c in enumerate(sorted(set(drawn)))}
            colors = [ranking[c] for c in drawn]
            got = canonical._refine(facets, star, list(colors), len(ranking), tri)
            assert got[:2] == _rounds_refine(facets, star, colors, len(ranking))


def test_non_pure_complexes_match_reference_search():
    """Each complex, then a relabelled copy, which ends its search at the
    class filed by the first."""
    rng = random.Random(47)
    for _ in range(60):
        K = _mixed_complex(rng)
        copy = relabel(K, dict(zip(K.vertices, rng.sample(range(100), len(K.vertices)))))
        for L in (K, copy):
            facets, labelings = _reference_search(L)
            got = unoriented_canon(L)
            assert got.facets == facets
            assert [list(lab.items()) for lab in got.labelings] == [list(lab.items()) for lab in labelings]
