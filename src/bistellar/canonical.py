"""Canonical forms and isomorphism-class keys for small complexes.

The canonical labeling is computed by iterative color refinement on the
facet hypergraph plus backtracking over individualization choices, taking the
lexicographically least facet-set image.  All optimal labelings are collected
so marked simplices and orientations can be canonicalized as well.

Keys:

* the unoriented key of a complex is its canonical facet tuple;
* the oriented key ``OKey(facets, sign)`` adds ``sign`` in ``{+1, -1, 0}``,
  where ``0`` means the complex admits an orientation-reversing automorphism
  (so the oriented class equals its mirror).  ``okey(-K)`` is ``okey(K)``
  with the sign negated.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

from .simplicial import Complex, OrientedComplex, Simplex, orient, perm_parity

# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

FacetTuple = tuple[Simplex, ...]


class OKey(NamedTuple):
    """Identifier of an oriented isomorphism class."""

    facets: FacetTuple
    sign: int

    def mirror(self) -> "OKey":
        return OKey(self.facets, -self.sign)

    def nvertices(self) -> int:
        return len({v for f in self.facets for v in f})

    def dim(self) -> int:
        return len(self.facets[0]) - 1

    def encode(self) -> str:
        s = {1: "+", -1: "-", 0: "0"}[self.sign]
        return s + ";" + "|".join(",".join(map(str, f)) for f in self.facets)

    @staticmethod
    def decode(text: str) -> "OKey":
        s, body = text.split(";", 1)
        sign = {"+": 1, "-": -1, "0": 0}[s]
        facets = tuple(tuple(int(v) for v in part.split(",")) for part in body.split("|"))
        return OKey(facets, sign)


@dataclass(frozen=True)
class CanonicalForm:
    """Result of ``canonical_form``: labeling plus class keys."""

    labeling: dict
    key: bytes
    oriented_key: bytes | None


# ---------------------------------------------------------------------------
# canonical labeling by refinement + backtracking
# ---------------------------------------------------------------------------


def _refine(vertices, facets, star, colors):
    """Refine vertex colors by facet signatures until stable.

    The signature of v is its color plus the sorted multiset of the color
    tuples of its facets with v left out; new colors are the dense ranks of
    the signatures.  ``star[v]`` lists the indices in ``facets`` of the
    facets containing v.  A discrete dense coloring is a fixed point, so it
    is returned at once.
    """
    n = len(vertices)
    while len(set(colors.values())) < n:
        facet_colors = [tuple(sorted([colors[w] for w in f])) for f in facets]
        sig = {}
        for v in vertices:
            c = colors[v]
            inc = []
            for j in star[v]:
                cs = facet_colors[j]
                i = cs.index(c)
                inc.append(cs[:i] + cs[i + 1 :])
            inc.sort()
            sig[v] = (c, tuple(inc))
        ranking = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: ranking[sig[v]] for v in vertices}
        if new == colors:
            return colors
        colors = new
    return colors


def _first_nonsingleton_cell(vertices, colors):
    """Vertices of the least color shared by two or more, ascending; None
    when the coloring is discrete."""
    byc: dict[int, list[int]] = {}
    for v in vertices:
        byc.setdefault(colors[v], []).append(v)
    for c in sorted(byc):
        if len(byc[c]) > 1:
            return byc[c]
    return None


class _UCanon:
    __slots__ = ("facets", "labelings")

    def __init__(self, facets: FacetTuple, labelings: list[dict[int, int]]):
        self.facets = facets
        self.labelings = labelings


def unoriented_canon(K: Complex) -> _UCanon:
    """Canonical facet tuple of K plus every labeling achieving it."""
    return _ucanon(K.facets)


@functools.cache
def _ucanon(facet_set: frozenset) -> _UCanon:
    """``unoriented_canon`` memoized on the facet set."""
    deg = Counter(chain.from_iterable(facet_set))
    vertices = sorted(deg)
    facets = sorted(facet_set)
    best: list[FacetTuple] = []
    best_labelings: list[dict[int, int]] = []

    def leaf(colors) -> None:
        lab = {v: colors[v] for v in vertices}
        image = tuple(sorted([tuple(sorted([lab[v] for v in f])) for f in facets]))
        if not best or image < best[0]:
            best[:] = [image]
            best_labelings[:] = [lab]
        elif image == best[0]:
            best_labelings.append(lab)

    def search(colors) -> None:
        colors = _refine(vertices, facets, star, colors)
        target = _first_nonsingleton_cell(vertices, colors)
        if target is None:
            leaf(colors)
            return
        for v in target:
            # individualize: give v a fresh color strictly below the rest of
            # its cell, keeping the coloring dense
            c = colors[v]
            child = {w: x if x < c else x + 1 for w, x in colors.items()}
            child[v] = c
            search(child)

    if not vertices:
        # the empty complex {()} canonicalizes trivially
        return _UCanon(tuple(facets), [{}])
    # seed colors with vertex degrees to shrink the search tree
    ranking = {d: i for i, d in enumerate(sorted(set(deg.values())))}
    star: dict[int, list[int]] = {v: [] for v in vertices}
    for j, f in enumerate(facets):
        for v in f:
            star[v].append(j)
    search({v: ranking[deg[v]] for v in vertices})
    return _UCanon(best[0], best_labelings)


class _OCanon:
    __slots__ = ("okey", "labelings_preserving", "labelings_reversing")

    def __init__(self, okey: OKey, pres, rev):
        self.okey = okey
        self.labelings_preserving = pres
        self.labelings_reversing = rev


@functools.cache
def _rep_signs(facets: FacetTuple) -> dict[Simplex, int]:
    """Coherent facet signs of the canonical representative (seed +1)."""
    return orient(Complex(facets, _validated=True)).facet_signs


def oriented_canon(OC: OrientedComplex) -> _OCanon:
    return _ocanon(OC.complex.facets, tuple(sorted(OC.facet_signs.items())))


@functools.cache
def _ocanon(facet_set: frozenset, signs: tuple[tuple[Simplex, int], ...]) -> _OCanon:
    """``oriented_canon`` memoized on the facet set and the sorted signs."""
    u = _ucanon(facet_set)
    rep = _rep_signs(u.facets)
    pres: list[dict[int, int]] = []
    rev: list[dict[int, int]] = []
    for lab in u.labelings:
        # +1 where lab carries the signs onto the representative's, -1 onto its mirror's
        eps = {s * perm_parity(img := [lab[v] for v in f]) * rep[tuple(sorted(img))] for f, s in signs}
        if len(eps) == 1:  # else mixed per-component transport; cannot happen for connected input
            (pres if eps.pop() == 1 else rev).append(lab)
    sign = 0 if pres and rev else (1 if pres else -1)
    return _OCanon(OKey(u.facets, sign), pres, rev)


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------


def okey(OC: OrientedComplex) -> OKey:
    return oriented_canon(OC).okey


def ukey(K: Complex) -> FacetTuple:
    return unoriented_canon(K).facets


def canonical_form(K) -> CanonicalForm:
    """Spec-facing wrapper returning labeling plus byte keys."""
    if isinstance(K, OrientedComplex):
        oc = oriented_canon(K)
        lab = (oc.labelings_preserving or oc.labelings_reversing)[0]
        ufacets = oc.okey.facets
        return CanonicalForm(
            labeling=dict(lab),
            key=repr(ufacets).encode(),
            oriented_key=oc.okey.encode().encode(),
        )
    u = unoriented_canon(K)
    return CanonicalForm(labeling=dict(u.labelings[0]), key=repr(u.facets).encode(), oriented_key=None)


def designated_labelings(OC: OrientedComplex) -> list[dict[int, int]]:
    """Labelings onto the canonical rep carrying OC's orientation to the one
    designated by its oriented key (+rep for sign >= 0, -rep for sign == -1)."""
    oc = oriented_canon(OC)
    if oc.okey.sign >= 0:
        return oc.labelings_preserving
    return oc.labelings_reversing


def marked_encoding(OC: OrientedComplex, sigma: Simplex) -> tuple:
    """Complete invariant of the oriented pair (OC, sigma): min canonical image."""
    labs = designated_labelings(OC)
    return min(tuple(sorted(lab[v] for v in sigma)) for lab in labs)


def materialize(key: OKey) -> OrientedComplex:
    """Concrete oriented representative of an oriented class key."""
    rep = _rep_signs(key.facets)
    signs = rep if key.sign >= 0 else {f: -s for f, s in rep.items()}
    return OrientedComplex(Complex(key.facets, _validated=True), dict(signs), check=False)


def oriented_isomorphism(A: OrientedComplex, B: OrientedComplex) -> dict[int, int] | None:
    """Some orientation-preserving isomorphism A -> B, or None."""
    ca, cb = oriented_canon(A), oriented_canon(B)
    if ca.okey.facets != cb.okey.facets:
        return None
    for pa, pb in ((ca.labelings_preserving, cb.labelings_preserving),
                   (ca.labelings_reversing, cb.labelings_reversing)):
        if pa and pb:
            inv = {c: v for v, c in pb[0].items()}
            return {v: inv[c] for v, c in pa[0].items()}
    return None


def relabel(K: Complex, mapping: dict[int, int]) -> Complex:
    return Complex({tuple(sorted(mapping[v] for v in f)) for f in K.facets}, _validated=True)


def relabel_oriented(OC: OrientedComplex, mapping: dict[int, int]) -> OrientedComplex:
    signs: dict[Simplex, int] = {}
    for f, s in OC.facet_signs.items():
        image = [mapping[v] for v in f]
        signs[tuple(sorted(image))] = s * perm_parity(image)
    return OrientedComplex(Complex(signs.keys(), _validated=True), signs, check=False)
