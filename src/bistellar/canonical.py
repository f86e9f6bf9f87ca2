"""Canonical forms and isomorphism-class keys for small complexes.

The canonical labeling is computed by iterative color refinement on the
facet hypergraph plus backtracking over individualization choices, taking the
lexicographically least facet-set image.  Refinement rounds split cells (the
vertices of one color) in place and build signatures only in cells that can
split, and the search individualizes the vertices of the first cell of two
or more.  All optimal labelings are collected
so marked simplices and orientations can be canonicalized as well; any two
differ by an automorphism, so they also give the orbits of Aut(K).

The first full search of a class files its canonical image T in
``_class_table`` with Aut(T) (lambda_i o lambda_0^-1 over the optimal
leaves lambda_i) and P_T, the individualization path of T's identity leaf
(lambda_0 applied to the first optimal leaf's path).  A later search ends at
its first leaf beta whose image is in the table: a table key is a canonical
form, so it is the complex's.  The optimal labelings are then a o beta over
Aut(T).  The search commutes with isomorphisms, so the leaf of mu = a o beta
lies at the path mu^-1(P_T); children are tried in increasing position, so
the search's leaf order is the lexicographic order of the paths, and sorting
by path (``_by_path``) returns the same labelings in the same order as a
full search.  Any isomorphism onto T serves as beta: T itself takes the
identity, and ``transported_labeling`` takes a known one.  The boundary of
a simplex is not searched: every labeling is optimal, in the order of the
permutations that individualize its vertices (``_simplex_perms``).

Keys:

* the unoriented key of a complex is its canonical facet tuple;
* the oriented key ``OKey(facets, sign)`` adds ``sign`` in ``{+1, -1, 0}``,
  where ``0`` means the complex admits an orientation-reversing automorphism
  (so the oriented class equals its mirror).  ``okey(-K)`` is ``okey(K)``
  with the sign negated.  It needs a strongly connected complex.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain, combinations, permutations
from typing import NamedTuple

from .errors import NotPseudomanifold
from .simplicial import Complex, OrientedComplex, Simplex, boundary_of_simplex, coherent_signs, orient, perm_parity

# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

FacetTuple = tuple[Simplex, ...]


class _OKeyFields(NamedTuple):
    facets: FacetTuple
    sign: int


class OKey(_OKeyFields):
    """Identifier of an oriented isomorphism class.

    One object per value for the life of the process: ``OKey(facets, sign)``
    returns the one ``_interned_okey`` holds, so equal keys met in a dict
    are the same object.  The hash is the plain tuple's, computed on first
    use and kept in the instance dict (a ``_replace`` or ``_make`` copy,
    which bypasses ``__new__``, computes its own)."""

    def __new__(cls, facets: FacetTuple, sign: int) -> "OKey":
        return _interned_okey(facets, sign)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = tuple.__hash__(self)
            return h

    def mirror(self) -> "OKey":
        return OKey(self.facets, -self.sign)

    def nvertices(self) -> int:
        return len({v for f in self.facets for v in f})

    def dim(self) -> int:
        return len(self.facets[0]) - 1

    def encode(self) -> str:
        return _encode_okey(self)

    @staticmethod
    def decode(text: str) -> "OKey":
        return _decode_okey(text)


@functools.cache
def _interned_okey(facets: FacetTuple, sign: int) -> OKey:
    """The one ``OKey`` of each value (see ``OKey``)."""
    return _OKeyFields.__new__(OKey, facets, sign)


@functools.cache
def _encode_okey(key: OKey) -> str:
    """``OKey.encode`` memoized on the key: keys are ordered and filed by
    their text, so each is encoded many times."""
    s = {1: "+", -1: "-", 0: "0"}[key.sign]
    return s + ";" + "|".join(",".join(map(str, f)) for f in key.facets)


@functools.cache
def _decode_okey(text: str) -> OKey:
    """``OKey.decode`` memoized on the text: a cache file repeats each class
    key in many edges and certificates."""
    s, body = text.split(";", 1)
    sign = {"+": 1, "-": -1, "0": 0}[s]
    facets = tuple(tuple(int(v) for v in part.split(",")) for part in body.split("|"))
    return OKey(facets, sign)


class CanonicalForm(NamedTuple):
    """Result of ``canonical_form``: labeling plus class keys."""

    labeling: dict
    key: bytes
    oriented_key: bytes | None


# ---------------------------------------------------------------------------
# canonical labeling by refinement + backtracking
# ---------------------------------------------------------------------------


def _refine(facets, star, colors, count, tri):
    """Refine a dense coloring of the positions 0..n-1 with ``count`` colors
    until stable; return it, its color count and its cells (the positions of
    each color in increasing order, color by color; None when the coloring
    was discrete on entry).

    ``star[p]`` indexes the facets (position tuples) containing p.  The
    signature of p is its color plus the sorted tuple of its facets' sorted
    color tuples, and each round's colors rank the signatures.  The textbook
    signature drops one copy of p's color c from each tuple; on a pure
    complex those tuples have one length and all contain c, and dropping
    one c from them is injective and keeps their order, so the ranks are
    the same (on any complex the signature is invariant, so keys stay
    canonical).

    A round works cell by cell (a cell is the positions of one color).  The
    signature starts with the old color, so the new color of p is the number
    of colors the earlier cells end with plus the rank of p's signature
    inside its own cell, and a cell of one position cannot split: signatures
    are built for the other cells only.  When every facet is a triangle
    (``tri``) a facet's color tuple is read as one integer
    (``_triangle_codes``) that orders like the tuple, so a sorted list of
    codes orders like the sorted list of tuples; facets of other or mixed
    sizes keep the tuples, as a shorter tuple orders before the longer ones
    it begins.  A round that splits no cell changes nothing and ends the
    refinement.
    """
    n = len(colors)
    if count == n:
        return colors, count, None
    cells: list[list[int]] = [[] for _ in range(count)]
    for p, c in enumerate(colors):
        cells[c].append(p)
    while True:
        if tri:
            code = _triangle_codes(facets, colors)
        else:
            code = [tuple(sorted(map(colors.__getitem__, f))) for f in facets]
        split = []
        for cell in cells:
            if len(cell) > 1:
                sigs = [sorted(map(code.__getitem__, star[p])) for p in cell]
                if sigs.count(sigs[0]) < len(sigs):
                    last = None
                    for sig, p in sorted(zip(sigs, cell)):
                        if sig == last:
                            split[-1].append(p)
                        else:
                            split.append([p])
                            last = sig
                    continue
            split.append(cell)
        if len(split) == count:
            return colors, count, cells
        cells, count, colors = split, len(split), [0] * n
        for c, cell in enumerate(cells):
            for p in cell:
                colors[p] = c
        if count == n:
            return colors, count, cells


def _triangle_codes(facets, colors) -> list[int]:
    """Each triangle's sorted color triple (a, b, c), sorted by three
    compare-swaps, as the integer with base-2^s digits a, b, c, where 2^s
    exceeds the number of positions: the codes order like the triples."""
    s = len(colors).bit_length()
    out = []
    for a, b, c in facets:
        a, b, c = colors[a], colors[b], colors[c]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        out.append((a << s | b) << s | c)
    return out


class _UCanon(NamedTuple):
    facets: FacetTuple
    labelings: list[dict[int, int]]


def unoriented_canon(K: Complex) -> _UCanon:
    """Canonical facet tuple of K plus every labeling achieving it."""
    return _ucanon(K.facets)


@functools.cache
def _class_table() -> dict[FacetTuple, list[tuple[list[int], tuple[int, ...]]]]:
    """Each canonical image T found by a full search in this process, with
    the pairs (a, a^-1(P_T)) over Aut(T), where P_T is the individualization
    path of T's identity leaf.  Read off that search: a = lambda_i o
    lambda_0^-1 over its optimal leaves, and P_T = lambda_0(first optimal
    leaf's path)."""
    return {}


@functools.cache
def _ucanon(facet_set: frozenset) -> _UCanon:
    """``unoriented_canon`` memoized on the facet set.  The search runs on
    the positions of the sorted vertices and keeps each leaf as its color
    list; only the optimal leaves become labeling dicts, in leaf order.  A
    leaf whose image is in ``_class_table`` ends the search (see the module
    docstring)."""
    deg = Counter(chain.from_iterable(facet_set))
    vertices = sorted(deg)
    n = len(vertices)
    if len(facet_set) == n and all(len(f) == n - 1 for f in facet_set):
        # the boundary of a simplex: the search individualizes the vertices
        # one by one in every order, and every leaf is optimal
        return _UCanon(tuple(combinations(range(n), n - 1)), [dict(zip(vertices, a)) for a, _, _ in _simplex_perms(n)])
    pos = {v: p for p, v in enumerate(vertices)}
    facets = sorted([tuple(map(pos.__getitem__, f)) for f in facet_set])
    star: list[list[int]] = [[] for _ in vertices]
    for j, f in enumerate(facets):
        for p in f:
            star[p].append(j)
    table = _class_table()
    image = tuple(facets)
    if image in table:
        # a filed canonical image T is its own first leaf, beta = identity
        return _UCanon(image, [dict(zip(vertices, lab)) for lab in _by_path(table[image], list(range(n)))])
    tri = all(len(f) == 3 for f in facets)
    best: list[FacetTuple] = []
    leaves: list[tuple[list[int], tuple[int, ...]]] = []  # each optimal leaf and its path

    def search(colors, count, path):
        """Walk the subtree; return the image and coloring of the first leaf
        on a known class, or None."""
        colors, count, cells = _refine(facets, star, colors, count, tri)
        if count == n:
            image = _image(facets, colors, tri)
            if image in table:
                return image, colors
            if not best or image < best[0]:
                best[:], leaves[:] = [image], []
            if image == best[0]:
                leaves.append((colors, path))
            return None
        # individualize each vertex of the first cell of two or more: give it
        # a fresh color strictly below the rest of its cell, keeping the
        # coloring dense
        cell = next(c for c, ps in enumerate(cells) if len(ps) > 1)
        for p in cells[cell]:
            child = [x if x < cell else x + 1 for x in colors]
            child[p] = cell
            hit = search(child, count + 1, (*path, p))
            if hit:
                return hit
        return None

    # seed colors with vertex degrees to shrink the search tree
    ranking = {d: i for i, d in enumerate(sorted(set(deg.values())))}
    hit = search([ranking[deg[v]] for v in vertices], len(ranking), ())
    if hit:
        image, beta = hit
        labels = _by_path(table[image], beta)
    else:
        # leaf i gives a = lambda_i o lambda_0^-1 and a^-1(P_T) = lambda_0(its
        # path), since P_T = lambda_i(path of leaf i) for every optimal i
        image = best[0]
        lam0 = leaves[0][0]
        inv0 = _inverse(lam0)
        table[image] = [([lab[p] for p in inv0], tuple(map(lam0.__getitem__, path))) for lab, path in leaves]
        labels = [lab for lab, _ in leaves]
    return _UCanon(image, [dict(zip(vertices, colors)) for colors in labels])


def _image(facets, labels, tri) -> FacetTuple:
    """The sorted facet tuple of the image of ``facets`` under ``labels``."""
    if not tri:
        return tuple(sorted([tuple(sorted(map(labels.__getitem__, f))) for f in facets]))
    # the compare-swaps of _triangle_codes; decoding sorted codes costs more
    out = []
    for a, b, c in facets:
        a, b, c = labels[a], labels[b], labels[c]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        out.append((a, b, c))
    out.sort()
    return tuple(out)


def _by_path(entries: list[tuple[list[int], tuple[int, ...]]], beta: list[int]) -> list[list[int]]:
    """a o beta over the table entries (a, a^-1(P_T)) in the search's leaf
    order: by the path beta^-1(a^-1(P_T)) of the leaf of a o beta."""
    inv = _inverse(beta)
    ranked = sorted((tuple(map(inv.__getitem__, q)), a) for a, q in entries)
    return [[a[b] for b in beta] for _, a in ranked]


@functools.cache
def _simplex_perms(n: int) -> list[tuple[list[int], tuple[int, ...], int]]:
    """The labelings of the boundary of a simplex on n vertices in search
    order: for each order p in which the search individualizes the sorted
    vertices, their labels p^-1, the leaf's path p and p's parity."""
    return [(_inverse(p), p, perm_parity(p)) for p in permutations(range(n))]


@functools.cache
def _kept(facets: FacetTuple) -> list[tuple[list[int], tuple[int, ...]]]:
    """The entries (a, a^-1(P_T)) of T in ``_class_table`` whose a keeps T's
    orientation; a complex with designated labeling lab has a o lab over them.
    A simplex boundary, never filed, keeps the even permutations; a class
    emptied from the table is searched again."""
    rep, f = _rep_signs(facets), facets[0]
    if len(facets) == len(f) + 1:  # the boundary of a simplex, as in _ocanon
        return [(a, p) for a, p, parity in _simplex_perms(len(facets)) if parity == 1]
    if facets not in _class_table():
        _ucanon.__wrapped__(frozenset(facets))
    entries = _class_table()[facets]
    return [(a, q) for a, q in entries if perm_parity(i := [a[v] for v in f]) * rep[tuple(sorted(i))] == rep[f]]


def transported_labeling(key: OKey, psi: dict[int, int]) -> dict[int, int]:
    """The first designated labeling of a complex that ``psi`` maps onto
    ``materialize(key)`` keeping the orientation: a o psi for the a in
    ``_kept`` of least path psi^-1(a^-1(P_T)) (``_by_path``)."""
    vertices = sorted(psi)
    inv = _inverse([psi[v] for v in vertices])
    a = min(_kept(key.facets), key=lambda e: [inv[x] for x in e[1]])[0]
    return {v: a[psi[v]] for v in vertices}


def _inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return inv


@functools.cache
def _rep_signs(facets: FacetTuple) -> dict[Simplex, int]:
    """Coherent facet signs of the canonical representative (seed +1), which
    must be strongly connected (one component): then the sign of one facet
    fixes them all."""
    signs, parts = coherent_signs(facets)
    if parts > 1:
        raise NotPseudomanifold("an oriented class key needs a strongly connected complex")
    return signs


def oriented_canon(OC: OrientedComplex) -> tuple[OKey, list[dict[int, int]]]:
    """The oriented key of OC and its designated labelings (in the order of
    ``unoriented_canon``), those onto the representative the key names."""
    f = min(OC.facets)
    return _ocanon(OC.facets, f, OC.facet_signs[f])


@functools.cache
def _ocanon(facet_set: frozenset, facet: Simplex, facet_sign: int) -> tuple[OKey, list[dict[int, int]]]:
    """``oriented_canon`` memoized on the facet set and one facet's sign.
    On a strongly connected closed pseudomanifold a labeling keeps the sign
    of every facet or flips them all, so one facet's image classifies it.
    A closed pseudomanifold of dimension d with d + 2 facets is the boundary
    of a simplex: its labelings follow ``_simplex_perms``, and one keeps the
    signs iff its parity is s, +1 iff the first does."""
    u = _ucanon(facet_set)
    rep = _rep_signs(u.facets)
    if len(u.facets) == len(facet) + 1:  # d + 2 facets: the boundary of a simplex
        img = [u.labelings[0][v] for v in facet]
        s = facet_sign * perm_parity(img) * rep[tuple(sorted(img))]
        return OKey(u.facets, 0), [lab for lab, (_, _, p) in zip(u.labelings, _simplex_perms(len(u.facets))) if p == s]
    pres: list[dict[int, int]] = []
    rev: list[dict[int, int]] = []
    for lab in u.labelings:
        img = [lab[v] for v in facet]
        (pres if facet_sign * perm_parity(img) * rep[tuple(sorted(img))] == 1 else rev).append(lab)
    sign = 0 if pres and rev else (1 if pres else -1)
    return OKey(u.facets, sign), pres if sign >= 0 else rev


# ---------------------------------------------------------------------------
# public helpers
# ---------------------------------------------------------------------------


def okey(OC: OrientedComplex) -> OKey:
    return oriented_canon(OC)[0]


def ukey(K: Complex) -> FacetTuple:
    return unoriented_canon(K).facets


def canonical_form(K) -> CanonicalForm:
    """Spec-facing wrapper returning labeling plus byte keys."""
    if isinstance(K, OrientedComplex):
        key, labs = oriented_canon(K)
        return CanonicalForm(
            labeling=dict(labs[0]),
            key=repr(key.facets).encode(),
            oriented_key=key.encode().encode(),
        )
    u = unoriented_canon(K)
    return CanonicalForm(labeling=dict(u.labelings[0]), key=repr(u.facets).encode(), oriented_key=None)


def designated_labelings(OC: OrientedComplex) -> list[dict[int, int]]:
    """Labelings onto the canonical rep carrying OC's orientation to the one
    designated by its oriented key (+rep for sign >= 0, -rep for sign == -1)."""
    return oriented_canon(OC)[1]


def marked_encoding(OC: OrientedComplex, sigma: Simplex) -> tuple:
    """Complete invariant of the oriented pair (OC, sigma): min canonical image."""
    labs = designated_labelings(OC)
    return min(tuple(sorted(lab[v] for v in sigma)) for lab in labs)


def materialize(key: OKey) -> OrientedComplex:
    """Concrete oriented representative of an oriented class key."""
    rep = _rep_signs(key.facets)
    signs = rep if key.sign >= 0 else {f: -s for f, s in rep.items()}
    return OrientedComplex(Complex(key.facets, _validated=True), dict(signs), check=False)


@functools.cache
def simplex_boundary_key(dim: int) -> OKey:
    """The oriented class of the boundary of the (dim + 1)-simplex."""
    return okey(orient(boundary_of_simplex(dim + 1)))


def oriented_isomorphism(A: OrientedComplex, B: OrientedComplex) -> dict[int, int] | None:
    """Some orientation-preserving isomorphism A -> B, or None.  One exists
    iff the oriented keys are equal; then the first designated labelings compose."""
    (ka, la), (kb, lb) = oriented_canon(A), oriented_canon(B)
    if ka != kb:
        return None
    inv = {c: v for v, c in lb[0].items()}
    return {v: inv[c] for v, c in la[0].items()}


def relabel(K: Complex, mapping: dict[int, int]) -> Complex:
    return Complex({tuple(sorted(mapping[v] for v in f)) for f in K.facets}, _validated=True)


def relabel_oriented(OC: OrientedComplex, mapping: dict[int, int]) -> OrientedComplex:
    signs: dict[Simplex, int] = {}
    for f, s in OC.facet_signs.items():
        image = [mapping[v] for v in f]
        signs[tuple(sorted(image))] = s * perm_parity(image)
    return OrientedComplex(Complex(signs.keys(), _validated=True), signs, check=False)
