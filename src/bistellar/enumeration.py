"""Enumeration of small 2-sphere triangulations.

Two independent routes back each other:

* bistellar expansion from the tetrahedron boundary with canonical
  deduplication (the production path).  It climbs the complexity order of
  the 2-spheres (k, k+1/3, k+2/3 for k vertices and minimal degree 3, 4,
  at least 5; ``moves.complexity_thirds``).  A state applies only the
  moves that raise its complexity (``moves.increasing_moves``): every facet
  subdivision below the vertex bound, and the flips that raise its minimal
  degree, one per orbit of its automorphism group, named by the least
  canonical image of sigma over the state's optimal labelings (any two
  differ by an automorphism).  It keys a child C, reached by the move m,
  only if m is C's canonical parent move (McKay's canonical construction
  path): the inverse of m has the largest degree invariant (the degrees of
  sigma, then of tau, each sorted) among C's complexity-decreasing moves
  (``moves.decreasing_moves``).  That reaches every class, by induction on
  complexity: a 2-sphere C other than the tetrahedron boundary has a
  decreasing move d of largest invariant; its result has lower complexity
  and at most as many vertices, so the expansion reached it and applied
  the inverse of d or an automorphic image of it, whose child passes.
  Ties pass too; the keys already seen drop the repeats;
* a brute-force facet-set enumerator over labeled triangle sets (the test
  oracle; every isomorphism class on n vertices has a labeling containing
  the seed triangle (0,1,2), so seeding there loses nothing).
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, combinations

from .canonical import FacetTuple, okey, ukey, unoriented_canon
from .moves import BistellarMove, apply_move, decreasing_sigmas, increasing_moves, move_tau, raising_flips
from .simplicial import Complex, OrientedComplex, Simplex, boundary_of_simplex, orient
from .spheres import is_combinatorial_sphere


def spheres_by_expansion(max_vertices: int) -> dict[int, list[FacetTuple]]:
    """Unoriented 2-sphere classes with at most ``max_vertices`` vertices, by
    the expansion of the module docstring.  A subdivision is tested for a
    canonical parent before it is applied, a flip on its result."""
    if max_vertices < 4:
        return {}  # no 2-sphere has fewer than 4 vertices
    start = orient(boundary_of_simplex(3))
    seen: dict[FacetTuple, int] = {ukey(start): 4}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        labs = unoriented_canon(state).labelings
        grow = len(state.vertices) < max_vertices
        kept = _kept_subdivisions(state) if grow else ()
        orbits = {
            min(tuple(sorted(lab[v] for v in mv.sigma)) for lab in labs): mv
            for mv in (increasing_moves(state) if grow else raising_flips(state))
            if len(mv.sigma) == 2 or mv.sigma in kept
        }
        for mv in orbits.values():
            nxt = apply_move(mv)
            if (len(mv.sigma) == 3 or _canonical_parent(mv, nxt)) and (k := ukey(nxt)) not in seen:
                seen[k] = len(nxt.vertices)
                frontier.append(nxt)
    keys = sorted(seen)
    return {n: [k for k in keys if seen[k] == n] for n in range(4, max_vertices + 1)}


def _canonical_parent(mv: BistellarMove, child: OrientedComplex) -> bool:
    """True iff the inverse of the raising move ``mv`` onto ``child`` has the
    largest degree invariant among the decreasing moves of ``child``, which
    include it: it fails at the first that outranks it, and a tau is sought
    only where the degrees of sigma reach the inverse's."""
    degs = child.degrees
    mine = sorted(degs[v] for v in mv.tau), sorted(degs[v] for v in mv.sigma)
    for s in decreasing_sigmas(child):
        first = sorted(degs[v] for v in s)
        if first >= mine[0] and (t := move_tau(child, s)) is not None and (first, sorted(degs[v] for v in t)) > mine:
            return False
    return True


def _kept_subdivisions(S: OrientedComplex) -> set[Simplex]:
    """The facets of S whose subdivision passes ``_canonical_parent``, read
    off S: the child's decreasing moves remove the new vertex and the
    degree-3 vertices of S off the facet (a facet vertex gains a degree)."""
    degs = S.degrees
    thirds = [(v, {w for f in S.facets_containing((v,)) for w in f} - {v}) for v, d in degs.items() if d == 3]

    def up(ws, f):  # the degrees of ws after subdividing f
        return sorted(degs[w] + (w in f) for w in ws)

    return {f for f in S.facets if all(v in f or up(ws, f) <= up(f, f) for v, ws in thirds)}


def oriented_sphere_classes(classes: int | dict[int, list[FacetTuple]]) -> dict[int, int]:
    """Counts of oriented classes per vertex count (mirror pairs counted
    twice unless self-mirror) of ``spheres_by_expansion(classes)``, or of
    the expansion ``classes`` already made."""
    if isinstance(classes, int):
        classes = spheres_by_expansion(classes)
    counts: dict[int, int] = {}
    for n, keys in classes.items():
        counts[n] = sum(1 if okey(orient(Complex(k, _validated=True))).sign == 0 else 2 for k in keys)
    return counts


def spheres_brute_force(n: int) -> list[FacetTuple]:
    """All 2-sphere triangulations on exactly n vertices, up to isomorphism,
    by completing open edges of labeled triangle sets."""
    target_facets = 2 * n - 4
    found: set[FacetTuple] = set()
    edge_use: Counter = Counter()
    tris: list[Simplex] = []

    def search():
        if len(tris) > target_facets:
            return
        opens = sorted(e for e, c in edge_use.items() if c == 1)
        if not opens:
            if len(tris) == target_facets and len(set(chain.from_iterable(tris))) == n:
                K = Complex(tris)
                if is_combinatorial_sphere(K).verdict is True:
                    found.add(ukey(K))
            return
        a, b = opens[0]
        for c in range(n):
            t = tuple(sorted((a, b, c)))
            if c in (a, b) or t in tris or edge_use[min(a, c), max(a, c)] >= 2 or edge_use[min(b, c), max(b, c)] >= 2:
                continue
            tris.append(t)
            edge_use.update(combinations(t, 2))
            search()
            edge_use.subtract(combinations(tris.pop(), 2))

    tris.append((0, 1, 2))
    edge_use.update(combinations((0, 1, 2), 2))
    search()
    return sorted(found)
