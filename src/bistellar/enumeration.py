"""Enumeration of small 2-sphere triangulations.

Two independent routes back each other:

* bistellar expansion from the tetrahedron boundary with canonical
  deduplication (the production path).  It climbs the complexity order of
  the 2-spheres (k, k+1/3, k+2/3 for k vertices and minimal degree 3, 4,
  at least 5; ``moves.complexity_thirds``).  A state applies only the
  moves that raise its complexity (``moves.increasing_moves``): every facet
  subdivision below the vertex bound, and the flips that raise its minimal
  degree.  It applies one such move per orbit of its automorphism group,
  named by the least canonical image of sigma over the state's optimal
  labelings (any two differ by an automorphism).  That reaches every
  class, by induction on complexity: every 2-sphere other than the
  tetrahedron boundary has a complexity-decreasing move
  (``moves.decreasing_moves``); its result has lower complexity and at
  most as many vertices, so the expansion reaches that result, and the
  inverse move raises it back to the class;
* a brute-force facet-set enumerator over labeled triangle sets (the test
  oracle; every isomorphism class on n vertices has a labeling containing
  the seed triangle (0,1,2), so seeding there loses nothing).
"""

from __future__ import annotations

from collections import deque

from .canonical import FacetTuple, okey, ukey, unoriented_canon
from .moves import apply_move, increasing_moves
from .simplicial import Complex, boundary_of_simplex, orient
from .spheres import is_combinatorial_sphere


def spheres_by_expansion(max_vertices: int) -> dict[int, list[FacetTuple]]:
    """Unoriented 2-sphere classes with at most ``max_vertices`` vertices,
    found by breadth-first expansion from the tetrahedron with one
    complexity-raising move per automorphism orbit (see the module
    docstring)."""
    if max_vertices < 4:
        return {}  # no 2-sphere has fewer than 4 vertices
    start = orient(boundary_of_simplex(3))
    seen: dict[FacetTuple, int] = {ukey(start.complex): 4}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        labs = unoriented_canon(state.complex).labelings
        grow = len(state.vertices) < max_vertices
        orbits = {
            min(tuple(sorted(lab[v] for v in mv.sigma)) for lab in labs): mv
            for mv in increasing_moves(state)
            if grow or len(mv.sigma) == 2
        }
        for mv in orbits.values():
            nxt = apply_move(mv)
            k = ukey(nxt.complex)
            if k not in seen:
                seen[k] = len(nxt.vertices)
                frontier.append(nxt)
    out: dict[int, list[FacetTuple]] = {n: [] for n in range(4, max_vertices + 1)}
    for k, n in sorted(seen.items()):
        out[n].append(k)
    return out


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
    edge_use: dict[tuple[int, int], int] = {}
    tris: list[tuple[int, int, int]] = []

    def edges_of(t):
        return ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))

    def push(t):
        tris.append(t)
        for e in edges_of(t):
            edge_use[e] = edge_use.get(e, 0) + 1

    def pop():
        t = tris.pop()
        for e in edges_of(t):
            edge_use[e] -= 1

    def open_edges():
        return sorted(e for e, c in edge_use.items() if c == 1)

    def accept():
        used = {v for t in tris for v in t}
        if len(used) != n or len(tris) != target_facets:
            return
        K = Complex(tris)
        if is_combinatorial_sphere(K).verdict is True:
            found.add(ukey(K))

    def search():
        if len(tris) > target_facets:
            return
        opens = open_edges()
        if not opens:
            accept()
            return
        a, b = opens[0]
        present = {tuple(sorted(t)) for t in tris}
        for c in range(n):
            if c in (a, b):
                continue
            t = tuple(sorted((a, b, c)))
            if t in present:
                continue
            if edge_use.get(tuple(sorted((a, c))), 0) >= 2:
                continue
            if edge_use.get(tuple(sorted((b, c))), 0) >= 2:
                continue
            push(t)
            search()
            pop()

    push((0, 1, 2))
    search()
    pop()
    return sorted(found)
