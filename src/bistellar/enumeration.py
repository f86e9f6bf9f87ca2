"""Enumeration of small 2-sphere triangulations.

Two independent routes back each other:

* bistellar expansion from the tetrahedron boundary with canonical
  deduplication (the production path);
* a brute-force facet-set enumerator over labeled triangle sets (the test
  oracle; every isomorphism class on n vertices has a labeling containing
  the seed triangle (0,1,2), so seeding there loses nothing).
"""

from __future__ import annotations

from collections import deque

from .canonical import FacetTuple, okey, ukey
from .moves import apply_move, enumerate_moves
from .simplicial import Complex, boundary_of_simplex, orient


def spheres_by_expansion(max_vertices: int) -> dict[int, list[FacetTuple]]:
    """Unoriented 2-sphere classes with at most ``max_vertices`` vertices,
    found by breadth-first bistellar expansion from the tetrahedron."""
    if max_vertices < 4:
        return {}  # no 2-sphere has fewer than 4 vertices
    start = orient(boundary_of_simplex(3))
    seen: dict[FacetTuple, int] = {}
    frontier = deque([start])
    seen[ukey(start.complex)] = 4
    while frontier:
        state = frontier.popleft()
        for mv in enumerate_moves(state):
            if len(mv.sigma) == 3 and len(state.vertices) >= max_vertices:
                continue
            nxt = apply_move(mv)
            if len(nxt.vertices) > max_vertices:
                continue
            k = ukey(nxt.complex)
            if k not in seen:
                seen[k] = len(nxt.vertices)
                frontier.append(nxt)
    out: dict[int, list[FacetTuple]] = {n: [] for n in range(4, max_vertices + 1)}
    for k, n in seen.items():
        out[n].append(k)
    for n in out:
        out[n].sort()
    return out


def oriented_sphere_classes(max_vertices: int) -> dict[int, int]:
    """Counts of oriented classes per vertex count (mirror pairs counted
    twice unless self-mirror)."""
    counts: dict[int, int] = {}
    for n, keys in spheres_by_expansion(max_vertices).items():
        total = 0
        for k in keys:
            K = Complex(k, _validated=True)
            total += 1 if okey(orient(K)).sign == 0 else 2
        counts[n] = total
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
        from .spheres import is_combinatorial_sphere

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
