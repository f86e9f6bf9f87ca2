"""The 2-sphere expansion climbs the complexity order: its moves, the
induction step that makes it complete, and the all-flips expansion it
replaced, kept here as the oracle."""

import random
from collections import Counter, deque
from itertools import chain

from bistellar.canonical import relabel_oriented, ukey, unoriented_canon
from bistellar.enumeration import spheres_by_expansion
from bistellar.moves import apply_move, complexity_thirds, decreasing_moves, enumerate_moves, increasing_moves
from bistellar.simplicial import Complex, boundary_of_simplex, orient
from helpers import icosahedron, octahedron


def _reference_expansion(max_vertices):
    """Breadth-first expansion applying every flip and every facet
    subdivision below the bound, one per automorphism orbit; flips connect
    all n-vertex triangulations of the 2-sphere (Wagner 1936)."""
    if max_vertices < 4:
        return {}
    start = orient(boundary_of_simplex(3))
    seen = {ukey(start.complex): 4}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        labs = unoriented_canon(state.complex).labelings
        grow = len(state.vertices) < max_vertices
        orbits = {
            min(tuple(sorted(lab[v] for v in mv.sigma)) for lab in labs): mv
            for mv in enumerate_moves(state)
            if len(mv.sigma) == 2 or (grow and len(mv.sigma) == 3)
        }
        for mv in orbits.values():
            nxt = apply_move(mv)
            k = ukey(nxt.complex)
            if k not in seen:
                seen[k] = len(nxt.vertices)
                frontier.append(nxt)
    out = {n: [] for n in range(4, max_vertices + 1)}
    for k, n in sorted(seen.items()):
        out[n].append(k)
    return out


def _classes(n):
    return [orient(Complex(k, _validated=True)) for k in chain.from_iterable(spheres_by_expansion(n).values())]


def test_increasing_moves_build_no_result(monkeypatch):
    """``increasing_moves`` reads its flips off the degree table, yet
    returns the moves of the complexity filter over ``enumerate_moves`` (every
    facet subdivision, and the flips raising the minimal degree), in that
    order: on every 2-sphere class up to 10 vertices in both orientations and
    relabelled at random (minimal degree 3 or 4, no raising flip at 4), the
    octahedron (4), the icosahedron with one edge flipped (4: the flip back
    raises it; no class with fewer than 12 vertices has such a flip) and the
    icosahedron (5: no raising flip).  It neither enumerates nor applies a
    move."""
    import bistellar.enumeration as enumeration_mod
    import bistellar.moves as moves_mod

    real_enum, real_apply = moves_mod.enumerate_moves, moves_mod.apply_move

    def reference(L):
        a = complexity_thirds(L.degrees.values())
        return [mv for mv in real_enum(L) if complexity_thirds(mv.result_degrees().values()) > a]

    calls = []
    monkeypatch.setattr(moves_mod, "apply_move", lambda mv: calls.append(mv) or real_apply(mv))
    monkeypatch.setattr(moves_mod, "enumerate_moves", lambda K: calls.append(K) or real_enum(K))
    monkeypatch.setattr(enumeration_mod, "apply_move", moves_mod.apply_move)
    monkeypatch.setattr(enumeration_mod, "enumerate_moves", moves_mod.enumerate_moves, raising=False)
    rng = random.Random(11)
    cases = []
    for L in _classes(10):
        image = rng.sample(range(3 * len(L.vertices)), len(L.vertices))
        cases += [L, -L, relabel_oriented(L, dict(zip(L.vertices, image)))]
    assert len(cases) == 918
    ico = icosahedron()
    flipped = real_apply(next(mv for mv in real_enum(ico) if len(mv.sigma) == 2))
    cases += [octahedron(), flipped, ico]
    flips = Counter()
    for L in cases:
        calls.clear()
        got = increasing_moves(L)
        assert calls == []
        want = reference(L)
        assert [(m.sigma, m.tau) for m in got] == [(m.sigma, m.tau) for m in want]
        assert sum(len(m.sigma) == 3 for m in want) == len(L.facets)
        flips[min(L.degrees.values())] += sum(len(m.sigma) == 2 for m in want)
    assert [min(L.degrees.values()) for L in cases[-3:]] == [4, 4, 5]
    assert flips[3] and flips[4] == 1 and not flips[5]


def test_every_class_is_reached_by_a_raising_move():
    """The induction step of the expansion: every class with 5 to 10
    vertices has a decreasing move, the result of each is a class of the
    expansion of lower complexity, and ``increasing_moves`` of that result
    holds the inverse move (tau on sigma)."""
    out = spheres_by_expansion(10)
    known = set(chain.from_iterable(out.values()))
    assert decreasing_moves(orient(boundary_of_simplex(3))) == []
    for L in _classes(10)[1:]:
        assert 5 <= len(L.vertices) <= 10
        c = complexity_thirds(L.degrees.values())
        moves = decreasing_moves(L)
        assert moves
        for mv in moves:
            assert ukey(mv.result.complex) in known
            assert complexity_thirds(mv.result.degrees.values()) < c
            assert mv.tau in {up.sigma for up in increasing_moves(mv.result)}


def test_expansion_equals_all_flips_reference():
    for n in range(3, 11):
        assert spheres_by_expansion(n) == _reference_expansion(n)


def test_eleven_vertex_count():
    """OEIS A000109: 1, 1, 2, 5, 14, 50, 233, 1249 classes on 4..11 vertices."""
    out = spheres_by_expansion(11)
    assert {n: len(ks) for n, ks in out.items()} == {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249}
