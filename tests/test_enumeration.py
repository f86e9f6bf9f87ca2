"""The 2-sphere expansion climbs the complexity order: its moves, the
induction step that makes it complete, and the all-flips expansion it
replaced, kept here as the oracle."""

import random
from collections import Counter, deque
from itertools import chain

from bistellar.canonical import relabel_oriented, ukey, unoriented_canon
from bistellar.enumeration import _canonical_parent, _kept_subdivisions, spheres_by_expansion
from bistellar.moves import (
    BistellarMove,
    apply_move,
    complexity_thirds,
    decreasing_moves,
    enumerate_moves,
    increasing_moves,
    move_tau,
)
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


def _invariant(L, mv):
    """The degree invariant of a move on L: the degrees of sigma, then of
    tau, each sorted."""
    return sorted(L.degrees[v] for v in mv.sigma), sorted(L.degrees[v] for v in mv.tau)


def _parent_is_canonical(up, child):
    """The definition the expansion keys a child by: the inverse of the
    raising move ``up`` has the largest invariant of the child's decreasing
    moves."""
    inverse = next(d for d in decreasing_moves(child) if (d.sigma, d.tau) == (up.tau, up.sigma))
    return _invariant(child, inverse) == max(_invariant(child, d) for d in decreasing_moves(child))


def test_every_class_is_reached_by_a_raising_move():
    """The induction step of the expansion: every class with 5 to 10
    vertices, relabelled at random, has a decreasing move, the result of
    each is a class of the expansion of lower complexity, and
    ``increasing_moves`` of that result holds the inverse move (tau on
    sigma).  For a decreasing move d of largest invariant, that inverse
    passes the canonical-parent filter the expansion applies, read off the
    parent for a subdivision and off the child for a flip."""
    out = spheres_by_expansion(10)
    known = set(chain.from_iterable(out.values()))
    assert decreasing_moves(orient(boundary_of_simplex(3))) == []
    rng = random.Random(5)
    kinds = Counter()
    for L in _classes(10)[1:]:
        assert 5 <= len(L.vertices) <= 10
        L = relabel_oriented(L, dict(zip(L.vertices, rng.sample(range(3 * len(L.vertices)), len(L.vertices)))))
        c = complexity_thirds(L.degrees.values())
        moves = decreasing_moves(L)
        assert moves
        best = max(_invariant(L, d) for d in moves)
        for mv in moves:
            assert ukey(mv.result.complex) in known
            assert complexity_thirds(mv.result.degrees.values()) < c
            up = next(m for m in increasing_moves(mv.result) if m.sigma == mv.tau)
            if _invariant(L, mv) == best:
                child = apply_move(up)
                assert ukey(child.complex) == ukey(L.complex)
                assert _parent_is_canonical(up, child)
                assert up.sigma in _kept_subdivisions(mv.result) if len(up.sigma) == 3 else _canonical_parent(up, child)
                kinds[len(up.sigma)] += 1
    assert kinds[2] and kinds[3]


def test_canonical_parent_filter_matches_its_definition():
    """The filter the expansion applies equals the child-side definition:
    for every facet subdivision of every class below 10 vertices (read off
    the parent) and every raising flip of every class up to 10 vertices
    (read off the child), each class also relabelled at random.  Both
    verdicts occur for both kinds."""
    rng = random.Random(3)
    verdicts = Counter()
    for L in _classes(10):
        image = rng.sample(range(3 * len(L.vertices)), len(L.vertices))
        for S in (L, relabel_oriented(L, dict(zip(L.vertices, image)))):
            kept = _kept_subdivisions(S)
            for up in increasing_moves(S):
                if len(up.sigma) == 3 and len(S.vertices) == 10:
                    continue
                child = apply_move(up)
                want = _parent_is_canonical(up, child)
                got = up.sigma in kept if len(up.sigma) == 3 else _canonical_parent(up, child)
                assert got == want, (S.facets, up.sigma)
                verdicts[len(up.sigma), want] += 1
    assert len(verdicts) == 4


# 14 vertices, minimal degree 4.  The edge (0, 1) at the degree-4 vertex 0
# ranks above every flip, ([4, 8], [7, 8]) against ([4, 8], [5, 8]) for
# (0, 5), but its opposite vertices 5 and 13 span an edge, so it is no move.
NO_FLIP_ON_TOP = [
    (0, 1, 5), (0, 1, 13), (0, 5, 12), (0, 12, 13), (1, 2, 4), (1, 2, 13), (1, 4, 9), (1, 5, 8),
    (1, 8, 11), (1, 9, 11), (2, 4, 8), (2, 5, 8), (2, 5, 13), (3, 5, 6), (3, 5, 13), (3, 6, 7),
    (3, 7, 13), (4, 8, 10), (4, 9, 10), (5, 6, 12), (6, 7, 12), (7, 12, 13), (8, 10, 11), (9, 10, 11),
]


def test_an_edge_that_is_no_flip_does_not_compete():
    """Only the moves of ``decreasing_moves`` compete for the canonical
    parent: an edge at a vertex of minimal degree whose opposite vertices
    are already joined is no flip, however high it ranks.  No class up to
    12 vertices has such an edge on top, so this sphere is built by hand."""
    C = orient(Complex(NO_FLIP_ON_TOP))
    assert min(C.degrees.values()) == 4 and move_tau(C, (0, 1)) is None
    no_flip = _invariant(C, BistellarMove(C, (0, 1), (5, 13)))
    assert no_flip > max(_invariant(C, d) for d in decreasing_moves(C))
    verdicts = []
    for d in decreasing_moves(C):
        up = next(m for m in increasing_moves(d.result) if m.sigma == d.tau)
        child = apply_move(up)
        verdicts.append(_parent_is_canonical(up, child))
        assert _canonical_parent(up, child) == verdicts[-1]
    assert True in verdicts and False in verdicts


def test_expansion_keys_only_canonical_children(monkeypatch):
    """A cold ``spheres_by_expansion(10)`` makes 316 canonical searches for
    its 306 classes (626 when it keyed every child of one move per orbit)
    and applies 384 moves (649): subdivisions failing the filter are never
    applied, and a state at the vertex bound builds none.  It asks 975
    times for a tau (2,205 when the filter listed every decreasing move of
    a flip child instead of stopping at the first that outranks)."""
    import bistellar.enumeration as enumeration_mod
    import bistellar.moves as moves_mod
    from bistellar.canonical import _class_table, _ucanon

    applied, grown, taus = [], [], []
    real_apply, real_increasing = enumeration_mod.apply_move, enumeration_mod.increasing_moves
    real_tau = moves_mod.move_tau
    monkeypatch.setattr(enumeration_mod, "apply_move", lambda mv: applied.append(mv) or real_apply(mv))
    monkeypatch.setattr(enumeration_mod, "increasing_moves", lambda S: grown.append(S) or real_increasing(S))
    for mod in (moves_mod, enumeration_mod):
        monkeypatch.setattr(mod, "move_tau", lambda *a, **k: taus.append(a) or real_tau(*a, **k))
    _ucanon.cache_clear()
    _class_table.cache_clear()
    out = spheres_by_expansion(10)
    assert sum(map(len, out.values())) == 306
    assert _ucanon.cache_info().misses <= 320
    assert len(applied) <= 400
    assert max(len(S.vertices) for S in grown) == 9
    assert len(taus) == 975


def test_expansion_equals_all_flips_reference():
    for n in range(3, 11):
        assert spheres_by_expansion(n) == _reference_expansion(n)


def test_eleven_vertex_count():
    """OEIS A000109: 1, 1, 2, 5, 14, 50, 233, 1249 classes on 4..11 vertices."""
    out = spheres_by_expansion(11)
    assert {n: len(ks) for n, ks in out.items()} == {4: 1, 5: 1, 6: 2, 7: 5, 8: 14, 9: 50, 10: 233, 11: 1249}
