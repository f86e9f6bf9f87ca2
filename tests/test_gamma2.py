import random
from fractions import Fraction

import pytest

from bistellar.errors import InvalidParams, NotApplicable
from bistellar.gamma2 import (
    Gamma2Chain,
    _accept,
    c_of_cycle,
    c_value,
    classify_elementary,
    commutation_cycle,
    decompose_cycle,
    edge_complexity,
    move_complexity,
    sphere_complexity,
)
from bistellar.moves import apply_move, enumerate_moves
from bistellar.simplicial import boundary_of_simplex, orient
from helpers import icosahedron, octahedron, random_loop_cycle, random_walk_sphere


def test_sphere_complexity_examples():
    assert sphere_complexity(orient(boundary_of_simplex(3))) == 4
    assert sphere_complexity(octahedron()) == Fraction(19, 3)  # 6 + 1/3
    assert sphere_complexity(icosahedron()) == Fraction(38, 3)  # 12 + 2/3


def test_move_complexity_examples():
    d3 = orient(boundary_of_simplex(3))
    sub = enumerate_moves(d3)[0]
    assert move_complexity(sub) == 5  # max(4, 5)
    fl = [m for m in enumerate_moves(octahedron()) if len(m.sigma) == 2][0]
    assert move_complexity(fl) == Fraction(19, 3)  # max(6+1/3, 6)


def test_move_complexity_tie_adds_sixth():
    """A flip between two equal-complexity 7-vertex spheres scores +1/6."""
    rng = random.Random(3)
    for _ in range(200):
        L = random_walk_sphere(rng, steps=rng.randrange(1, 5), max_cx=Fraction(8))
        a = sphere_complexity(L)
        for mv in enumerate_moves(L):
            if len(mv.sigma) != 2:
                continue
            res = apply_move(mv)
            if sphere_complexity(res) == a:
                assert move_complexity(mv) == a + Fraction(1, 6)
                return
    pytest.skip("no equal-complexity flip sampled")


def test_commutation_disjoint_supports():
    g = commutation_cycle(octahedron(), (0, 2, 4), (1, 3, 5))
    assert g.kind == "comm-a"
    assert g.value == 0
    assert g.chain.is_cycle()


def test_commutation_rejects_shared_simplex():
    ico = icosahedron()
    # two edges of one triangle: a simplex contains both
    with pytest.raises(NotApplicable):
        commutation_cycle(ico, (0, 1), (0, 2))


def test_commutation_far_apart_flips():
    ico = icosahedron()
    g = commutation_cycle(ico, (0, 1), (9, 10))
    assert g.kind == "comm-g"
    assert g.value == 0
    assert g.chain.is_cycle()


def test_vertex_sharing_insertions_value():
    ico = icosahedron()
    g = commutation_cycle(ico, (0, 1, 2), (0, 5, 6))
    assert g.kind == "comm-b"
    assert sorted(g.params) == [1, 2]
    assert abs(g.value) == Fraction(1, 210)


def test_classify_order_swap_negates():
    ico = icosahedron()
    a = commutation_cycle(ico, (0, 1, 2), (0, 5, 6))
    b = commutation_cycle(ico, (0, 5, 6), (0, 1, 2))
    assert a.value == -b.value


def test_witness_mirror_negates():
    ico = icosahedron()
    for s1, s2 in (((0, 1, 2), (0, 5, 6)), ((0, 1), (9, 11)), ((1, 2), (0, 6))):
        try:
            g = commutation_cycle(ico, s1, s2)
            gm = commutation_cycle(-ico, s1, s2)
        except NotApplicable:
            continue
        assert gm.value == -g.value
        assert gm.chain == g.chain.mirror()


def test_kind_coverage_on_icosahedron():
    ico = icosahedron()
    tris = sorted(ico.facets)
    flips = [m.sigma for m in enumerate_moves(ico) if len(m.sigma) == 2]
    kinds = set()
    for s1 in tris[:6]:
        for s2 in tris[:6]:
            if s1 == s2:
                continue
            try:
                kinds.add(commutation_cycle(ico, s1, s2).kind)
            except NotApplicable:
                pass
    for s1 in tris[:6]:
        for s2 in flips[:12]:
            try:
                kinds.add(commutation_cycle(ico, s1, s2).kind)
            except NotApplicable:
                pass
    for s1 in flips[:12]:
        for s2 in flips[:12]:
            if s1 == s2:
                continue
            try:
                kinds.add(commutation_cycle(ico, s1, s2).kind)
            except NotApplicable:
                pass
    assert {"comm-a", "comm-b", "comm-c", "comm-d", "comm-e", "comm-f", "comm-g", "comm-h", "comm-i"} <= kinds


def test_c_value_table():
    assert c_value("comm-a", ()) == 0
    assert c_value("comm-b", (1, 2)) == Fraction(1, 210)
    assert c_value("comm-c", (1, 2)) == 0  # rho(0,2) and rho(0,1) are both 1/60
    assert c_value("comm-c", (1, 3)) == Fraction(1, 70) - Fraction(1, 60)
    assert c_value("comm-f", (1, 2)) == Fraction(1, 30)
    assert c_value("spec-a", (0, 0, 0)) == Fraction(1, 12)
    assert c_value("spec-b", (1, 1, 2, 2)) == 0
    assert c_value("spec-c", (0, 0, 0, 0, 0)) == 5 * Fraction(1, 6) - Fraction(1, 12)
    with pytest.raises(InvalidParams):
        c_value("comm-b", (-1, 2))


def test_classify_elementary_endpoint():
    ico = icosahedron()
    kind, params, sign = classify_elementary(ico, (0, 1, 2), (0, 5, 6))
    assert kind == "comm-b" and sign in (1, -1)


def test_decompose_zero_chain():
    assert decompose_cycle(Gamma2Chain()) == []


def test_decompose_single_elementary_cycle():
    ico = icosahedron()
    g = commutation_cycle(ico, (0, 1, 2), (0, 5, 6))
    parts = decompose_cycle(g.chain)
    rebuilt = Gamma2Chain()
    for n, piece in parts:
        rebuilt = rebuilt.plus(piece.chain, n)
    assert rebuilt == g.chain
    assert sum((n * piece.value for n, piece in parts), Fraction(0)) == g.value


def test_decompose_random_cycles_residual_zero_and_order_invariant():
    rng = random.Random(271828)
    done = 0
    while done < 20:
        ch = random_loop_cycle(rng)
        if ch is None:
            continue
        done += 1
        v0 = c_of_cycle(ch)
        for seed in (1, 2):
            parts = decompose_cycle(ch, order_seed=seed)
            rebuilt = Gamma2Chain()
            total = Fraction(0)
            for n, piece in parts:
                rebuilt = rebuilt.plus(piece.chain, n)
                total += n * piece.value
            assert rebuilt == ch
            assert total == v0


def test_elementary_cycles_have_zero_boundary():
    ico = icosahedron()
    tris = sorted(ico.facets)
    for s2 in ((1, 3, 4), (9, 10, 11), (4, 9), (9, 11)):
        try:
            g = commutation_cycle(ico, tris[0], s2)
        except NotApplicable:
            continue
        assert g.chain.is_cycle()


def test_chain_serialization_round_trip():
    ico = icosahedron()
    g = commutation_cycle(ico, (0, 1, 2), (0, 5, 6))
    again = Gamma2Chain.from_json(g.chain.to_json())
    assert again == g.chain


def _loop_cycle(seed: int) -> Gamma2Chain:
    rng = random.Random(seed)
    ch = None
    while ch is None:
        ch = random_loop_cycle(rng)
    return ch


def _pieces(parts) -> str:
    return " | ".join(f"{n} {g.kind} {','.join(map(str, g.params))} {g.sign}" for n, g in parts)


# (coefficient, kind, params, sign) of each piece, in order, for the first
# loop cycle of each seed; seed 59 peels one pair through a third move
PINNED_PIECES = {
    (14, None): "-1 comm-f 2,2 -1 | -1 comm-i 1,2 1 | -1 spec-b 3,3,2,3 1 | 1 comm-e 1,1 -1",
    (14, 1): "-1 comm-f 2,2 -1 | -1 comm-i 1,2 1 | 1 spec-b 3,2,3,3 -1 | 1 comm-e 1,1 -1",
    (20, None): "-1 spec-a 3,3,4 1 | 1 comm-f 2,1 -1 | -1 comm-f 1,2 1 | -1 comm-d  -1 | -1 comm-b 2,1 1",
    (20, 1): "-1 comm-d  -1 | -1 comm-f 1,2 1 | -1 spec-a 3,3,4 1 | 1 comm-f 2,1 -1 | -1 comm-b 2,1 1",
    (59, None): (
        "1 comm-e 1,1 -1 | -1 comm-f 2,1 1 | 1 comm-f 3,4 1 | 1 comm-e 1,1 -1 | -1 comm-d  -1 | "
        "1 comm-e 1,2 1 | -1 comm-d  -1 | 1 comm-e 1,1 -1 | -1 comm-f 2,3 1 | 1 comm-b 3,1 1 | "
        "1 comm-b 2,1 1 | -1 comm-b 2,1 1 | 1 comm-i 2,1 1 | 1 comm-i 2,1 1 | 1 comm-f 2,3 1 | "
        "2 spec-a 3,3,3 1 | 1 comm-f 1,2 1 | -1 comm-f 2,1 -1 | -1 comm-b 1,1 1 | 1 comm-b 2,1 1 | "
        "-1 comm-e 1,1 -1 | -1 comm-f 1,1 -1"
    ),
    (59, 1): (
        "1 comm-e 1,2 1 | 1 comm-f 3,4 1 | -1 comm-f 2,3 1 | -1 comm-f 2,1 1 | -1 comm-d  -1 | "
        "1 comm-e 1,1 -1 | -1 comm-d  -1 | 1 comm-e 1,1 -1 | 1 comm-e 1,1 -1 | 1 comm-b 2,1 1 | "
        "-1 comm-b 1,3 1 | 1 comm-b 1,2 1 | 1 comm-i 2,1 1 | 1 comm-i 2,1 1 | -1 comm-f 2,1 -1 | "
        "1 comm-f 2,3 1 | 1 comm-f 1,2 1 | 2 spec-a 3,3,3 1 | -1 comm-b 1,1 1 | 1 comm-b 2,1 1 | "
        "-1 comm-e 1,1 -1 | -1 comm-f 1,1 -1"
    ),
}


@pytest.mark.parametrize("seed, order_seed", sorted(PINNED_PIECES, key=str))
def test_decomposition_pieces_pinned(seed, order_seed):
    parts = decompose_cycle(_loop_cycle(seed), order_seed=order_seed)
    assert _pieces(parts) == PINNED_PIECES[(seed, order_seed)]


def _measure(chain: Gamma2Chain):
    """The whole-chain measure the peeling loop lowers: (max complexity,
    total |weight| there), with (-1, 0) for the empty chain."""
    if not chain.terms:
        return (Fraction(-1), Fraction(0))
    top = max(edge_complexity(k) for k in chain.terms)
    return (top, sum(abs(v) for k, v in chain.terms.items() if edge_complexity(k) == top))


def test_accept_matches_whole_chain_measure():
    """_accept reads only gamma's edges, yet agrees with the whole-chain
    measure for every residual z of some peeling, every piece g of it, every
    edge of g with coefficient +-1 and s = +-1, +-2."""
    seen = {True: 0, False: 0}
    for seed in range(8):
        z = _loop_cycle(seed)
        parts = decompose_cycle(z)
        residuals = [z]
        for n, g in parts[:-1]:
            residuals.append(residuals[-1].plus(g.chain, -n))
        for work in residuals:
            for _, g in parts:
                for key, ce in g.chain.terms.items():
                    if abs(ce) != 1:
                        continue
                    for s in (1, -1, 2, -2):
                        w = work.plus(Gamma2Chain({key: s * ce - work.coeff(key)}))
                        top = _measure(w)[0]
                        got = _accept(w, top, key, g.chain)
                        want = _measure(w.plus(g.chain, -s)) < _measure(w)
                        assert (got is not None) == want
                        assert got is None or got == s
                        seen[want] += 1
    assert seen[True] and seen[False]
