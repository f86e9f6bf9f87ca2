import hashlib
import json
import random

import pytest

import bistellar.reduction as reduction
from bistellar.canonical import okey
from bistellar.errors import BudgetExhausted, InvalidParams
from bistellar.moves import apply_move, enumerate_moves
from bistellar.reduction import MoveSequence, reduce_to_boundary, replay
from bistellar.simplicial import boundary_of_simplex, join, orient
from bistellar.spheres import is_combinatorial_sphere
from bistellar.library import cp2_9
from helpers import blocked_spheres, icosahedron, octahedron, perturbed_cp2, random_sphere


def _cross_polytope():
    s0 = boundary_of_simplex(1)
    four, _, _ = join(s0, s0)
    cp, _, _ = join(four, four)
    return orient(cp)


def test_boundary_reduces_to_empty_sequence():
    d4 = orient(boundary_of_simplex(4))
    seq = reduce_to_boundary(d4)
    assert seq.moves == ()
    assert seq.start == seq.end == okey(d4)


def test_six_vertex_sphere_single_move():
    d4 = orient(boundary_of_simplex(4))
    K6 = apply_move(enumerate_moves(d4)[0])
    seq = reduce_to_boundary(K6)
    assert len(seq.moves) == 1
    assert seq.end == okey(d4)


def test_cross_polytope_reduction_replays():
    seq = reduce_to_boundary(_cross_polytope(), seed=3)
    assert len(seq.moves) >= 3
    final, states = replay(seq)
    assert okey(final) == seq.end
    assert len(states) == len(seq.moves) + 1


def test_determinism_and_seed_variation():
    ocp = _cross_polytope()
    assert reduce_to_boundary(ocp, seed=7) == reduce_to_boundary(ocp, seed=7)
    seqs = {reduce_to_boundary(ocp, seed=s).moves for s in range(5)}
    assert len(seqs) >= 2


def test_two_sphere_reduction():
    assert len(reduce_to_boundary(octahedron()).moves) == 3
    seq = reduce_to_boundary(icosahedron(), seed=2)
    final, _ = replay(seq)
    assert len(final.vertices) == 4


def test_budget_exhaustion_carries_partial_state():
    with pytest.raises(BudgetExhausted) as exc:
        reduce_to_boundary(icosahedron(), budget=0)
    assert exc.value.best_state is not None


def test_certificate_json_round_trip():
    seq = reduce_to_boundary(octahedron(), seed=1)
    again = MoveSequence.from_json(seq.to_json())
    assert again == seq
    replay(again)


def test_certificate_is_a_dict_key_through_json():
    seq = reduce_to_boundary(octahedron(), seed=1)
    again = MoveSequence.from_json(json.loads(seq.dumps()))
    assert {seq: "octahedron"}[again] == "octahedron" and hash(again) == hash(seq)
    assert again.dumps() == seq.dumps()


# reduce_to_boundary(...).dumps() of the link of vertex 2 of perturbed_cp2(4):
# an 11-vertex 3-sphere with a trivial automorphism group, not its own mirror
PINNED_CERTIFICATES = {
    0: (
        '{"end_key": "0;0,1,2,3|0,1,2,4|0,1,3,4|0,2,3,4|1,2,3,4", '
        '"moves": ['
        '{"sigma": [1], "tau": [6, 8, 9, 10]}, '
        '{"sigma": [0], "tau": [2, 7, 9, 10]}, '
        '{"sigma": [2], "tau": [7, 8, 9, 10]}, '
        '{"sigma": [3, 10], "tau": [4, 6, 9]}, '
        '{"sigma": [5, 10], "tau": [6, 7, 8]}, '
        '{"sigma": [4, 10], "tau": [6, 7, 9]}, '
        '{"sigma": [10], "tau": [6, 7, 8, 9]}, '
        '{"sigma": [3, 8], "tau": [4, 5, 7]}, '
        '{"sigma": [6, 8], "tau": [5, 7, 9]}, '
        '{"sigma": [8], "tau": [4, 5, 7, 9]}, '
        '{"sigma": [3, 7], "tau": [4, 5, 6]}, '
        '{"sigma": [3], "tau": [4, 5, 6, 9]}], "start_key": "+;0,2,7,9|0,2,7,10|'
        '0,2,9,10|0,7,9,10|1,6,8,9|1,6,8,10|1,6,9,10|1,8,9,10|2,7,8,9|2,7,8,10|'
        '2,8,9,10|3,4,5,8|3,4,5,9|3,4,6,7|3,4,6,10|3,4,7,8|3,4,9,10|3,5,6,7|'
        '3,5,6,9|3,5,7,8|3,6,9,10|4,5,8,9|4,6,7,10|4,7,8,9|4,7,9,10|5,6,7,10|'
        '5,6,8,9|5,6,8,10|5,7,8,10"}'
    ),
    1: (
        '{"end_key": "0;0,1,2,3|0,1,2,4|0,1,3,4|0,2,3,4|1,2,3,4", '
        '"moves": ['
        '{"sigma": [0], "tau": [2, 7, 9, 10]}, '
        '{"sigma": [2], "tau": [7, 8, 9, 10]}, '
        '{"sigma": [1], "tau": [6, 8, 9, 10]}, '
        '{"sigma": [4, 5], "tau": [3, 8, 9]}, '
        '{"sigma": [4, 6], "tau": [3, 7, 10]}, '
        '{"sigma": [4, 10], "tau": [3, 7, 9]}, '
        '{"sigma": [4], "tau": [3, 7, 8, 9]}, '
        '{"sigma": [3, 8], "tau": [5, 7, 9]}, '
        '{"sigma": [6, 8], "tau": [5, 9, 10]}, '
        '{"sigma": [8], "tau": [5, 7, 9, 10]}, '
        '{"sigma": [6, 7], "tau": [3, 5, 10]}, '
        '{"sigma": [6], "tau": [3, 5, 9, 10]}], "start_key": "+;0,2,7,9|0,2,7,10|'
        '0,2,9,10|0,7,9,10|1,6,8,9|1,6,8,10|1,6,9,10|1,8,9,10|2,7,8,9|2,7,8,10|'
        '2,8,9,10|3,4,5,8|3,4,5,9|3,4,6,7|3,4,6,10|3,4,7,8|3,4,9,10|3,5,6,7|'
        '3,5,6,9|3,5,7,8|3,6,9,10|4,5,8,9|4,6,7,10|4,7,8,9|4,7,9,10|5,6,7,10|'
        '5,6,8,9|5,6,8,10|5,7,8,10"}'
    ),
}


def test_certificate_bytes_pinned():
    """Certificates on an asymmetric link keep their exact bytes: the
    elimination order, the seeded choice of each lifted move and the
    orientation transport of every applied move all feed them."""
    link = perturbed_cp2(seed=4).link((2,))
    for seed, expected in PINNED_CERTIFICATES.items():
        assert reduce_to_boundary(link, seed=seed).dumps() == expected


def _spy(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


# sha256 of reduce_to_boundary(...).dumps() on the 30-vertex blocked sphere,
# with the certificate's length; both certificates contain plateau moves
PINNED_PLATEAU_CERTIFICATES = {
    0: (128, "33d37576558264a1e89415c56da9f138881322f1188c91c297b6b2d384f15519"),
    1: (130, "10431844fe9f21a4b503a56c01ba796eaf2f3caae522c65d41d858bb0f460894"),
}


def _digest(seq: MoveSequence) -> tuple[int, str]:
    return len(seq.moves), hashlib.sha256(seq.dumps().encode()).hexdigest()


def test_plateau_certificate_bytes_pinned(monkeypatch):
    """Certificates through the plateau keep their exact bytes: the seeded
    order of the breadth-first walk, its class deduplication and the
    eliminations tested on each state feed them."""
    K = blocked_spheres()[0]
    expanded = _spy(monkeypatch, "enumerate_moves")
    for seed, expected in PINNED_PLATEAU_CERTIFICATES.items():
        expanded.clear()
        assert _digest(reduce_to_boundary(K, seed=seed)) == expected
        assert expanded


def test_four_sphere_certificate_bytes_pinned():
    """A 4-sphere is reduced by eliminating vertices whose 3-sphere links
    take their own steps from the search; its certificate keeps its bytes."""
    K = random_sphere(random.Random(4), 16, dim=4)
    expected = (19, "e96992938a8987629690ae61cc084a62b49f5339a24d494bc7d865bcb4b87178")
    assert _digest(reduce_to_boundary(K)) == expected


@pytest.mark.parametrize("seed, nverts", [(0, 16), (1, 22), (2, 28), (3, 34), (4, 40)])
def test_random_three_spheres_reduce_by_elimination_alone(monkeypatch, seed, nverts):
    K = random_sphere(random.Random(seed), nverts)
    expanded = _spy(monkeypatch, "enumerate_moves")
    seq = reduce_to_boundary(K, seed=seed)
    assert not expanded
    final, _ = replay(seq)
    assert len(final.vertices) == 5 and seq.end == okey(orient(boundary_of_simplex(4)))


def test_blocked_vertices_fall_back_to_the_plateau_search(monkeypatch):
    """Where every vertex of a state is blocked the search expands plateau
    states until one has an unblocked vertex; both blocked spheres reduce
    within the default budget."""
    expanded = _spy(monkeypatch, "enumerate_moves")
    for K in blocked_spheres():
        expanded.clear()
        seq = reduce_to_boundary(K, seed=1)
        final, _ = replay(seq)
        assert len(final.vertices) == 5
        assert expanded


@pytest.mark.parametrize("dim, nverts", [(4, 20), (4, 30), (5, 20), (5, 30)])
def test_random_high_dimensional_spheres_are_recognised(dim, nverts):
    K = random_sphere(random.Random(f"{dim}:{nverts}"), nverts, dim=dim)
    verdict = is_combinatorial_sphere(K)
    assert verdict.verdict is True and verdict.certificate.end == okey(orient(boundary_of_simplex(dim + 1)))


def test_budget_zero_raises_before_any_move_on_a_four_sphere():
    K = random_sphere(random.Random(1), 12, dim=4)
    with pytest.raises(BudgetExhausted) as exc:
        reduce_to_boundary(K, budget=0)
    assert exc.value.moves_done == [] and len(exc.value.best_state.vertices) == 12


@pytest.mark.parametrize("budget", [-1, -5])
def test_negative_budget_is_invalid_before_any_search(budget, monkeypatch):
    """A negative budget is no cap to run out of: InvalidParams before the
    start is labelled, also on a simplex boundary that needs no move."""
    labelled, searched = _spy(monkeypatch, "okey"), _spy(monkeypatch, "_search")
    for L in (_cross_polytope(), orient(boundary_of_simplex(4))):
        with pytest.raises(InvalidParams, match=f"negative reduction budget {budget}"):
            reduce_to_boundary(L, budget=budget)
    assert labelled == searched == []


def test_the_plateau_of_cp2_runs_out_after_one_state():
    """CP² is 3-neighbourly: it has no move with 0 < k < 4 and no eliminable
    vertex, so the search takes its first state and has no plateau left,
    far below the cap; the error says which limit ended it."""
    with pytest.raises(BudgetExhausted) as exc:
        reduce_to_boundary(orient(cp2_9()), budget=100000)
    assert exc.value.moves_done == [] and len(exc.value.best_state.vertices) == 9
    assert str(exc.value) == "reduction plateau ran out after 1 of at most 100000 states (seed 0)"


def test_unknown_sphere_verdict_names_the_cap():
    K = random_sphere(random.Random(1), 12, dim=4)
    verdict = is_combinatorial_sphere(K, budget=0)
    assert verdict.verdict is None
    assert verdict.reason == "reduction plateau cap reached after 0 of at most 0 states (seed 0)"


def test_tracked_link_is_the_vertex_link(monkeypatch):
    """Each link state of an elimination is the oriented link of v in the
    3-sphere state its move lifts to; v goes once its link is a
    tetrahedron boundary."""
    K = random_sphere(random.Random(7), 14)
    links = _spy(monkeypatch, "decreasing_moves")
    rng = random.Random(0)
    eliminated = 0
    for v in K.vertices:
        links.clear()
        path = reduction._eliminate(K, v, rng, cap=100)
        if path is None:
            continue
        eliminated += 1
        assert [(L,) for L in (mv.host.link((v,)) for mv in path[:-1])] == links
        last = path[-1]
        assert last.sigma == (v,) and last.tau == last.host.link((v,)).vertices and len(last.tau) == 4
        assert v not in last.result.vertices
    assert eliminated >= len(K.vertices) // 2


def test_budget_binds_elimination():
    cp = _cross_polytope()  # every vertex link is an octahedron: 3 flips and the removal
    with pytest.raises(BudgetExhausted) as exc:
        reduce_to_boundary(cp, budget=0)
    assert exc.value.moves_done == [] and len(exc.value.best_state.vertices) == 8
    with pytest.raises(BudgetExhausted):
        reduce_to_boundary(cp, budget=1)
    assert len(reduce_to_boundary(cp).moves) >= 4
