"""The negative and unknown verdicts of sphere and manifold recognition."""

from itertools import combinations

import pytest

import bistellar.reduction as reduction
from bistellar.canonical import ukey
from bistellar.library import RP2_6_FACETS, cp2_9
from bistellar.simplicial import Complex, boundary_of_simplex, build_complex, orient
from bistellar.spheres import SphereVerdict, is_combinatorial_manifold, is_combinatorial_sphere
from helpers import icosahedron, perturbed_cp2, product, suspension, torus_7


def _disjoint(K: Complex, shift: int) -> Complex:
    """K and a copy of K on vertices moved up by ``shift``."""
    return build_complex(list(K.facets) + [tuple(v + shift for v in f) for f in K.facets])


def _pinched_icosahedron() -> Complex:
    """The icosahedron with its antipodal vertices 0 and 9 identified: every
    edge in two triangles, strongly connected, the link of 0 two pentagons."""
    return build_complex([[0 if v == 9 else v for v in f] for f in icosahedron().facets])


def _klein_bottle() -> Complex:
    """The 3 x 3 grid of squares on Z_3 x Z_3, each cut by a diagonal, whose
    columns close up mirrored: a closed non-orientable surface, chi = 0."""

    def v(x, y):
        return (x if y < 3 else -x) % 3 * 3 + y % 3

    squares = [(i, j) for i in range(3) for j in range(3)]
    return build_complex(
        [(v(i, j), v(i + 1, j), v(i + 1, j + 1)) for i, j in squares]
        + [(v(i, j), v(i, j + 1), v(i + 1, j + 1)) for i, j in squares]
    )


@pytest.mark.parametrize(
    "K, reason",
    [
        (build_complex([(0,), (1,), (2,)]), "not two points"),
        (build_complex([(0, 1), (1, 2)]), "not a single cycle"),
        (_disjoint(boundary_of_simplex(2), 3), "not a single cycle"),
        (build_complex([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]), "not a single cycle"),
        (torus_7(), "Euler characteristic 0 != 2"),
        (build_complex(RP2_6_FACETS), "Euler characteristic 1 != 2"),
        (cp2_9(), "Euler characteristic 3 != 2"),
        (_pinched_icosahedron(), "Euler characteristic 1 != 2"),
        (_disjoint(boundary_of_simplex(3), 4), "not a closed connected pseudomanifold"),
        (_disjoint(boundary_of_simplex(4), 5), "not a closed connected pseudomanifold"),
        (build_complex([(0, 1, 2), (2, 3)]), "not a closed connected pseudomanifold"),
        (build_complex([(0, 1, 2, 3), (3, 4)]), "not a closed connected pseudomanifold"),
        # chi = 0 as for a 3-sphere; vertex 0, the pinch vertex times the
        # circle's first vertex, has the suspension of two pentagons as link
        (
            product(_pinched_icosahedron(), boundary_of_simplex(2)),
            "link of vertex 0: not a closed connected pseudomanifold",
        ),
        # chi = 0 and every vertex link a 2-sphere
        (product(_klein_bottle(), boundary_of_simplex(2)), "not orientable"),
    ],
    ids=[
        "three-points", "path", "two-triangles", "figure-eight", "torus", "rp2", "cp2", "pinched-icosahedron",
        "two-tetrahedra", "two-4-simplices", "nonpure-2", "nonpure-3", "pinched-torus-x-circle",
        "klein-bottle-x-circle",
    ],
)
def test_not_a_sphere(K, reason):
    v = is_combinatorial_sphere(K)
    assert v.verdict is False and v.reason == reason


def test_manifold_verdicts_no_and_unknown():
    nonpure = is_combinatorial_manifold(build_complex([(0, 1, 2), (2, 3)]))
    assert nonpure.verdict is False and nonpure.reason == "not pure"
    # every vertex link of CP^2 is an 8-vertex 3-sphere, which no search
    # with budget 0 reduces: Unknown, never No
    starved = is_combinatorial_manifold(cp2_9(), budget=0)
    assert starved.verdict is None and starved.reason == "some link verdicts unknown within budget"
    assert is_combinatorial_manifold(cp2_9()).verdict is True


def test_a_0_dimensional_complex_is_a_manifold():
    v = is_combinatorial_manifold(Complex([(0,), (1,), (2,)]))
    assert v.verdict is True and v.reason == "0-dimensional"


def test_manifold_check_computes_no_link_signs(monkeypatch):
    """On the oriented CP^2 the vertex links are read as plain complexes:
    the verdict is the unoriented one, and ``OrientedComplex.link`` is never
    asked for a link of the input."""
    from bistellar.simplicial import OrientedComplex

    K = cp2_9()
    OC = orient(K)
    want = is_combinatorial_manifold(K)
    asked, real = [], OrientedComplex.link
    monkeypatch.setattr(OrientedComplex, "link", lambda self, sigma: asked.append(self is OC) or real(self, sigma))
    assert is_combinatorial_manifold(OC) == want and want.verdict is True
    assert not any(asked)


def test_suspended_torus_is_no_manifold():
    """The apexes 7 and 8 of the suspended torus have the torus as link."""
    v = is_combinatorial_manifold(suspension(torus_7()))
    assert v.verdict is False and v.reason == "link of vertex 7: Euler characteristic 0 != 2"


def _per_vertex_manifold(K: Complex, budget: int) -> tuple[bool | None, str]:
    """The manifold check as a plain loop: one sphere test per vertex link,
    in vertex order, with no grouping by class."""
    unknown = False
    for v in K.vertices:
        sub = is_combinatorial_sphere(Complex.link(K, (v,)), budget=budget)
        if sub.verdict is False:
            return False, f"link of vertex {v}: {sub.reason}"
        unknown = unknown or sub.verdict is None
    if unknown:
        return None, "some link verdicts unknown within budget"
    return True, "all vertex links are combinatorial spheres"


@pytest.mark.parametrize(
    "make, budget",
    [
        (cp2_9, 20000),
        (lambda: perturbed_cp2(1, 5), 20000),
        (lambda: perturbed_cp2(3, 5), 20000),
        (lambda: suspension(torus_7()), 20000),
        (cp2_9, 0),
    ],
    ids=["cp2", "perturbed-1", "perturbed-3", "suspended-torus", "cp2-budget-0"],
)
def test_one_test_per_link_class_keeps_the_verdict(make, budget):
    K = make()
    v = is_combinatorial_manifold(K, budget=budget)
    assert (v.verdict, v.reason) == _per_vertex_manifold(K, budget) and v.certificate is None


def _searches(monkeypatch) -> list:
    calls = []
    real = reduction.reduce_to_boundary
    monkeypatch.setattr(reduction, "reduce_to_boundary", lambda L, **kw: calls.append(L) or real(L, **kw))
    return calls


def test_cp2_links_take_one_search(monkeypatch):
    """The nine vertex links of the vertex-transitive CP^2 are one class."""
    calls = _searches(monkeypatch)
    K = cp2_9()  # its loader checks the links through is_combinatorial_manifold
    assert len(calls) == 1
    assert is_combinatorial_manifold(K).verdict is True and len(calls) == 2


def test_perturbed_links_take_one_search_per_class(monkeypatch):
    K = perturbed_cp2(1, 5)
    classes = {ukey(Complex.link(K, (v,))) for v in K.vertices}
    calls = _searches(monkeypatch)
    assert is_combinatorial_manifold(K).verdict is True
    assert len(calls) == len(classes) < len(K.vertices)


def test_a_wedge_link_fails_before_any_class_key(monkeypatch):
    """Three boundaries of the 5-simplex glued at vertex 0: the link of 0 is
    three disjoint 3-spheres with 120**3 * 3! automorphisms, far too many to
    canonize, and the cheap pseudomanifold test rejects it unkeyed."""
    import bistellar.spheres as spheres

    K = build_complex(f for c in range(3) for f in combinations([0, *range(5 * c + 1, 5 * c + 6)], 5))
    assert (len(K.vertices), len(K.facets)) == (16, 18)
    monkeypatch.setattr(spheres, "ukey", lambda L: pytest.fail("a link was put in canonical form"))
    v = is_combinatorial_manifold(K)
    assert (v.verdict, v.reason) == (False, "link of vertex 0: not a closed connected pseudomanifold")


def test_a_verdict_is_truthy_only_for_yes():
    assert SphereVerdict(True, "yes") and SphereVerdict(True, "yes").certificate is None
    assert not SphereVerdict(False, "no") and not SphereVerdict(None, "unknown")


def test_cp2_times_circle_is_a_manifold():
    """The staircase CP^2 x S^1 (27 vertices, dimension 5): every vertex
    link is a 4-sphere, each reduced by eliminating vertices whose links
    are 3-spheres."""
    K = product(cp2_9(), boundary_of_simplex(2))
    assert (len(K.vertices), K.dim) == (27, 5)
    assert is_combinatorial_manifold(K).verdict is True
