"""The negative and unknown verdicts of sphere and manifold recognition."""

import pytest

from bistellar.library import RP2_6_FACETS, cp2_9
from bistellar.simplicial import Complex, boundary_of_simplex, build_complex, orient
from bistellar.spheres import is_combinatorial_manifold, is_combinatorial_sphere
from helpers import icosahedron, product, suspension, torus_7


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


def test_cp2_times_circle_is_a_manifold():
    """The staircase CP^2 x S^1 (27 vertices, dimension 5): every vertex
    link is a 4-sphere, each reduced by eliminating vertices whose links
    are 3-spheres."""
    K = product(cp2_9(), boundary_of_simplex(2))
    assert (len(K.vertices), K.dim) == (27, 5)
    assert is_combinatorial_manifold(K).verdict is True
