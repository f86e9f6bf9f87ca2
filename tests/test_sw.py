from itertools import permutations

import pytest

from bistellar.errors import NotClosedManifold
from bistellar.library import RP2_6_FACETS, cp2_9
from bistellar.simplicial import Complex, barycentric_subdivision, boundary_of_simplex, build_complex
from bistellar.sw import Mod2Chain, is_mod2_boundary, sw_duals
from helpers import octahedron, perturbed_cp2, suspension, torus_7


def test_w2_of_tetrahedron_boundary_is_fundamental():
    chains = sw_duals(boundary_of_simplex(3))
    assert len(chains) == 3
    w2 = chains[2]
    assert len(w2.simplices) == 24  # all triangles of the subdivision
    assert w2.is_cycle()


def test_w1_bounds_on_orientable_surfaces():
    chains = sw_duals(boundary_of_simplex(3))
    w1 = chains[1]
    assert len(w1.simplices) == 36
    assert w1.is_cycle()
    assert is_mod2_boundary(w1)
    w1_octa = sw_duals(octahedron().complex)[1]
    assert w1_octa.is_cycle()
    assert is_mod2_boundary(w1_octa)


def test_w1_nonzero_on_projective_plane():
    chains = sw_duals(build_complex(RP2_6_FACETS))
    w1 = chains[1]
    assert w1.is_cycle()
    assert not is_mod2_boundary(w1)


def test_all_wk_are_cycles_on_3_sphere():
    for k, ch in enumerate(sw_duals(boundary_of_simplex(4))):
        assert ch.is_cycle(), k


def test_the_empty_chain_bounds():
    assert is_mod2_boundary(Mod2Chain(boundary_of_simplex(3), 1, frozenset()))


def test_a_chain_has_no_simplices_by_default():
    empty = Mod2Chain(boundary_of_simplex(3), 1)
    assert empty.simplices == frozenset() and empty == Mod2Chain(boundary_of_simplex(3), 1, frozenset())


def test_rejects_open_complexes():
    with pytest.raises(NotClosedManifold):
        sw_duals(build_complex([[0, 1, 2]]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: boundary_of_simplex(4),
        lambda: build_complex(RP2_6_FACETS),
        torus_7,
        cp2_9,
        lambda: perturbed_cp2(1, 5),
        lambda: build_complex([g for f in boundary_of_simplex(3).facets for g in (f, [v + 3 for v in f])]),
        lambda: suspension(torus_7()),
        lambda: suspension(build_complex(RP2_6_FACETS)),
    ],
    ids=["boundary_delta_4", "rp2_6", "torus_7", "cp2_9", "perturbed_1_5", "two_tetrahedra_at_a_vertex",
         "suspended_torus", "suspended_rp2_6"],
)
def test_wk_is_a_cycle_iff_no_face_of_dim_k_minus_1_or_more_has_odd_cofaces(make):
    """Gap parity (the sw module docstring) against the brute-force
    boundary of every W_k on closed pseudomanifolds; sw_duals returns
    exactly when W_1 is a cycle and raises otherwise.  The suspension of
    RP^2_6 is no Euler space: each apex has link RP^2 (chi = 1) and 31
    proper cofaces, so W_1 fails while W_2 and W_3 are cycles."""
    K = make()
    assert K.is_pure and all(len(fs) == 2 for fs in K.ridges.values())
    Kp, _ = barycentric_subdivision(K)
    faces = [f for f in K.faces if f]
    # the dimensions of the faces with an odd number of proper cofaces, counted face against face
    odd = {len(g) - 1 for g in faces if sum(len(f) > len(g) and set(g) <= set(f) for f in faces) % 2}
    brute = [Mod2Chain(Kp, k, frozenset(Kp.faces_of_dim(k))).is_cycle() for k in range(K.dim + 1)]
    assert brute == [k == 0 or all(d < k - 1 for d in odd) for k in range(K.dim + 1)]
    if brute[1]:
        assert [ch.simplices for ch in sw_duals(K)] == [frozenset(Kp.faces_of_dim(k)) for k in range(K.dim + 1)]
    else:
        with pytest.raises(NotClosedManifold, match="^W_1 is not a mod-2 cycle$"):
            sw_duals(K)


def _subdivision_by_permutations(K):
    """K' built the textbook way: one maximal flag per ordering of each facet."""
    faces = sorted((f for f in K.faces if f), key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    flags = set()
    for facet in K.facets:
        for perm in permutations(facet):
            flags.add(tuple(sorted(index[tuple(sorted(perm[: i + 1]))] for i in range(len(perm)))))
    return flags, {i: f for f, i in index.items()}


@pytest.mark.parametrize(
    "K",
    [
        boundary_of_simplex(4),
        build_complex(RP2_6_FACETS),
        torus_7(),
        cp2_9(),
        build_complex([[0, 1, 2], [2, 3], [3, 4], [4, 5, 6, 7]]),  # not pure
        Complex([()]),
    ],
    ids=["boundary_delta_4", "rp2_6", "torus_7", "cp2_9", "mixed_dims", "empty"],
)
def test_subdivision_chains_are_the_faces_of_the_subdivision(K):
    Kp, back = barycentric_subdivision(K)
    flags, ref_back = _subdivision_by_permutations(K)
    assert Kp.facets == flags and back == ref_back
    fresh = Complex(Kp.facets, _validated=True)  # no seeded face lists: faces_of_dim reads Complex.faces
    for k in range(-1, Kp.dim + 2):
        assert Kp.faces_of_dim(k) == fresh.faces_of_dim(k), k
    if K.is_pure and all(len(fs) == 2 for fs in K.ridges.values()):
        for k, ch in enumerate(sw_duals(K)):
            assert ch.simplices == {f for f in fresh.faces if len(f) == k + 1}, k


@pytest.mark.parametrize("make", [cp2_9, lambda: perturbed_cp2(1, 5).complex], ids=["cp2_9", "perturbed_1_5"])
def test_w2_of_cp2_does_not_bound(make):
    """CP^2 is not spin: w_2 != 0, so W_2 does not bound; w_1 = w_3 = 0."""
    chains = sw_duals(make())
    assert [is_mod2_boundary(chains[k]) for k in (1, 2, 3)] == [True, False, True]


def test_essential_loops_of_the_torus():
    """On the subdivided 7-vertex torus (vertex i at (a, b) with a + 3b = i
    mod 7) the 7-gon of +1 steps and the triangle 0-3-4 are essential loops
    in the same mod-2 class, so their sum bounds; the 7-gon of +2 steps is
    in another class."""
    K = torus_7()
    Kp, back = barycentric_subdivision(K)
    index = {f: i for i, f in back.items()}

    def loop(*vs):
        edges = set()
        for a, b in zip(vs, vs[1:] + vs[:1]):
            e = index[tuple(sorted((a, b)))]
            edges ^= {(index[(a,)], e), (index[(b,)], e)}
        return Mod2Chain(Kp, 1, frozenset(edges))

    ones, twos, tri = loop(*range(7)), loop(*(2 * i % 7 for i in range(7))), loop(0, 3, 4)
    for c in (ones, twos, tri):
        assert c.is_cycle() and not is_mod2_boundary(c)
    same = Mod2Chain(Kp, 1, ones.simplices ^ tri.simplices)
    assert same.simplices and is_mod2_boundary(same)
    assert not is_mod2_boundary(Mod2Chain(Kp, 1, twos.simplices ^ tri.simplices))
    facet = loop(0, 1, 3)  # the boundary of a triangle of K
    assert is_mod2_boundary(facet)
