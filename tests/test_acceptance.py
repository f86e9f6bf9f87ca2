"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line with its measured data (visible under
``pytest -s`` or in the captured report).
"""

import json
import random
import time
from fractions import Fraction

from bistellar.canonical import okey
from bistellar.enumeration import spheres_brute_force, spheres_by_expansion
from bistellar.gamma2 import Gamma2Chain, decompose_cycle
from bistellar.library import RP2_6_FACETS, cp2_9
from bistellar.moves import apply_move, enumerate_moves, sphere_from_move
from bistellar.pontryagin import XiCache, local_f, p1_dual_direct, p1_dual_local
from bistellar.reduction import reduce_to_boundary
from bistellar.simplicial import boundary_of_simplex, build_complex, orient
from bistellar.sw import is_mod2_boundary, sw_duals
from bistellar.talgebra import (
    LocalCochain,
    boundary_t,
    d_edge,
    delta_edge,
    delta_eval,
    join_product_t,
    s_eval,
    sphere_chain,
)
from helpers import octahedron, random_loop_cycle, random_walk_sphere


def _is_rational_boundary(chain) -> bool:
    """Solve d(x) = chain over Q by Gaussian elimination on the ambient
    complex: the independent linear-algebra oracle for class equality."""
    if not chain.terms:
        return True
    k = chain.degree
    ambient = chain.ambient.complex if hasattr(chain.ambient, "complex") else chain.ambient
    cols = {f: i for i, f in enumerate(ambient.faces_of_dim(k))}
    rows = ambient.faces_of_dim(k + 1)
    basis: list[dict[int, Fraction]] = []

    def reduce(vec: dict[int, Fraction]) -> dict[int, Fraction]:
        for b in basis:
            piv = min(b)
            if piv in vec:
                s = vec[piv] / b[piv]
                for j, val in b.items():
                    new = vec.get(j, Fraction(0)) - s * val
                    if new:
                        vec[j] = new
                    else:
                        vec.pop(j, None)
        return vec

    for r in rows:
        vec: dict[int, Fraction] = {}
        for i in range(len(r)):
            face = r[:i] + r[i + 1 :]
            vec[cols[face]] = vec.get(cols[face], Fraction(0)) + (-1) ** i
        vec = {j: v for j, v in vec.items() if v}
        vec = reduce(vec)
        if vec:
            basis.append(vec)
            basis.sort(key=min)
    target = reduce({cols[f]: v for f, v in chain.terms.items()})
    return not target


def _random_3sphere(rng, steps, cap=9):
    state = orient(boundary_of_simplex(4))
    for _ in range(steps):
        cands = [apply_move(m) for m in enumerate_moves(state)]
        cands = [s for s in cands if len(s.vertices) <= cap]
        state = cands[rng.randrange(len(cands))]
    return state


def test_criterion_1_calibration():
    """p1 local on the bundled 9-vertex complex projective plane is exactly 3."""
    t0 = time.time()
    K = orient(cp2_9())
    cache = XiCache()  # cold
    chain = p1_dual_local(K, cache=cache, seed=0)
    elapsed = time.time() - t0
    assert chain.total() == Fraction(3)
    assert elapsed < 1800
    print(f"criterion 1: PASS (p1 number = {chain.total()}, cold cache, {elapsed:.1f}s)")


def test_criterion_2_both_procedures():
    """local and direct agree: 0 on the 4-sphere; class-equal on the
    projective plane (difference an exact rational boundary)."""
    t0 = time.time()
    cache = XiCache()
    d5 = orient(boundary_of_simplex(5))
    a = p1_dual_local(d5, cache=cache)
    b = p1_dual_direct(d5, cache=cache)
    assert a.total() == 0 and b.total() == 0
    K = orient(cp2_9())
    loc = p1_dual_local(K, cache=cache)
    dire = p1_dual_direct(K, cache=cache)
    diff = loc.plus(dire.scaled(-1))
    assert _is_rational_boundary(diff)
    elapsed = time.time() - t0
    assert elapsed < 1200
    print(f"criterion 2: PASS (S4 totals 0/0; CP2 difference bounds, {elapsed:.1f}s)")


def test_criterion_3_well_definedness():
    """local_f of each CP2 vertex link agrees across 5 seeds, exactly."""
    t0 = time.time()
    K = orient(cp2_9())
    links = [K.link((v,)) for v in K.vertices]
    classes = {okey(lk) for lk in links}
    vals_per_class = {}
    distinct_certs = 0
    for key in classes:
        from bistellar.canonical import materialize

        L = materialize(key)
        vals = []
        certs = set()
        for s in range(5):
            cert = reduce_to_boundary(L, seed=s)
            certs.add(cert.moves)
            vals.append(local_f(L, cache=XiCache(), seed=s))
        assert len(set(vals)) == 1
        distinct_certs = max(distinct_certs, len(certs))
        vals_per_class[key] = vals[0]
    elapsed = time.time() - t0
    print(
        f"criterion 3: PASS ({len(classes)} link class(es), 5 seeds each, "
        f"{distinct_certs} distinct sequences, {elapsed:.1f}s)"
    )


def test_criterion_4_decomposition_suite():
    """100 random closed move-loop cycles (complexity <= 9): residual-0
    decompositions whose values agree across two independent orders."""
    t0 = time.time()
    rng = random.Random(424242)
    done = 0
    while done < 100:
        ch = random_loop_cycle(rng, max_cx=Fraction(9))
        if ch is None:
            continue
        done += 1
        totals = []
        for seed in (done * 3 + 1, done * 5 + 2):
            parts = decompose_cycle(ch, order_seed=seed)
            rebuilt = Gamma2Chain()
            total = Fraction(0)
            for n, piece in parts:
                rebuilt = rebuilt.plus(piece.chain, n)
                total += n * piece.value
            assert rebuilt == ch  # residual exactly zero
            totals.append(total)
        assert totals[0] == totals[1]
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"criterion 4: PASS (100 cycles, 2 orders each, {elapsed:.1f}s)")


def test_criterion_5_algebraic_identities():
    """Exact sampled identities of the sphere-class algebra."""
    t0 = time.time()
    rng = random.Random(99)
    # boundary squared on 200 generators across grades 2-4
    gens = []
    for _ in range(70):  # polygons (grade 2)
        n = rng.randrange(3, 10)
        gens.append(orient(build_complex([[i, (i + 1) % n] for i in range(n)])))
    for _ in range(70):  # 2-spheres (grade 3)
        gens.append(random_walk_sphere(rng, steps=rng.randrange(0, 5)))
    for _ in range(60):  # 3-spheres (grade 4)
        gens.append(_random_3sphere(rng, steps=rng.randrange(0, 5)))
    assert len(gens) == 200
    for L in gens:
        assert not boundary_t(boundary_t(sphere_chain(L))).terms
    # Leibniz on 50 pairs
    for _ in range(50):
        x = sphere_chain(random_walk_sphere(rng, steps=rng.randrange(0, 3)))
        y = sphere_chain(orient(boundary_of_simplex(rng.randrange(1, 3))))
        lhs = boundary_t(join_product_t(y, x))
        rhs = join_product_t(boundary_t(y), x).plus(join_product_t(y, boundary_t(x)).scaled((-1) ** y.grade))
        assert lhs == rhs
    # d = delta s - s delta on 50 samples
    nontrivial = 0
    for _ in range(50):
        L = random_walk_sphere(rng, steps=rng.randrange(1, 5))
        mvs = enumerate_moves(L)
        mv = mvs[rng.randrange(len(mvs))]
        res = apply_move(mv)
        f = LocalCochain(3)
        for s in (L, res, random_walk_sphere(rng, steps=rng.randrange(0, 4))):
            f.set(s, Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)))
        lhs = d_edge(f, mv)
        term1 = delta_edge(lambda m: s_eval(f, m), mv)
        Lb = sphere_from_move(mv)
        s_delta = delta_eval(f, Lb) if (f.grade + 1) % 2 == 0 else -delta_eval(f, Lb)
        assert lhs == term1 - s_delta
        nontrivial += lhs != 0
    assert nontrivial >= 3
    # delta delta = 0 on 20 samples
    for _ in range(20):
        f = LocalCochain(3)
        for _ in range(3):
            f.set(random_walk_sphere(rng, steps=rng.randrange(0, 4)), Fraction(rng.randrange(-6, 7)))
        M = sphere_from_move(enumerate_moves(_random_3sphere(rng, steps=rng.randrange(0, 3)))[0])
        total = sum((delta_eval(f, M.link((v,))) for v in M.vertices), Fraction(0))
        assert total == 0
    elapsed = time.time() - t0
    print(f"criterion 5: PASS (200 boundaries, 50 Leibniz, 50 homotopy, 20 cochain, {elapsed:.1f}s)")


def test_criterion_6_stiefel_whitney_suite():
    t0 = time.time()
    for K in (boundary_of_simplex(3), boundary_of_simplex(4), octahedron().complex, build_complex(RP2_6_FACETS)):
        for ch in sw_duals(K):
            assert ch.is_cycle()
    assert is_mod2_boundary(sw_duals(boundary_of_simplex(3))[1])
    assert not is_mod2_boundary(sw_duals(build_complex(RP2_6_FACETS))[1])
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"criterion 6: PASS (W_k cycles on 4 manifolds; W_1 classes as expected, {elapsed:.1f}s)")


def test_criterion_7_enumeration_oracle():
    t0 = time.time()
    per = spheres_by_expansion(7)
    counts = {n: len(ks) for n, ks in per.items()}
    assert counts == {4: 1, 5: 1, 6: 2, 7: 5}
    for n in (4, 5, 6, 7):
        assert sorted(spheres_brute_force(n)) == sorted(per[n])
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"criterion 7: PASS (counts 1,1,2,5 match brute force, {elapsed:.1f}s)")


def test_criterion_8_gamma1_path():
    from bistellar.moves import edge_key

    t0 = time.time()
    edges = {}
    for n in range(3, 13):
        C = orient(build_complex([[i, (i + 1) % n] for i in range(n)]))
        for mv in enumerate_moves(C):
            res = apply_move(mv)
            if len(res.vertices) > 12:
                continue
            se = edge_key(mv)
            assert se is not None
            edges.setdefault(tuple(sorted((n, len(res.vertices)))), set()).add(se.key)
    assert set(edges) == {(n, n + 1) for n in range(3, 12)}
    assert all(len(v) == 1 for v in edges.values())
    print(f"criterion 8: PASS (move graph of polygons up to 12 vertices is a path, {time.time()-t0:.1f}s)")


def test_criterion_9_determinism():
    """Identical (input, seed) produce byte-identical serialized reports."""
    t0 = time.time()

    def bundle() -> str:
        out = {}
        K = orient(cp2_9())
        chain = p1_dual_local(K, cache=XiCache(), seed=1)
        out["p1"] = chain.to_json()
        cert = reduce_to_boundary(octahedron(), seed=1)
        out["cert"] = cert.to_json()
        rng = random.Random(31337)
        cycles = []
        made = 0
        while made < 3:
            ch = random_loop_cycle(rng)
            if ch is None:
                continue
            made += 1
            parts = decompose_cycle(ch, order_seed=7)
            cycles.append(
                [[n, piece.kind, list(piece.params), piece.sign, piece.chain.to_json()] for n, piece in parts]
            )
        out["decompositions"] = cycles
        per = spheres_by_expansion(6)
        out["enumeration"] = {str(n): [list(map(list, k)) for k in ks] for n, ks in per.items()}
        return json.dumps(out, sort_keys=True)

    first, second = bundle(), bundle()
    assert first == second
    print(f"criterion 9: PASS (byte-identical report bundles, {time.time()-t0:.1f}s)")
