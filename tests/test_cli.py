import json
import os
import random
from pathlib import Path

import pytest

import bistellar
from bistellar.cli import main
from bistellar.library import RP2_6_FACETS, write_facet_file
from bistellar.simplicial import build_complex
from helpers import random_sphere, suspension, torus_7


@pytest.fixture()
def data_dir(tmp_path):
    from bistellar.library import catalog

    for name, e in catalog().items():
        write_facet_file(str(tmp_path / f"{name}.facets"), e.complex)
    write_facet_file(str(tmp_path / "rp2.facets"), build_complex(RP2_6_FACETS))
    return tmp_path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_octahedron(capsys, data_dir):
    code, out = _run(capsys, ["check", str(data_dir / "octahedron.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["sphere"] == "yes" and rep["manifold"] == "yes"


def test_check_rp2(capsys, data_dir):
    code, out = _run(capsys, ["check", str(data_dir / "rp2.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["sphere"] == "no"


def test_check_torus(capsys, data_dir):
    write_facet_file(str(data_dir / "torus.facets"), torus_7())
    code, out = _run(capsys, ["check", str(data_dir / "torus.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["sphere"] == "no" and rep["manifold"] == "yes"
    assert rep["euler_characteristic"] == 0


def test_reduce_emits_certificate(capsys, data_dir):
    code, out = _run(capsys, ["reduce", str(data_dir / "cross_4.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["length"] >= 3
    assert rep["certificate"]["moves"]


@pytest.mark.parametrize("command", ["check", "reduce"])
def test_negative_budget_is_invalid_params(capsys, data_dir, command):
    """A negative budget is a usage fault, not an unknown verdict or an
    exhausted search: one JSON line, exit 1, no traceback."""
    code = main(["--budget", "-5", command, str(data_dir / "cross_4.facets")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out) == {"error": "InvalidParams", "message": "negative reduction budget -5"}


def test_reduce_nonorientable_fails_cleanly(capsys, data_dir):
    code, out = _run(capsys, ["reduce", str(data_dir / "rp2.facets")])
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "NonOrientable"


def test_sw_flags_rp2(capsys, data_dir):
    code, out = _run(capsys, ["sw", str(data_dir / "rp2.facets")])
    assert code == 0
    rep = json.loads(out)
    w1 = [c for c in rep["chains"] if c["degree"] == 1][0]
    assert w1["is_cycle"] and w1["bounds"] is False


_CP2_SW_REPORT = (
    '{"chains":[{"degree":0,"is_cycle":true,"simplex_count":255},'
    '{"bounds":true,"degree":1,"is_cycle":true,"simplex_count":2916},'
    '{"degree":2,"is_cycle":true,"simplex_count":9144},'
    '{"degree":3,"is_cycle":true,"simplex_count":10800},'
    '{"degree":4,"is_cycle":true,"simplex_count":4320}]}\n'
)


def test_sw_report_cp2_pinned(capsys):
    path = Path(bistellar.__file__).parent / "data" / "cp2_9.facets"
    code, out = _run(capsys, ["sw", str(path), "--format", "json"])
    assert code == 0
    assert out == _CP2_SW_REPORT


def test_sw_report_cp2_default_format_pinned(capsys):
    """The default-format report: every W_k is a cycle, and W_1 bounds."""
    code = main(["sw", str(Path(bistellar.__file__).parent / "data" / "cp2_9.facets")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, _CP2_SW_REPORT, "")


def test_sw_report_takes_its_cycles_from_sw_duals(capsys, data_dir, monkeypatch):
    """The report does not recount the W_k boundaries on the subdivision:
    ``sw_duals`` has checked them on the face poset of K."""
    from bistellar.sw import Mod2Chain

    monkeypatch.setattr(Mod2Chain, "boundary", lambda self: pytest.fail("boundary recounted"))
    code, out = _run(capsys, ["sw", str(data_dir / "rp2.facets")])
    assert code == 0 and all(c["is_cycle"] for c in json.loads(out)["chains"])


def test_sw_of_a_pseudomanifold_that_is_no_euler_space(capsys, tmp_path):
    """The suspension of RP^2_6 is a closed pseudomanifold whose apexes have
    an odd number of cofaces: a typed error naming W_1, nothing on stderr."""
    path = str(tmp_path / "suspended_rp2.facets")
    write_facet_file(path, suspension(build_complex(RP2_6_FACETS)))
    code = main(["sw", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out == '{"error": "NotClosedManifold", "message": "W_1 is not a mod-2 cycle"}\n'


def test_p1_local_4_sphere(capsys, data_dir):
    code, out = _run(capsys, ["p1", "local", str(data_dir / "boundary_delta_5.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["p1_number"] == {"num": "0", "den": "1"}


def test_byte_identical_reports(capsys, data_dir, tmp_path):
    cachep = str(tmp_path / "xi.json")
    argv = ["--seed", "1", "--xi-cache", cachep, "p1", "local", str(data_dir / "boundary_delta_5.facets")]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert out1 == out2
    assert os.path.exists(cachep)


def test_enumerate_counts(capsys, data_dir):
    code, out = _run(capsys, ["enumerate-spheres", "--max-vertices", "6"])
    assert code == 0
    rep = json.loads(out)
    assert rep["unoriented_counts"] == {"4": 1, "5": 1, "6": 2}


def test_enumerate_expands_once(capsys, monkeypatch):
    import bistellar.enumeration as enumeration

    calls = []
    expand = enumeration.spheres_by_expansion
    monkeypatch.setattr(enumeration, "spheres_by_expansion", lambda n: calls.append(n) or expand(n))
    code, out = _run(capsys, ["enumerate-spheres", "--max-vertices", "7"])
    assert code == 0 and calls == [7]
    rep = json.loads(out)
    assert rep["unoriented_counts"] == {"4": 1, "5": 1, "6": 2, "7": 5}
    assert rep["oriented_counts"] == {"4": 1, "5": 1, "6": 2, "7": 6}


def test_enumerate_nine_vertices(capsys):
    code, out = _run(capsys, ["enumerate-spheres", "--max-vertices", "9"])
    assert code == 0
    rep = json.loads(out)
    assert rep["unoriented_counts"] == {"4": 1, "5": 1, "6": 2, "7": 5, "8": 14, "9": 50}
    assert rep["oriented_counts"] == {"4": 1, "5": 1, "6": 2, "7": 6, "8": 17, "9": 73}


@pytest.mark.parametrize("n", ["3", "0", "-2"])
def test_enumerate_below_four_vertices_is_empty(capsys, n):
    code = main(["enumerate-spheres", "--max-vertices", n])
    cap = capsys.readouterr()
    assert code == 0 and cap.err == ""
    assert json.loads(cap.out) == {"unoriented_counts": {}, "oriented_counts": {}}


def test_gamma2_decompose_round_trip(capsys, data_dir, tmp_path):
    from bistellar.gamma2 import commutation_cycle
    from helpers import icosahedron

    g = commutation_cycle(icosahedron(), (0, 1, 2), (0, 5, 6))
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(g.chain.to_json()))
    code, out = _run(capsys, ["--trace", "gamma2", "decompose", str(chain_file)])
    assert code == 0
    rep = json.loads(out)
    num, den = int(rep["value"]["num"]), int(rep["value"]["den"])
    from fractions import Fraction

    assert Fraction(num, den) == g.value
    assert rep["pieces"] and "chain" in rep["pieces"][0]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["p1", "bogus-procedure", "x"])
    assert exc.value.code == 2


def test_text_format(capsys, data_dir):
    code, out = _run(capsys, ["--format", "text", "check", str(data_dir / "octahedron.facets")])
    assert code == 0
    assert "sphere: yes" in out


@pytest.mark.parametrize(
    "flag",
    [["--seed", "3"], ["--budget", "1"]],
    ids=["seed", "budget"],
)
def test_shared_flag_before_subcommand(capsys, data_dir, flag):
    path = str(data_dir / "cross_4.facets")
    default = _run(capsys, ["reduce", path])
    after = _run(capsys, ["reduce", *flag, path])
    before = _run(capsys, [*flag, "reduce", path])
    assert after != default
    assert before == after


def test_shared_flag_between_group_and_subcommand(capsys, tmp_path):
    from bistellar.gamma2 import commutation_cycle
    from helpers import icosahedron

    g = commutation_cycle(icosahedron(), (0, 1, 2), (0, 5, 6))
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(g.chain.to_json()))
    after = _run(capsys, ["gamma2", "decompose", "--trace", str(chain_file)])
    between = _run(capsys, ["gamma2", "--trace", "decompose", str(chain_file)])
    assert after[0] == 0 and "chain" in json.loads(after[1])["pieces"][0]
    assert between == after


def test_check_five_sphere(capsys, data_dir):
    code, out = _run(capsys, ["check", str(data_dir / "boundary_delta_6.facets")])
    assert code == 0
    assert json.loads(out)["manifold"] == "yes"


def test_check_random_five_sphere(capsys, tmp_path):
    path = str(tmp_path / "five_sphere.facets")
    write_facet_file(path, random_sphere(random.Random(5), 14, dim=5))
    code, out = _run(capsys, ["check", path])
    rep = json.loads(out)
    assert code == 0 and rep["dimension"] == 5 and "sphere" not in rep
    assert rep["manifold"] == "yes"


def test_check_suspended_torus(capsys, tmp_path):
    path = str(tmp_path / "suspended_torus.facets")
    write_facet_file(path, suspension(torus_7()))
    code, out = _run(capsys, ["check", path])
    rep = json.loads(out)
    assert code == 0 and rep["manifold"] == "no" and rep["sphere"] == "no"
    assert rep["manifold_reason"] == "link of vertex 7: Euler characteristic 0 != 2"


@pytest.mark.parametrize("procedure", ["local", "direct"])
def test_p1_below_dimension_four_is_an_error(capsys, data_dir, procedure):
    code, out = _run(capsys, ["p1", procedure, str(data_dir / "boundary_delta_4.facets")])
    assert code == 1
    assert json.loads(out)["error"] == "DimensionTooSmall"


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


# the class of the boundary of the 4-simplex and its (empty) certificate
D4 = "0;0,1,2,3|0,1,2,4|0,1,3,4|0,2,3,4|1,2,3,4"
D4_CERT = {"start_key": D4, "end_key": D4, "moves": []}
# an edge of the tetrahedron boundary's class to itself
D3_LOOP = "+;0,1,2|0,1,3|0,2,3|1,2,3  +;0,1,2|0,1,3|0,2,3|1,2,3  0,1"


def _p1_with_cache(d, data: dict, facets: str = "boundary_delta_5") -> list[str]:
    return ["--xi-cache", _write(d / "xi.json", json.dumps(data)), "p1", "local", str(d / f"{facets}.facets")]


def _cp2_with_certificate(d, cert_of) -> list[str]:
    """p1 of CP^2 with a cache holding ``cert_of(key)`` under the class key of its vertex links."""
    from bistellar import okey, orient
    from bistellar.library import cp2_9

    K = orient(cp2_9())
    write_facet_file(str(d / "cp2.facets"), K.complex)
    key = okey(K.link((0,))).encode()
    return _p1_with_cache(d, {"certificates": {key: cert_of(key)}}, "cp2")


def _perturbed_with_swapped_xi(d) -> list[str]:
    """Local p1 of a perturbed CP^2 with a saved cache whose first two xi
    entries are swapped, so each is filed under the other's class."""
    from bistellar import XiCache, p1_dual_local
    from helpers import perturbed_cp2

    K, cache = perturbed_cp2(1, 5), XiCache()
    p1_dual_local(K, cache=cache)
    data = cache.to_json()
    (a, ca), (b, cb) = list(data["xi"].items())[:2]
    data["xi"][a], data["xi"][b] = cb, ca
    facets = sorted(K.facets)
    doc = {"facets": [list(f) for f in facets], "orientation": [K.facet_signs[f] for f in facets]}
    return ["--xi-cache", _write(d / "xi.json", json.dumps(data)), "p1", "local", _write(d / "k.json", json.dumps(doc))]


@pytest.mark.parametrize(
    "argv_of",
    [
        lambda d: ["check", _write(d / "bad.facets", "0 1 2\n0 1 x\n")],
        lambda d: ["check", _write(d / "bad.json", '{"facets": [[0, 1, 2],')],
        lambda d: ["--xi-cache", _write(d / "xi.json", '{"xi": {"'), "p1", "local", str(d / "boundary_delta_5.facets")],
        lambda d: ["gamma2", "decompose", _write(d / "chain.json", '[["nonsense","1","1"]]')],
        lambda d: ["check", _write(d / "vertex.json", '{"facets": [[0, 1, "x"], [0, 1, 2]]}')],
        lambda d: ["check", _write(d / "facets.json", '{"facets": 5}')],
        lambda d: _p1_with_cache(d, {"eta": {D4: []}}),
        lambda d: _p1_with_cache(d, {"certificates": {D4: D4_CERT}, "eta": {D4: [["nonsense", "1", "1"]]}}),
        lambda d: _cp2_with_certificate(d, lambda key: D4_CERT),
        lambda d: _cp2_with_certificate(d, lambda key: {"start_key": key, "end_key": key, "moves": []}),
        lambda d: _cp2_with_certificate(d, lambda key: {"start_key": key, "end_key": D4, "moves": []}),
        _perturbed_with_swapped_xi,
        lambda d: ["gamma2", "decompose", _write(d / "chain.json", json.dumps([[D3_LOOP, "1", "0"]]))],
        lambda d: _p1_with_cache(d, {"xi": {D4: [[D3_LOOP, "1", "0"]]}}),
    ],
    ids=[
        "facet-text", "facet-json", "xi-cache", "chain", "json-vertex", "json-facets", "eta-without-certificate",
        "eta-chain", "certificate-start", "certificate-end", "certificate-short", "xi-swapped",
        "chain-zero-denominator", "xi-zero-denominator",
    ],
)
def test_malformed_input_is_a_typed_error(capsys, data_dir, argv_of):
    code = main(argv_of(data_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "MalformedInput"
    assert captured.err == ""


def _chain_file(d, scale=1, drop_one=False) -> str:
    """A commutation cycle of the icosahedron times ``scale`` as a chain
    file, less its first edge if ``drop_one``."""
    from fractions import Fraction

    from bistellar.gamma2 import Gamma2Chain, commutation_cycle
    from helpers import icosahedron

    terms = commutation_cycle(icosahedron(), (0, 1, 2), (0, 5, 6)).chain.scaled(Fraction(scale)).terms
    if drop_one:
        terms.pop(min(terms))
    return _write(d / "chain.json", json.dumps(Gamma2Chain(terms).to_json()))


def _edge_file(d, orbit: str) -> str:
    """A chain of one edge of the tetrahedron boundary to itself, at ``orbit``."""
    d3 = "+;0,1,2|0,1,3|0,2,3|1,2,3"
    return _write(d / "chain.json", json.dumps([[f"{d3}  {d3}  {orbit}", "1", "1"]]))


@pytest.mark.parametrize(
    "argv_of, error",
    [
        (lambda d: ["check", str(d / "missing.facets")], "io"),
        (lambda d: ["sw", _write(d / "tri.facets", "0 1 2\n")], "NotClosedManifold"),
        (lambda d: ["check", _write(d / "neg.facets", "0 1 -1\n0 1 2\n")], "DuplicateVertexInFacet"),
        (lambda d: ["check", _write(d / "comment.facets", "# no facets\n")], "FacetContainment"),
        (lambda d: ["gamma2", "decompose", _chain_file(d, drop_one=True)], "NotACycle"),
        (lambda d: ["gamma2", "decompose", _chain_file(d, scale="1/2")], "NotACycle"),
        # an orbit with no move on its tail sphere: a vertex not in it, or
        # an edge whose link spans a face
        (lambda d: ["gamma2", "decompose", _edge_file(d, "9,9")], "InvalidMove"),
        (lambda d: ["gamma2", "decompose", _edge_file(d, "0,1")], "InvalidMove"),
    ],
    ids=[
        "missing-file", "sw-of-a-triangle", "negative-vertex", "comment-only", "open-chain", "half-integral-cycle",
        "orbit-9,9", "orbit-0,1",
    ],
)
def test_failure_is_a_typed_error(capsys, tmp_path, argv_of, error):
    code = main(argv_of(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == error
    assert captured.err == ""


def test_facet_listed_twice_is_a_typed_error(capsys, tmp_path):
    path = _write(tmp_path / "twice.facets", "0 1 2\n0 1 3\n0 2 3\n1 2 3\n2 1 0\n")
    code = main(["reduce", path])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "MalformedInput"
    assert captured.err == ""


def _cp2_json(path, orientation) -> str:
    """The bundled CP^2 as a JSON document, each facet written in descending
    vertex order; ``orientation`` maps the oriented CP^2 to the signs."""
    from bistellar.library import cp2_9
    from bistellar.simplicial import orient

    OK = orient(cp2_9())
    facets = [list(f[::-1]) for f in sorted(OK.facets)]
    return _write(path, json.dumps({"facets": facets, "orientation": orientation(OK, facets)}))


def test_p1_uses_the_json_orientation(capsys, tmp_path):
    from bistellar.simplicial import perm_parity

    def minus_cp2(OK, facets):
        return [-OK.facet_signs[tuple(sorted(f))] * perm_parity(f) for f in facets]

    code, out = _run(capsys, ["p1", "local", _cp2_json(tmp_path / "k.json", minus_cp2)])
    assert code == 0
    assert json.loads(out)["p1_number"] == {"num": "-3", "den": "1"}


def test_p1_direct_on_a_perturbed_input(capsys, tmp_path):
    from helpers import perturbed_cp2

    K = perturbed_cp2(0, steps=1)
    facets = sorted(K.facets)
    doc = {"facets": [list(f) for f in facets], "orientation": [K.facet_signs[f] for f in facets]}
    code, out = _run(capsys, ["p1", "direct", _write(tmp_path / "k.json", json.dumps(doc))])
    assert code == 0
    assert json.loads(out)["p1_number"] == {"num": "3", "den": "1"}


@pytest.mark.parametrize(
    "orientation, error",
    [(lambda OK, facets: [1] * len(facets), "NonOrientable"), (lambda OK, facets: [1], "MalformedInput")],
    ids=["incoherent", "wrong-length"],
)
def test_bad_json_orientation_is_a_typed_error(capsys, tmp_path, orientation, error):
    code = main(["p1", "local", _cp2_json(tmp_path / "k.json", orientation)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == error
    assert captured.err == ""


def test_budget_error_reports_progress(capsys, data_dir):
    code, out = _run(capsys, ["--budget", "0", "reduce", str(data_dir / "cross_4.facets")])
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "BudgetExhausted"
    assert rep["moves_done"] == [] and rep["best_state_vertices"] == 8


def test_stuck_decomposition_reports_residual(capsys, tmp_path, monkeypatch):
    import bistellar.cli as cli
    from bistellar.errors import DecompositionStuck
    from bistellar.gamma2 import commutation_cycle
    from helpers import icosahedron

    chain = commutation_cycle(icosahedron(), (0, 1, 2), (0, 5, 6)).chain

    def stuck(zeta, order_seed=None):
        raise DecompositionStuck("stuck", residual=zeta)

    monkeypatch.setattr(cli, "decompose_cycle", stuck)
    path = _write(tmp_path / "chain.json", json.dumps(chain.to_json()))
    code, out = _run(capsys, ["gamma2", "decompose", path])
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "DecompositionStuck"
    assert rep["residual"] == chain.to_json()


def test_stuck_peeling_reports_its_work_chain(capsys, tmp_path, monkeypatch):
    """The peeling loop itself stuck after its first step: the residual is
    the whole work chain, three strata of it, as a ``Gamma2Chain`` equal to
    the Fraction chain arithmetic, and the CLI prints its JSON form."""
    import random

    import bistellar.gamma2 as gamma2
    from bistellar.errors import DecompositionStuck
    from helpers import random_loop_cycle

    rng, chain = random.Random(20), None
    while chain is None:
        chain = random_loop_cycle(rng)
    n, g = gamma2.decompose_cycle(chain)[0]
    want = chain.plus(g.chain, -n)
    assert len({gamma2.edge_complexity(k) for k in want.terms}) == 3
    calls = []

    def first_only(real):
        def candidates(*args):
            calls.append(args)
            return real(*args) if len(calls) == 1 else iter(())

        return candidates

    monkeypatch.setattr(gamma2, "_candidates_single", first_only(gamma2._candidates_single))
    monkeypatch.setattr(gamma2, "_candidates_paired", first_only(gamma2._candidates_paired))
    with pytest.raises(DecompositionStuck) as info:
        gamma2.decompose_cycle(chain)
    got = info.value.residual
    assert type(got) is gamma2.Gamma2Chain and got == want and got.to_json() == want.to_json()
    calls.clear()
    code, out = _run(capsys, ["gamma2", "decompose", _write(tmp_path / "chain.json", json.dumps(chain.to_json()))])
    assert code == 1
    assert json.loads(out)["residual"] == want.to_json()
