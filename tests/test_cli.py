import json
import os

import pytest

from bistellar.cli import main
from bistellar.library import RP2_6_FACETS, write_facet_file
from bistellar.simplicial import build_complex


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


def test_reduce_emits_certificate(capsys, data_dir):
    code, out = _run(capsys, ["reduce", str(data_dir / "cross_4.facets")])
    assert code == 0
    rep = json.loads(out)
    assert rep["length"] >= 3
    assert rep["certificate"]["moves"]


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
    assert rep["unoriented_counts"] == {"4": "1", "5": "1", "6": "2"} or rep["unoriented_counts"] == {
        "4": 1,
        "5": 1,
        "6": 2,
    }


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


def test_jobs_before_subcommand(capsys, data_dir, monkeypatch):
    import bistellar.cli as cli

    seen = []
    real = cli.p1_dual_local

    def spy(*args, **kwargs):
        seen.append(kwargs["jobs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "p1_dual_local", spy)
    path = str(data_dir / "boundary_delta_5.facets")
    after = _run(capsys, ["p1", "local", "--jobs", "2", path])
    before = _run(capsys, ["--jobs", "2", "p1", "local", path])
    assert before == after
    assert seen == [2, 2]


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


@pytest.mark.parametrize("procedure", ["local", "direct"])
def test_p1_below_dimension_four_is_an_error(capsys, data_dir, procedure):
    code, out = _run(capsys, ["p1", procedure, str(data_dir / "boundary_delta_4.facets")])
    assert code == 1
    assert json.loads(out)["error"] == "DimensionTooSmall"


def test_p1_jobs_cache_file_matches_serial(capsys, tmp_path):
    """--jobs workers send their xi chains back, so the saved cache is the
    serial one, byte for byte."""
    from bistellar.simplicial import Complex
    from helpers import perturbed_cp2

    facets = tmp_path / "k.facets"
    write_facet_file(str(facets), Complex(perturbed_cp2(0, steps=1).facets))
    runs = {}
    for jobs in ("1", "2"):
        cachep = tmp_path / f"xi{jobs}.json"
        runs[jobs] = _run(capsys, ["p1", "local", "--jobs", jobs, "--xi-cache", str(cachep), str(facets)])
    assert runs["1"] == runs["2"] and runs["1"][0] == 0
    assert (tmp_path / "xi1.json").read_bytes() == (tmp_path / "xi2.json").read_bytes()
    assert json.loads((tmp_path / "xi2.json").read_text())["xi"]


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "argv_of",
    [
        lambda d: ["check", _write(d / "bad.facets", "0 1 2\n0 1 x\n")],
        lambda d: ["check", _write(d / "bad.json", '{"facets": [[0, 1, 2],')],
        lambda d: ["--xi-cache", _write(d / "xi.json", '{"xi": {"'), "p1", "local", str(d / "boundary_delta_5.facets")],
        lambda d: ["gamma2", "decompose", _write(d / "chain.json", '[["nonsense","1","1"]]')],
    ],
    ids=["facet-text", "facet-json", "xi-cache", "chain"],
)
def test_malformed_input_is_a_typed_error(capsys, data_dir, argv_of):
    code = main(argv_of(data_dir))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["error"] == "MalformedInput"
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
