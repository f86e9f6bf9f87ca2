import json

import pytest

from bistellar.errors import MalformedInput, NotClosedManifold
from bistellar.library import (
    ComplexLibraryEntry,
    catalog,
    cp2_9,
    cross_polytope_boundary,
    read_facet_file,
    simplex_boundary,
    write_facet_file,
)
from bistellar.simplicial import build_complex


def test_catalog_entries_validate():
    entries = catalog()
    assert {"boundary_delta_2", "octahedron", "icosahedron", "rp2_6", "cross_3", "cross_4"} <= set(entries)
    for e in entries.values():
        assert e.complex.f_vector == e.f_vector
    # the boundary of the n-simplex is checked against chi(S^(n-1))
    assert [entries[f"boundary_delta_{n}"].euler for n in range(2, 7)] == [0, 2, 0, 2, 0]


def test_checked_rejects_wrong_data():
    """A wrong f-vector, Euler characteristic or orientability each fail."""
    with pytest.raises(NotClosedManifold, match="f-vector"):
        ComplexLibraryEntry.checked("bad", simplex_boundary(3), (4, 6, 5), 2, True)
    with pytest.raises(NotClosedManifold, match="Euler characteristic"):
        ComplexLibraryEntry.checked("bad", simplex_boundary(3), (4, 6, 4), 0, True)
    with pytest.raises(NotClosedManifold, match="orientability"):
        ComplexLibraryEntry.checked("bad", simplex_boundary(3), (4, 6, 4), 2, False)


def test_cp2_names_the_failing_link(monkeypatch):
    """A link verdict other than Yes stops the load, and its reason names
    the vertex."""
    import bistellar.library as library
    from bistellar.spheres import SphereVerdict

    no = SphereVerdict(False, "link of vertex 4: Euler characteristic 1 != 0")
    monkeypatch.setattr(library, "is_combinatorial_manifold", lambda K: no)
    with pytest.raises(NotClosedManifold, match="cp2_9: .*link of vertex 4: Euler characteristic 1 != 0"):
        cp2_9()


def test_cross_polytopes():
    assert cross_polytope_boundary(3).f_vector == (6, 12, 8)
    assert cross_polytope_boundary(4).f_vector == (8, 24, 32, 16)


def test_cp2_loads_and_validates():
    K = cp2_9()
    assert K.f_vector == (9, 36, 84, 90, 36)
    assert K.euler_characteristic == 3


def test_facet_file_round_trip(tmp_path):
    K = simplex_boundary(3)
    path = str(tmp_path / "k.facets")
    write_facet_file(path, K, "a comment header")
    K2, ori = read_facet_file(path)
    assert K2 == K and ori is None


def test_json_facet_format(tmp_path):
    path = str(tmp_path / "k.json")
    doc = {"facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "orientation": [1, -1, 1, -1]}
    path_obj = tmp_path / "k.json"
    path_obj.write_text(json.dumps(doc))
    K, ori = read_facet_file(str(path_obj))
    assert K == build_complex(doc["facets"])
    assert ori == {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): -1}


def test_json_orientation_applies_to_the_facet_as_written(tmp_path):
    # the same orientation as above: -1 on [1, 0, 2] is +1 on (0, 1, 2), and so on
    doc = {"facets": [[1, 0, 2], [0, 1, 3], [3, 0, 2], [3, 2, 1]], "orientation": [-1, -1, 1, 1]}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    _, ori = read_facet_file(str(path))
    assert ori == {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): -1}


@pytest.mark.parametrize("orientation", [[1], [1, -1, 1, 2], "+-+-"])
def test_json_orientation_must_give_a_sign_per_facet(tmp_path, orientation):
    doc = {"facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], "orientation": orientation}
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedInput):
        read_facet_file(str(path))


@pytest.mark.parametrize("orientation", [None, [1, -1, 1, -1, -1]], ids=["plain", "oriented"])
def test_facet_listed_twice_is_malformed(tmp_path, orientation):
    # [2, 1, 0] repeats [0, 1, 2]; the first four signs are coherent
    doc = {"facets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [2, 1, 0]]}
    if orientation is not None:
        doc["orientation"] = orientation
    path = tmp_path / "k.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedInput, match=r"facet \[0, 1, 2\] is listed twice"):
        read_facet_file(str(path))


def test_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.facets"
    p.write_text("# header\n\n0 1 2  # trailing\n0 1 3\n0 2 3\n1 2 3\n")
    K, _ = read_facet_file(str(p))
    assert K.f_vector == (4, 6, 4)
