"""Bundled complexes: simplex boundaries, cross polytopes, small surfaces,
and the 9-vertex complex projective plane.

Every entry revalidates its expected invariants (f-vector, Euler
characteristic, orientability) when built, so a corrupted data file cannot
slip through.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from typing import NamedTuple

from .errors import MalformedInput, NotClosedManifold, parsing
from .simplicial import Complex, Simplex, boundary_of_simplex, build_complex, is_orientable, perm_parity, simplex
from .spheres import is_combinatorial_manifold

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class ComplexLibraryEntry(NamedTuple):
    name: str
    complex: Complex
    f_vector: tuple[int, ...]
    euler: int
    orientable: bool

    @staticmethod
    def checked(name: str, K: Complex, f_vector, euler, orientable) -> "ComplexLibraryEntry":
        if K.f_vector != tuple(f_vector):
            raise NotClosedManifold(f"{name}: f-vector {K.f_vector} != {tuple(f_vector)}")
        if K.euler_characteristic != euler:
            raise NotClosedManifold(f"{name}: Euler characteristic {K.euler_characteristic} != {euler}")
        if is_orientable(K) != orientable:
            raise NotClosedManifold(f"{name}: orientability mismatch")
        return ComplexLibraryEntry(name, K, tuple(f_vector), euler, orientable)


simplex_boundary = boundary_of_simplex  # the library's older name, still exported


def cross_polytope_boundary(d: int) -> Complex:
    """Boundary of the d-dimensional cross polytope: vertices 2i, 2i+1 are
    antipodal; facets pick one vertex per pair."""
    facets = []

    def rec(i, acc):
        if i == d:
            facets.append(tuple(sorted(acc)))
            return
        rec(i + 1, acc + [2 * i])
        rec(i + 1, acc + [2 * i + 1])

    rec(0, [])
    return Complex(facets, _validated=True)


OCTAHEDRON_FACETS = [
    [0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5],
    [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5],
]

ICOSAHEDRON_FACETS = [
    [0, 1, 2], [0, 1, 5], [0, 2, 7], [0, 5, 6], [0, 6, 7],
    [1, 2, 3], [1, 3, 4], [1, 4, 5], [2, 3, 8], [2, 7, 8],
    [3, 4, 9], [3, 8, 9], [4, 5, 10], [4, 9, 10], [5, 6, 10],
    [6, 7, 11], [6, 10, 11], [7, 8, 11], [8, 9, 11], [9, 10, 11],
]

RP2_6_FACETS = [
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
]


def read_facet_file(path: str) -> tuple[Complex, dict[Simplex, int] | None]:
    """Read the whitespace-separated facet-list format ('#' comments), or a
    JSON document with "facets" and optional "orientation".

    A facet listed twice, in any vertex order, is ``MalformedInput``.  The
    orientation lists one sign, 1 or -1, per facet, for the facet with its
    vertices in the order written.  It is returned as the sign of each
    facet in ascending vertex order, or None when the document has none.
    """
    with open(path) as fh, parsing(path):
        text = fh.read()
        if text.lstrip().startswith("{"):
            data = json.loads(text)
            facets, orientation = data["facets"], data.get("orientation")
        else:
            facets, orientation = [], None
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if line:
                    facets.append([int(x) for x in line.split()])
        K = build_complex(facets)
    if len(K.facets) < len(facets):
        seen: set[Simplex] = set()
        for f in map(simplex, facets):
            if f in seen:
                raise MalformedInput(f"{path}: facet {list(f)} is listed twice")
            seen.add(f)
    if orientation is None:
        return K, None
    ok = isinstance(orientation, list) and len(orientation) == len(facets)
    if not ok or any(s not in (1, -1) for s in orientation):
        raise MalformedInput(f"{path}: the orientation needs one sign, 1 or -1, per facet ({len(facets)} facets)")
    return K, {tuple(sorted(f)): s * perm_parity(f) for f, s in zip(facets, orientation)}


def write_facet_file(path: str, K: Complex, header: str | None = None) -> None:
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for f in sorted(K.facets):
            fh.write(" ".join(map(str, f)) + "\n")


def cp2_9() -> Complex:
    """The 9-vertex triangulation of the complex projective plane.

    Loaded from the bundled facet list and revalidated: its f-vector (36
    edges on 9 vertices give each vertex link all 8 others), Euler
    characteristic 3, and every vertex link a combinatorial 3-sphere.
    """
    K, _ = read_facet_file(os.path.join(_DATA_DIR, "cp2_9.facets"))
    entry = ComplexLibraryEntry.checked("cp2_9", K, (9, 36, 84, 90, 36), 3, True)
    if not (links := is_combinatorial_manifold(K)):
        raise NotClosedManifold(f"cp2_9: vertex links are not all 8-vertex 3-spheres ({links.reason})")
    return entry.complex


def catalog() -> dict[str, ComplexLibraryEntry]:
    """All bundled complexes, each validated against its expected data."""
    out: dict[str, ComplexLibraryEntry] = {}
    for n in range(2, 7):
        K = simplex_boundary(n)
        fv = tuple(
            len(list(combinations(range(n + 1), k + 1))) for k in range(n)
        )
        out[f"boundary_delta_{n}"] = ComplexLibraryEntry.checked(
            f"boundary_delta_{n}", K, fv, 1 + (-1) ** (n - 1), True  # chi(S^(n-1))
        )
    out["octahedron"] = ComplexLibraryEntry.checked(
        "octahedron", build_complex(OCTAHEDRON_FACETS), (6, 12, 8), 2, True
    )
    out["icosahedron"] = ComplexLibraryEntry.checked(
        "icosahedron", build_complex(ICOSAHEDRON_FACETS), (12, 30, 20), 2, True
    )
    out["rp2_6"] = ComplexLibraryEntry.checked(
        "rp2_6", build_complex(RP2_6_FACETS), (6, 15, 10), 1, False
    )
    out["cross_3"] = ComplexLibraryEntry.checked(
        "cross_3", cross_polytope_boundary(3), (6, 12, 8), 2, True
    )
    out["cross_4"] = ComplexLibraryEntry.checked(
        "cross_4", cross_polytope_boundary(4), (8, 24, 32, 16), 0, True
    )
    return out
