"""The polytope layer is integer-only: every coordinate the library builds
is an ``int``, and outside the rational LP block (``linalg``, ``geometry``)
and ``documents.format_rational`` no library module imports ``fractions``."""

import ast
from importlib import resources

import pytest

from trinities.polytopes import (
    arborescence_triangulation,
    gp_polytope_of,
    hypergraph_root_polytope_of,
    hypertree_polytope_of,
    root_polytope_of,
    trimmed_gp_of,
)
from trinities.trinity import COLOURS, COLOUR_CLASSES, HYPERGRAPH_CODES

from helpers import fig7_trinity, g1_trinity, single_edge_trinity

FRACTION_IMPORTERS = {"linalg", "geometry", "documents"}


def coordinates(points):
    return [x for p in points for x in p]


@pytest.mark.parametrize("build", [single_edge_trinity, g1_trinity, fig7_trinity])
def test_fixture_polytopes_have_int_coordinates(build):
    t = build()
    values = []
    for colour in COLOURS:
        for u_colour in COLOUR_CLASSES[colour]:
            rp = root_polytope_of(t, colour, u_colour)
            values += coordinates(rp.generators) + coordinates(rp.vertices)
        for s in arborescence_triangulation(t, colour).simplices:
            values += coordinates(s)
    for code in HYPERGRAPH_CODES:
        for build_polytope in (gp_polytope_of, trimmed_gp_of, hypertree_polytope_of, hypergraph_root_polytope_of):
            tp = build_polytope(t, code)
            values += coordinates(tp.vertices) + coordinates(tp.lattice)
    assert values and {type(x) for x in values} == {int}


def imported_modules(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return names


def test_only_the_lp_block_and_documents_import_fractions():
    package = resources.files("trinities")
    importers = {
        path.name.removesuffix(".py")
        for path in package.iterdir()
        if path.name.endswith(".py") and "fractions" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers == FRACTION_IMPORTERS
