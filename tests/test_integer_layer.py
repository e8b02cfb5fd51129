"""The polytope layer is integer-only: every coordinate the library builds
is an ``int``, and outside the rational LP block (``linalg``, ``geometry``)
no library module imports ``fractions``."""

import ast
from importlib import resources

import pytest

from trinities.polytopes import (
    arborescence_triangulation,
    gp_polytope_of,
    hypertree_polytope_of,
    root_polytope_of,
    trimmed_gp_of,
)
from trinities.trinity import COLOUR_SELECTORS, COLOURS, HYPERGRAPH_CODES, default_root

from helpers import FIXTURES, case_id, graphs
from oracles import tree_simplex

FRACTION_IMPORTERS = {"linalg", "geometry"}


def coordinates(points):
    return [x for p in points for x in p]


@pytest.mark.parametrize("case", FIXTURES, ids=case_id)
def test_fixture_polytopes_have_int_coordinates(case):
    (t,) = graphs(case)
    values = []
    for code in HYPERGRAPH_CODES:
        rp = root_polytope_of(t, code)
        values += coordinates(rp.generators) + coordinates(rp.vertices)
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        for tree in arborescence_triangulation(t, colour, default_root(t, colour)):
            values += coordinates(tree_simplex(rp, tree))
    for code in HYPERGRAPH_CODES:
        for build_polytope in (gp_polytope_of, trimmed_gp_of, hypertree_polytope_of, root_polytope_of):
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


def test_only_the_lp_block_imports_fractions():
    package = resources.files("trinities")
    importers = {
        path.name.removesuffix(".py")
        for path in package.iterdir()
        if path.name.endswith(".py") and "fractions" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers == FRACTION_IMPORTERS
