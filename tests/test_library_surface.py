"""The library's public surface: every public module-level function and
class in ``src/trinities`` has a caller in the library or the benchmark, so
code that only the tests take lives in ``tests/helpers.py`` and
``tests/oracles.py``; the rank code and the test-only helpers moved there
are gone from the library, and a triangulation keeps no simplices."""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

from trinities.polytopes import Triangulation

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "trinities").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

MOVED = {
    "affine_dim",
    "integer_rank",
    "extend_basis",
    "tree_simplex",
    "hypertree_of",
    "dual_tree",
    "mirror",
    "planar_dual",
    "maps_isomorphic",
    "bipartition",
}


def parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def references(nodes) -> Counter:
    """How often each name is read, as a name or an attribute, or imported.
    Names only: an attribute of the same name counts as a reference."""
    names: Counter = Counter()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_public_library_name_has_a_caller_outside_the_tests():
    library = parsed(LIBRARY)
    everywhere = references([*library.values(), *parsed(BENCHMARK).values()])
    unused = []
    for path, module in library.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if path.stem == "cli" and node.name.startswith("cmd_"):
                continue  # ``cli.main`` dispatches them by name
            if everywhere[node.name] == references([node])[node.name]:  # only its own body names it
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_the_moved_names_are_gone_from_the_library():
    for path, module in parsed(LIBRARY).items():
        defined = {node.name for node in ast.walk(module) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        imported = {
            alias.asname or alias.name
            for node in ast.walk(module)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not (defined | imported) & MOVED, path.name
    assert "simplices" not in {field.name for field in dataclasses.fields(Triangulation)}
