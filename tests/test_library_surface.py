"""The library's public surface: every public module-level function and
class in ``src/trinities``, and every public method and property of its
classes, has a caller in the library or the benchmark, so code that only the
tests take lives in ``tests/helpers.py``, ``tests/oracles.py`` or the test
that uses it; the rank code and the test-only helpers moved there, and the
deleted skein switch, tree-size check, triangle-colouring recheck, the
triangulation and adjacency-matrix wrappers, the uncertified tree and
tree-hypertree readers, the triangle table and the readers built on it, and
the hand-keyed memo with its twin builders, the forwarding hypertree reader
and the reachability filter of the arborescence enumeration are gone from
the library; a trinity stores no triangles and a directed dual no copy of
the white triangles; only ``maps.derived`` keeps a value on an object; the
library modules import each other in no cycle; ``trees`` only binds, for
the benchmark, names that live in ``trinity`` and ``polytopes``; and only
``tests/helpers.py`` seeds the corpus or spells the fixtures directory; no
``json`` call in the library passes ``indent``; and only ``cli.main`` reads
``sys.stdout`` or ``sys.stderr``. Every name a test file imports at module
level is read in that file."""

import ast
import dataclasses
import re
from collections import Counter
from importlib import import_module
from pathlib import Path

from trinities.trinity import DirectedDual, Trinity

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "trinities").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
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
    "hypergraph_view",
    "_hypergraph_view",
    "_incidence",
    "_homfly",
    "_smoothed",
    "_first_under",
    "_split_factor",
    "shift",
    "_under_first",
    "arborescence_to_spanning_tree",
    "Triangulation",
    "AdjMatrix",
    "_validate_triangle_colouring",
    "arborescence_trees",
    "triangulation_hypertrees",
    "hypergraph_root_polytope_of",
    "Triangle",
    "_adjacent",
    "red_vertices",
    "root_vertices",
    "all_vertices",
    "head_of",
    "memo",
    "_colour_graph",
    "_directed_dual",
    "_white_triangles",
    "hypertree_lattice_of",
    "_reaches_all",
    "_tree_edge_sides",
}


def parsed(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def binding_reads(modules) -> Counter:
    """How often each library name is read through a binding of it, outside
    the top-level definition of that name: as a bare name that the file
    defines at module level or imports from a library module, where no
    enclosing function binds a local of that name; as an attribute of a name
    bound to a library module (``polytopes.x``); or imported. A local
    variable, or an attribute of any other object, of the same name does not
    count."""
    reads: Counter = Counter()
    for module in modules:
        names = {node.name for node in module.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        library_modules = set()
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "trinities"):
                bound = {alias.asname or alias.name for alias in node.names}
                (library_modules if node.module in (None, "trinities") else names).update(bound)
                reads.update(alias.name for alias in node.names)

        def visit(node, owner, shadowed):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                shadowed = shadowed | {
                    n.arg if isinstance(n, ast.arg) else n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.arg) or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in names - shadowed and node.id != owner:
                    reads[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in library_modules and node.attr != owner:
                    reads[node.attr] += 1
            for child in ast.iter_child_nodes(node):
                visit(child, owner, shadowed)

        for top in module.body:
            visit(top, getattr(top, "name", None), frozenset())
    return reads


def test_every_public_library_name_has_a_caller_outside_the_tests():
    library = parsed(LIBRARY)
    everywhere = binding_reads([*library.values(), *parsed(BENCHMARK).values()])
    unused = []
    for path, module in library.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if path.stem == "cli" and node.name.startswith("cmd_"):
                continue  # ``cli.main`` dispatches them by name
            if not everywhere[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


# Members kept without a library or benchmark caller.
EXEMPT_MEMBERS = {
    # Part of the rational LP block that ``perfbench/tests`` pins (ROADMAP
    # item 3): the benchmark's own tests build polytopes with it.
    "VPolytope.from_points",
}


def attribute_reads(nodes) -> Counter:
    """How often each attribute name is read, on any object."""
    return Counter(
        node.attr
        for root in nodes
        for node in ast.walk(root)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_library_member_has_a_caller_outside_the_tests():
    library = parsed(LIBRARY)
    everywhere = attribute_reads([*library.values(), *parsed(BENCHMARK).values()])
    unused = []
    for path, module in library.items():
        for cls in module.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                name = f"{cls.name}.{node.name}"
                if name not in EXEMPT_MEMBERS and everywhere[node.name] == attribute_reads([node])[node.name]:
                    unused.append(f"{path.stem}.{name}")
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


def test_a_trinity_is_its_map():
    # Every corner is read off the map, so neither record keeps a table.
    assert "triangles" not in {field.name for field in dataclasses.fields(Trinity)}
    assert "white_triangles" not in {field.name for field in dataclasses.fields(DirectedDual)}


def test_only_derived_touches_an_objects_dict():
    # Every value kept on an object is derived, under its builder's own key.
    touching = {
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path, module in parsed(LIBRARY).items()
        for top in module.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
        or isinstance(node, ast.Name) and node.id == "vars"
    }
    assert touching == {"maps.derived"}


def benchmark_reads() -> set[tuple[str, str]]:
    """(module, name) for every name the benchmark's own files import from a
    library module, or read as an attribute of a name bound to one."""
    reads = set()
    for module in parsed(BENCHMARK).values():
        bound = {}  # local name -> library module
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "trinities":
                for alias in node.names:
                    if node.module == "trinities":
                        bound[alias.asname or alias.name] = f"trinities.{alias.name}"
                    else:
                        reads.add((node.module, alias.name))
        for node in ast.walk(module):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                reads.add((bound[node.value.id], node.attr))
    return reads


# Bindings that ``from x import y`` copies and the benchmark's tracer test
# wraps by their importing module's name.
COPIED_BINDINGS = {
    ("geometry", "lp_solve"): ("linalg", "lp_solve"),
    ("polytopes", "lattice_points"): ("geometry", "lattice_points"),
    ("trees", "colour_graph"): ("trinity", "colour_graph"),
    ("cli", "directed_dual"): ("trinity", "directed_dual"),
}


def test_the_names_the_benchmark_reaches_exist():
    reads = benchmark_reads()
    assert ("trinities.trinity", "build_trinity") in reads
    missing = sorted(f"{module}.{name}" for module, name in reads if not hasattr(import_module(module), name))
    assert missing == []
    for (copy, name), (origin, original) in COPIED_BINDINGS.items():
        assert getattr(import_module(f"trinities.{copy}"), name, None) is getattr(
            import_module(f"trinities.{origin}"), original
        ), f"{copy}.{name}"


def module_imports() -> dict[str, set[str]]:
    """The library modules that each library module imports at module level,
    by ``from .x import y`` or ``from . import x``."""
    return {
        path.stem: {
            name
            for node in module.body
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module] if node.module else [alias.name for alias in node.names])
        }
        for path, module in parsed(LIBRARY).items()
    }


def test_the_library_modules_import_each_other_in_no_cycle():
    """Peeling off, again and again, the modules that import none of the
    modules left leaves none. Imports made inside a function are not
    counted; the two there are, ``trinity.magic_number_report``'s ``from .
    import polytopes`` and ``documents._encoded``'s ``from .links import
    ...``, run after both modules are loaded."""
    left = module_imports()
    while peeled := {name for name, imports in left.items() if not imports & left.keys()}:
        left = {name: imports for name, imports in left.items() if name not in peeled}
    assert sorted(left) == []


# The names ``trees`` binds because the benchmark reads them there, and the
# modules they live in.
TREES_BINDINGS = {
    "hypertree_set": "polytopes",
    "colour_graph": "trinity",
    "count_arborescences": "trinity",
    "enumerate_arborescences": "trinity",
}


def test_trees_only_binds_names_that_live_elsewhere():
    trees = ast.parse((ROOT / "src" / "trinities" / "trees.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(trees) if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    for name, home in TREES_BINDINGS.items():
        assert getattr(import_module("trinities.trees"), name) is getattr(import_module(f"trinities.{home}"), name)
    assert [name for name, imports in module_imports().items() if "trees" in imports] == []


# A corpus seed, or a path through the fixtures directory.
BUILDS_THE_CASES = re.compile(r"Random\(9000|[/] ?[\"']fixtures[\"'/]|[/]fixtures[/]")


def test_only_the_helpers_seed_the_corpus_or_spell_the_fixtures_directory():
    # Every cross-route test reads its fixtures, grids and corpus chunks
    # from ``helpers.graphs`` and its documents from ``helpers.fixture_path``.
    spelling = [path.name for path in TESTS if BUILDS_THE_CASES.search(path.read_text(encoding="utf-8"))]
    assert spelling == ["helpers.py"]


def test_no_json_call_in_the_library_passes_indent():
    # ``indent`` runs CPython's pure-Python encoder; ``documents.write_json``
    # writes the same text.
    indented = [
        f"{path.stem}:{node.lineno}"
        for path, module in parsed(LIBRARY).items()
        for node in ast.walk(module)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) in {("json", "dump"), ("json", "dumps")}
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert indented == []


def test_only_cli_main_reads_the_standard_streams():
    # ``cli.main`` writes every document and message and handles a reader
    # that closes stdout early; a ``print`` or a read of ``sys.stdout`` or
    # ``sys.stderr`` anywhere else would write around it.
    readers = {
        f"{path.stem}.{getattr(top, 'name', top.lineno)}"
        for path, module in parsed(LIBRARY).items()
        for top in module.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in {("sys", "stdout"), ("sys", "stderr")}
        or isinstance(node, ast.Name) and node.id == "print"
    }
    assert readers == {"cli.main"}


def test_every_module_level_import_of_a_test_file_is_read():
    # Read means loaded as a bare name, the base of an attribute among them,
    # or taken as a test function's parameter, which pytest fills with the
    # fixture of that name.
    unread = []
    for path, module in parsed(TESTS).items():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in module.body
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        fixtures = {
            arg.arg
            for node in ast.walk(module)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
            for arg in node.args.args
        }
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read - fixtures)]
    assert unread == []
