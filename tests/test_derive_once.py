"""Each colour graph, directed dual, hypertree set, selector's hyperedges,
coverage bound and generator sums, trimmed lattice, root polytope,
triangulation and median diagram is derived once per trinity, and
never shared between two trinities. The counts come from wrappers around the
builders. No spanning tree is enumerated: the hypertree sets are mu-lattices."""

import pkgutil
from collections import Counter
from importlib import import_module, resources

import trinities
from trinities import cli, links, polytopes, trees
from trinities.cli import EXIT_OK, build_report, main
from trinities.documents import document_to_map, parse_graph_document
from trinities.trinity import (
    COLOURS,
    HYPERGRAPH_CODES,
    build_trinity,
    colour_graph,
    directed_dual,
    hypergraph_view,
    magic_number_report,
)

from helpers import count_calls

FIG7 = str(resources.files("trinities") / "fixtures" / "fig7.json")


def load_fig7():
    doc = parse_graph_document((resources.files("trinities") / "fixtures" / "fig7.json").read_text())
    m, bip, outer = document_to_map(doc)
    return doc, build_trinity(m, bip, outer_face=outer)


SPANNING_TREE_ENUMERATORS = ("enumerate_spanning_trees", "spanning_trees_of_map", "hypertree_set_of_graph")


def test_no_library_module_enumerates_spanning_trees():
    # The enumeration lives in the test oracles only, so neither build_report
    # nor cmd_verify can reach it.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not [name for name in SPANNING_TREE_ENUMERATORS if hasattr(module, name)], info.name


def test_report_builds_each_hypertree_lattice_once(monkeypatch):
    # One mu-bound per selector, shared by the magic number, the hypertree
    # sets, the hypertree polytopes and the duality suite.
    calls = count_calls(monkeypatch, polytopes, "_hypertree_bound")
    doc, t = load_fig7()
    report, code = build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert code == EXIT_OK and report["magic"]["magic_number"] == 11
    assert len(calls) == 6
    assert sorted(len(he) for (he,) in calls) == sorted(len(hypergraph_view(t, c)[2]) for c in HYPERGRAPH_CODES)


def test_verify_builds_each_hypertree_lattice_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, polytopes, "_hypertree_bound")
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert len(calls) == 6


def test_verify_triangulates_once_per_colour_and_root(monkeypatch, capsys):
    # The link identity reuses the red triangulation at the default root, and
    # every root of a colour shares one root polytope and its volume.
    calls = count_calls(monkeypatch, trees, "enumerate_arborescences")
    volumes = count_calls(monkeypatch, polytopes, "total_normalized_volume")
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    pairs = Counter((dd.colour, root) for dd, root in calls)
    _doc, t = load_fig7()
    assert pairs == Counter((c, root) for c in COLOURS for root in directed_dual(t, c).vertices)
    assert 1 <= len(volumes) <= 3


def test_two_trinities_of_one_document_derive_separately(monkeypatch):
    calls = count_calls(monkeypatch, polytopes, "_hypertree_bound")
    _doc, t1 = load_fig7()
    _doc, t2 = load_fig7()
    assert magic_number_report(t1) == magic_number_report(t2)
    assert len(calls) == 12
    for colour in COLOURS:
        assert colour_graph(t1, colour) is colour_graph(t1, colour)
        assert colour_graph(t1, colour) is not colour_graph(t2, colour)
        assert colour_graph(t1, colour) == colour_graph(t2, colour)
        assert trees.hypertree_set(t1, "ER") is trees.hypertree_set(t1, "ER")


def test_default_and_explicit_root_share_one_triangulation(monkeypatch):
    calls = count_calls(monkeypatch, trees, "enumerate_arborescences")
    _doc, t = load_fig7()
    default_root = t.triangles[t.root_triangle].corner("red")[1]
    tr = polytopes.arborescence_triangulation(t, "red")
    assert polytopes.arborescence_triangulation(t, "red", default_root) is tr
    assert len(calls) == 1
    assert links.verify_homfly_h_vector(t)["holds"]
    assert len(calls) == 1


def test_report_trims_once_per_selector(monkeypatch):
    # The polytope listing and the duality suite share one trimmed lattice.
    calls = count_calls(monkeypatch, polytopes, "_trimmed")
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert len(calls) == 6


def test_report_derives_each_selectors_hypergraph_data_once(monkeypatch):
    # The GP and trimmed builds share the hyperedges, coverage bound and
    # generator sums of a selector; the mu-bound shares its hyperedges.
    counted = {
        name: count_calls(monkeypatch, polytopes, name)
        for name in ("hyperedges", "_coverage_bound", "_generator_sums")
    }
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 6)


def test_report_builds_one_median_diagram(monkeypatch):
    # The homfly section, the Seifert data, the link identity and the sutured
    # summary share the trinity's diagram.
    calls = count_calls(monkeypatch, links, "median_diagram")
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert len(calls) == 1
    assert links.median_diagram_of(t) is links.median_diagram_of(t)


def test_main_builds_its_parser_once(capsys):
    cli.make_parser.cache_clear()
    for _ in range(2):
        assert main(["verify", str(resources.files("trinities") / "fixtures" / "g1.json")]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert cli.make_parser.cache_info().misses == 1
