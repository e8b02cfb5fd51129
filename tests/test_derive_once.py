"""Each colour graph, directed dual, selector's incidence, hypertree set,
selector's hyperedges, coverage bound and generator sums, trimmed lattice,
root polytope, triangulation, red interior polynomial and median diagram is
derived once per trinity by ``maps.derived``, and never shared between two
trinities: a report triangulates every red root and the violet and emerald
default roots, and verify every root of every colour; the h-vectors and the
hypertree polytopes pass the default root, so they share its triangulation.
Every value a report or verify keeps on a trinity or its map is hashable.
Nothing calls a colour graph; a report reads the sutured support once, and
verify not at all. The counts come from wrappers around the builders. No
spanning tree is enumerated: the hypertree sets are mu-lattices. No Tutte
matching is listed: the matchings are counted."""

import pkgutil
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import trinities
from trinities import cli, floer, links, polytopes, trinity
from trinities.cli import EXIT_OK, build_report, main
from trinities.documents import document_to_map, parse_graph_document
from trinities.trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    EMERALD,
    HYPERGRAPH_CODES,
    RED,
    VIOLET,
    build_trinity,
    colour_graph,
    default_root,
    directed_dual,
    incidence,
    magic_number_report,
)

from helpers import count_calls, document_text, fixture_path, grid_trinity

FIG7 = fixture_path("fig7.json")


def load_fig7():
    doc = parse_graph_document(Path(FIG7).read_text())
    m, bip, outer = document_to_map(doc)
    return doc, build_trinity(m, bip, outer_face=outer)


SPANNING_TREE_ENUMERATORS = ("enumerate_spanning_trees", "spanning_trees_of_map", "hypertree_set_of_graph")


def test_no_library_module_enumerates_spanning_trees():
    # The enumeration lives in the test oracles only, so neither build_report
    # nor cmd_verify can reach it.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not [name for name in SPANNING_TREE_ENUMERATORS if hasattr(module, name)], info.name


def test_no_library_module_enumerates_tutte_matchings():
    # The matchings are counted by a frontier dynamic program; their
    # enumeration lives in the test oracles only.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not hasattr(module, "enumerate_tutte_matchings"), info.name


def test_report_builds_each_hypertree_lattice_once(monkeypatch):
    # One mu-bound per selector, shared by the magic number, the hypertree
    # sets, the hypertree polytopes and the duality suite.
    calls = count_calls(monkeypatch, polytopes, "_hypertree_bound")
    doc, t = load_fig7()
    report, code = build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert code == EXIT_OK and report["magic"]["magic_number"] == 11
    assert len(calls) == 6
    assert sorted(len(he) for (he,) in calls) == sorted(incidence(t, c)[1] for c in HYPERGRAPH_CODES)


def test_verify_builds_each_hypertree_lattice_once(monkeypatch, capsys):
    calls = count_calls(monkeypatch, polytopes, "_hypertree_bound")
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert len(calls) == 6


def test_verify_triangulates_once_per_colour_and_root(monkeypatch, capsys):
    # The link identity reuses the red triangulation at the default root.
    calls = count_calls(monkeypatch, trinity, "enumerate_arborescences")
    certified = count_calls(monkeypatch, polytopes, "ridge_certificate")
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    pairs = Counter((dd.colour, root) for dd, root in calls)
    _doc, t = load_fig7()
    assert pairs == Counter((c, root) for c in COLOURS for root in directed_dual(t, c).vertices)
    assert len(certified) == len(calls)


def test_report_triangulates_each_red_root_and_the_other_default_roots_once(monkeypatch, capsys):
    # The red listing reads every red root; the violet and emerald hypertree
    # polytopes read the certified trees at their default roots only.
    calls = count_calls(monkeypatch, trinity, "enumerate_arborescences")
    certified = count_calls(monkeypatch, polytopes, "ridge_certificate")
    assert main(["report", FIG7]) == EXIT_OK
    assert '"triangulations_red"' in capsys.readouterr().out
    pairs = Counter((dd.colour, root) for dd, root in calls)
    _doc, t = load_fig7()
    red = [(RED, root) for root in directed_dual(t, RED).vertices]
    assert pairs == Counter(red + [(c, default_root(t, c)) for c in (VIOLET, EMERALD)])
    assert len(certified) == len(calls)


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
        assert polytopes.hypertree_set(t1, "ER") is polytopes.hypertree_set(t1, "ER")


def test_default_and_explicit_root_share_one_triangulation(monkeypatch):
    # The h-vector and the hypertree polytope pass the default root, so an
    # explicit call at that root and the link identity reuse their trees.
    calls = count_calls(monkeypatch, trinity, "enumerate_arborescences")
    _doc, t = load_fig7()
    root = default_root(t, RED)
    polytopes.h_vector(t, RED)
    polytopes.hypertree_polytope_of(t, COLOUR_SELECTORS[RED])
    tr = polytopes.arborescence_triangulation(t, RED, root)
    assert polytopes.arborescence_triangulation(t, RED, root) is tr
    assert [(dd.colour, r) for dd, r in calls] == [(RED, root)]
    assert links.verify_homfly_h_vector(t)["holds"]
    assert len(calls) == 1


def test_report_reads_one_interior_polynomial(monkeypatch, capsys):
    # Every red root's h-vector is the interior polynomial of the one
    # hypertree set; only the check of its trees' hypertrees is per root.
    calls = count_calls(monkeypatch, polytopes, "interior_polynomial")
    assert main(["report", FIG7]) == EXIT_OK
    assert '"h_vector"' in capsys.readouterr().out
    assert len(calls) == 1


def test_report_trims_once_per_selector(monkeypatch):
    # The polytope listing and the duality suite share one trimmed lattice.
    calls = count_calls(monkeypatch, polytopes, "_trimmed")
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert len(calls) == 6


def test_report_derives_each_selectors_hypergraph_data_once(monkeypatch):
    # The GP and trimmed builds share the hyperedges, coverage bound and
    # generator sums of a selector; the mu-bound shares its hyperedges. The
    # hyperedges, root polytope and tree hypertrees read one incidence.
    counted = {
        name: count_calls(monkeypatch, polytopes, name)
        for name in ("_coverage_bound", "_generator_sums", "_hypertree_bound")
    }
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 6)
    hyperedges = [polytopes._hyperedges_of(t, code) for code in HYPERGRAPH_CODES]
    for name in ("_coverage_bound", "_hypertree_bound"):
        assert sorted(map(id, (args[0] for args in counted[name]))) == sorted(map(id, hyperedges)), name
    for code in HYPERGRAPH_CODES:
        assert incidence(t, code) is incidence(t, code)


def test_the_incidences_build_no_colour_graph(monkeypatch, capsys):
    # Every selector's ends are read off the white triangles, so its
    # hyperedges and root polytope need no map; the spanning trees dual to a
    # colour's arborescences are their complements in the directed dual's
    # edge ids, so neither a report nor verify builds a colour graph.
    calls = count_calls(monkeypatch, trinity, "colour_graph")
    _doc, t = load_fig7()
    for code in HYPERGRAPH_CODES:
        polytopes._hyperedges_of(t, code)
        polytopes.root_polytope_of(t, code)
    assert calls == []
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert calls == []
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert calls == []


def test_report_builds_one_median_diagram(monkeypatch):
    # The homfly section, the Seifert data and the link identity share the
    # trinity's diagram.
    calls = count_calls(monkeypatch, links, "median_diagram")
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert len(calls) == 1
    assert links.median_diagram_of(t) is links.median_diagram_of(t)


def test_report_reads_the_support_once_and_verify_never(monkeypatch, capsys):
    calls = count_calls(monkeypatch, floer, "sfh_support")
    doc, t = load_fig7()
    build_report(doc, t, crossing_cap=16, emit_pd=False)
    assert len(calls) == 1
    assert main(["verify", FIG7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert len(calls) == 1


def test_main_builds_its_parser_once(capsys):
    cli.make_parser.cache_clear()
    for _ in range(2):
        assert main(["verify", fixture_path("g1.json")]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert cli.make_parser.cache_info().misses == 1


@pytest.mark.parametrize("source", ["fig7.json", "g1.json", "single_edge.json", "grid3x3"])
def test_every_derived_value_hashes_after_report_and_verify(monkeypatch, capsys, tmp_path, source):
    # A derived value must be immutable; hashing each one on the trinities
    # that report and verify load, and on their maps, checks that it is.
    if source == "grid3x3":
        path = tmp_path / "grid3x3.json"
        path.write_text(document_text(grid_trinity(3, 3)))
    else:
        path = fixture_path(source)
    loaded = []

    def load(*args, **kwargs):
        loaded.append(trinity.build_trinity(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "build_trinity", load)
    for command in ("report", "verify"):
        assert main([command, str(path)]) == EXIT_OK
    capsys.readouterr()
    assert len(loaded) == 2
    for t in loaded:
        assert polytopes._gp_data_of.__wrapped__ in vars(t)
        for obj in (t, t.map):
            for fn, values in vars(obj).items():
                if callable(fn):
                    for value in values.values():
                        hash(value)  # a TypeError names a mutable value
