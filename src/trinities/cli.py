"""Command-line interface: parse a graph document, compute, report.

Exit codes: 0 success, 1 failed verification checks, 2 invalid input,
3 internal consistency failure, 4 crossing cap exceeded (a report is still
emitted, minus the link polynomial).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import floer, links, polytopes, trees
from .documents import (
    DocumentError,
    GraphDocument,
    document_to_map,
    format_point,
    parse_graph_document,
)
from .maps import MapError, betti1
from .trinity import (
    COLOURS,
    HYPERGRAPH_CODES,
    InternalConsistencyError,
    Trinity,
    build_trinity,
    colour_of_hypergraph,
    directed_dual,
    magic_number_report,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CROSSING_CAP = 4


def _load_trinity(path: str, root_triangle: Optional[int]) -> tuple[GraphDocument, Trinity]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_graph_document(fh.read())
    m, bip, outer = document_to_map(doc)
    t = build_trinity(m, bip, outer_face=outer, root_triangle=root_triangle)
    return doc, t


def _jsonable(x):
    if isinstance(x, links.LaurentPoly2):
        return links.format_poly(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(_jsonable(v) for v in x)
    return x


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")
    else:
        _emit_text(_jsonable(obj), 0)


def _emit_text(obj, depth: int) -> None:
    pad = "  " * depth
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                sys.stdout.write(f"{pad}{k}:\n")
                _emit_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}{k}: {_inline(v)}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                sys.stdout.write(f"{pad}-\n")
                _emit_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}- {_inline(v)}\n")
    else:
        sys.stdout.write(f"{pad}{_inline(obj)}\n")


def _inline(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_inline(x) for x in v) + "]"
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    return str(v)


def _polytope_listing(tp: polytopes.TaggedPolytope) -> dict:
    return {
        "vertices": [format_point(v) for v in tp.vertices],
        "lattice_points": [list(p) for p in tp.lattice],
        "affine_dim": tp.affine_dim,
    }


def _homfly_section(t: Trinity, crossing_cap: int, root: Optional[int], emit_pd: bool) -> tuple[dict, int]:
    diagram = links.median_diagram_of(t)
    section: dict = {
        "crossings": diagram.n_crossings,
        "components": links.component_count(diagram),
        "seifert": links.seifert_data(t),
    }
    if emit_pd:
        section["pd_code"] = links.pd_code(diagram).split("\n")
    try:
        rep = links.verify_homfly_h_vector(t, root=root, crossing_cap=crossing_cap)
    except links.CrossingCapExceeded as exc:
        section["error"] = str(exc)
        return section, EXIT_CROSSING_CAP
    ac = links.alexander_conway(rep["homfly"])
    zdeg = max(ac.z_degrees()) if not ac.is_zero() else 0
    section.update(
        {
            "homfly": rep["homfly"],
            "top": rep["top"],
            "alexander_conway": ac,
            "alexander_leading_coefficient": sum(c for _k, c in ac.z_coefficient(zdeg).coeffs),
            "h_vector": list(rep["h_vector"]),
            "identity_top_equals_scaled_h": rep["holds"],
            "scaled_h_of_v_minus2": rep["scaled_h_of_v_minus2"],
            "scaled_h_of_v_minus1": rep["scaled_h_of_v_minus1"],
        }
    )
    return section, EXIT_OK


def build_report(doc: GraphDocument, t: Trinity, crossing_cap: int, emit_pd: bool) -> tuple[dict, int]:
    m = t.map
    magic = magic_number_report(t)
    hyper_sets = {code: [list(p) for p in trees.hypertree_set(t, code)] for code in HYPERGRAPH_CODES}
    poly_section = {}
    for code in HYPERGRAPH_CODES:
        poly_section[code] = {
            "gp": _polytope_listing(polytopes.gp_polytope_of(t, code)),
            "trimmed": _polytope_listing(polytopes.trimmed_gp_of(t, code)),
            "hypertree": _polytope_listing(polytopes.hypertree_polytope_of(t, code)),
        }
    rp = polytopes.root_polytope_of(t, "red")
    triangulations = {}
    dd = directed_dual(t, "red")
    for root in dd.vertices:
        tr = polytopes.arborescence_triangulation(t, "red", root)
        triangulations[str(root)] = {
            "trees": [list(x) for x in tr.trees],
            "f_vector": list(polytopes.f_vector(tr)),
            "h_vector": list(polytopes.h_vector(tr)),
        }
    support = floer.sfh_support(t)
    summary = floer.sutured_summary(t)
    homfly_section, code = _homfly_section(t, crossing_cap, None, emit_pd)
    report = {
        "graph": {
            "violet": list(doc.violet),
            "emerald": list(doc.emerald),
            "n_edges": m.n_edges,
            "n_faces": m.n_faces,
            "first_betti_number": betti1(m),
        },
        "root_triangle": t.root_triangle,
        "magic": magic,
        "hypertree_sets": hyper_sets,
        "polytopes": poly_section,
        "root_polytope": {
            "vertices": [format_point(v) for v in rp.vertices],
            "affine_dim": rp.affine_dim,
        },
        "triangulations_red": triangulations,
        "duality": polytopes.verify_duality_suite(t),
        "homfly": homfly_section,
        "floer": {
            "support": [list(p) for p in support.points],
            "dim_sfh": support.size,
            "tight_contact_counts": {c: floer.tight_contact_count(t, c) for c in COLOURS},
            "genus": summary.genus,
            "suture_components": summary.suture_components,
            "balanced": summary.balanced,
            "invariant_is_generator": list(summary.invariant_is_generator),
        },
    }
    return report, code


def cmd_report(args) -> int:
    doc, t = _load_trinity(args.path, args.root_triangle)
    report, code = build_report(doc, t, args.crossing_cap, args.emit_pd)
    _emit(report, args.format)
    return code


def cmd_polytope(args) -> int:
    doc, t = _load_trinity(args.path, args.root_triangle)
    code = args.hypergraph
    if code not in HYPERGRAPH_CODES:
        raise DocumentError(f"unknown hypergraph selector {code!r}")
    build = {
        "gp": polytopes.gp_polytope_of,
        "trimmed": polytopes.trimmed_gp_of,
        "hypertree": polytopes.hypertree_polytope_of,
        "root": polytopes.hypergraph_root_polytope_of,
    }[args.which]
    listing = _polytope_listing(build(t, code))
    _emit({"hypergraph": code, "which": args.which, "polytope": listing}, args.format)
    return EXIT_OK


def cmd_homfly(args) -> int:
    doc, t = _load_trinity(args.path, args.root_triangle)
    section, code = _homfly_section(t, args.crossing_cap, args.root_dual_vertex, args.emit_pd)
    _emit(section, args.format)
    return code


def cmd_verify(args) -> int:
    doc, t = _load_trinity(args.path, args.root_triangle)
    failures: list[str] = []

    magic = magic_number_report(t)
    if not magic["all_equal"]:
        failures.append("magic-routes-disagree")
    duality = polytopes.verify_duality_suite(t)
    if not duality["all_hold"]:
        failures.append("duality-suite")
    for colour in COLOURS:
        dd = directed_dual(t, colour)
        counts = {r: trees.count_arborescences(dd, r) for r in dd.vertices}
        if len(set(counts.values())) != 1:
            failures.append(f"arborescence-root-dependence-{colour}")
        # Both sides' hypertrees, read off each triangulation's trees, are
        # the hypertree sets, each vector once.
        sides = [code for code in HYPERGRAPH_CODES if colour_of_hypergraph(code) == colour]
        hypertrees_hold = True
        for root in dd.vertices:
            try:
                tr = polytopes.arborescence_triangulation(t, colour, root)
            except InternalConsistencyError:
                failures.append(f"triangulation-{colour}-root-{root}")
                continue
            if len(tr.simplices) != magic["magic_number"]:
                failures.append(f"triangulation-size-{colour}-root-{root}")
            hypertrees_hold &= all(
                polytopes.triangulation_hypertrees(t, code, root) == trees.hypertree_set(t, code) for code in sides
            )
        if not hypertrees_hold:
            failures.append(f"hypertrees-triangulation-{colour}")
    try:
        support = floer.sfh_support(t)
        if support.size != magic["magic_number"]:
            failures.append("sfh-support-size")
        for colour in COLOURS:
            if floer.tight_contact_count(t, colour) != magic["magic_number"]:
                failures.append(f"tight-count-{colour}")
    except InternalConsistencyError:
        failures.append("sfh-support-routes")
    if t.map.n_edges <= args.crossing_cap:
        rep = links.verify_homfly_h_vector(t, crossing_cap=args.crossing_cap)
        if not rep["holds"]:
            failures.append("homfly-h-vector-identity")
    result = {"checks_failed": failures, "ok": not failures, "magic_number": magic["magic_number"]}
    _emit(result, args.format)
    return EXIT_OK if not failures else EXIT_CHECKS_FAILED


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use (not at
    import); parsing does not change it."""
    parser = argparse.ArgumentParser(prog="trinities", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("path", help="graph document (JSON)")
        p.add_argument("--root-triangle", type=int, default=None, help="white triangle id overriding the default root")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--crossing-cap", type=int, default=16)

    p = sub.add_parser("report", help="full report: every route to the magic number")
    common(p)
    p.add_argument("--emit-pd", action="store_true")

    p = sub.add_parser("polytope", help="vertex and lattice listings of one polytope")
    common(p)
    p.add_argument("--hypergraph", required=True, choices=HYPERGRAPH_CODES)
    p.add_argument("--which", required=True, choices=("gp", "trimmed", "hypertree", "root"))

    p = sub.add_parser("homfly", help="link polynomial of the median diagram")
    common(p)
    p.add_argument("--root-dual-vertex", type=int, default=None)
    p.add_argument("--emit-pd", action="store_true")

    p = sub.add_parser("verify", help="run the invariant suite on the document")
    common(p)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # By name, so a cached parser holds no handler and the module's
        # current cmd_* binding runs.
        return globals()[f"cmd_{args.command}"](args)
    except (DocumentError, MapError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    except links.CrossingCapExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CROSSING_CAP
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
