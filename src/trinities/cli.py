"""Command-line interface: parse a graph document, compute, report.

Exit codes: 0 success, 1 failed verification checks, 2 invalid input,
3 internal consistency failure, 4 crossing cap exceeded (a report is still
emitted, minus the link polynomial).
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import floer, links, polytopes
from .documents import (
    DocumentError,
    GraphDocument,
    document_to_map,
    format_point,
    parse_graph_document,
    write_json,
)
from .maps import MapError, betti1
from .trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    Trinity,
    build_trinity,
    count_arborescences,
    directed_dual,
    magic_number_report,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CROSSING_CAP = 4


def _load_trinity(path: str, root_triangle: Optional[int]) -> tuple[GraphDocument, Trinity]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise DocumentError(str(exc)) from exc
    doc = parse_graph_document(text)
    m, bip, outer = document_to_map(doc)
    t = build_trinity(m, bip, outer_face=outer, root_triangle=root_triangle)
    return doc, t


def _emit(obj: dict, fmt: str) -> None:
    """Write the document to stdout: tuples as lists, link polynomials formatted."""
    if fmt == "json":
        write_json(obj)
    else:
        _emit_text(obj, 0)


def _emit_text(obj, depth: int) -> None:
    pad = "  " * depth
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)) and v:
                sys.stdout.write(f"{pad}{k}:\n")
                _emit_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}{k}: {_inline(v)}\n")
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                sys.stdout.write(f"{pad}-\n")
                _emit_text(v, depth + 1)
            else:
                sys.stdout.write(f"{pad}- {_inline(v)}\n")
    else:
        sys.stdout.write(f"{pad}{_inline(obj)}\n")


def _inline(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_inline(x) for x in v) + "]"
    if isinstance(v, links.LaurentPoly2):
        return links.format_poly(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    return str(v)


def _polytope_listing(tp: polytopes.TaggedPolytope | polytopes.RootPolytope) -> dict:
    return {
        "vertices": [format_point(v) for v in tp.vertices],
        "lattice_points": tp.lattice,
        "affine_dim": tp.affine_dim,
    }


def _homfly_section(t: Trinity, crossing_cap: int, emit_pd: bool) -> tuple[dict, int]:
    diagram = links.median_diagram_of(t)
    seifert = links.seifert_data(t)
    section: dict = {"crossings": diagram.n_crossings, "components": seifert["components"], "seifert": seifert}
    if emit_pd:
        section["pd_code"] = links.pd_code(diagram).split("\n")
    try:
        rep = links.verify_homfly_h_vector(t, crossing_cap=crossing_cap)
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
            "h_vector": rep["h_vector"],
            "identity_top_equals_scaled_h": rep["holds"],
            "scaled_h_of_v_minus2": rep["scaled_h_of_v_minus2"],
            "scaled_h_of_v_minus1": rep["scaled_h_of_v_minus1"],
        }
    )
    return section, EXIT_OK


def build_report(doc: GraphDocument, t: Trinity, crossing_cap: int, emit_pd: bool) -> tuple[dict, int]:
    m = t.map
    magic = magic_number_report(t)
    hyper_sets = {code: polytopes.hypertree_set(t, code) for code in HYPERGRAPH_CODES}
    poly_section = {}
    for code in HYPERGRAPH_CODES:
        poly_section[code] = {
            "gp": _polytope_listing(polytopes.gp_polytope_of(t, code)),
            "trimmed": _polytope_listing(polytopes.trimmed_gp_of(t, code)),
            "hypertree": _polytope_listing(polytopes.hypertree_polytope_of(t, code)),
        }
    rp = polytopes.root_polytope_of(t, COLOUR_SELECTORS[RED])
    triangulations = {}
    dd = directed_dual(t, "red")
    for root in dd.vertices:
        triangulations[str(root)] = {
            "trees": polytopes.arborescence_triangulation(t, "red", root),
            "f_vector": polytopes.f_vector(t, "red"),
            "h_vector": polytopes.h_vector(t, "red"),
        }
    support = floer.sfh_support(t)
    homfly_section, code = _homfly_section(t, crossing_cap, emit_pd)
    report = {
        "graph": {
            "violet": doc.violet,
            "emerald": doc.emerald,
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
            "support": support.points,
            "dim_sfh": support.size,
            "tight_contact_counts": {c: floer.tight_contact_count(t, c) for c in COLOURS},
            "genus": betti1(m),
            "suture_components": homfly_section["components"],
            # These two restate the paper's announced contact-invariant
            # result (joint work with Kalman); they compute nothing.
            "balanced": True,
            "invariant_is_generator": [True] * support.size,
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
    code = args.hypergraph  # one of HYPERGRAPH_CODES, which the parser enforces
    build = {
        "gp": polytopes.gp_polytope_of,
        "trimmed": polytopes.trimmed_gp_of,
        "hypertree": polytopes.hypertree_polytope_of,
        "root": polytopes.root_polytope_of,
    }[args.which]
    listing = _polytope_listing(build(t, code))
    _emit({"hypergraph": code, "which": args.which, "polytope": listing}, args.format)
    return EXIT_OK


def cmd_homfly(args) -> int:
    doc, t = _load_trinity(args.path, args.root_triangle)
    section, code = _homfly_section(t, args.crossing_cap, args.emit_pd)
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
        counts = {r: count_arborescences(dd, r) for r in dd.vertices}
        if len(set(counts.values())) != 1:
            failures.append(f"arborescence-root-dependence-{colour}")
        # Each root's trees are certified, and both sides' hypertrees checked
        # against the hypertree sets, where they are built: the Y side is the
        # hypertree set whose size is the magic number, so no count is compared.
        for root in dd.vertices:
            try:
                polytopes.arborescence_triangulation(t, colour, root)
            except InternalConsistencyError:
                failures.append(f"triangulation-{colour}-root-{root}")
    skipped: list[dict] = []
    try:
        if not links.verify_homfly_h_vector(t, crossing_cap=args.crossing_cap)["holds"]:
            failures.append("homfly-h-vector-identity")
    except links.CrossingCapExceeded:
        reason = f"{t.map.n_edges} edges over --crossing-cap {args.crossing_cap}"
        skipped.append({"check": "homfly-h-vector-identity", "reason": reason})
    result = {"checks_failed": failures, "ok": not failures, "magic_number": magic["magic_number"]}
    # Present only when a check was skipped: a complete run emits no such key.
    if skipped:
        result["checks_skipped"] = skipped
    _emit(result, args.format)
    return EXIT_OK if not failures else EXIT_CHECKS_FAILED


def _crossing_cap(text: str) -> int:
    """A ``--crossing-cap`` value: an integer, 0 or more. argparse reports
    any other value as a usage error, exit 2."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {cap}")
    return cap


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use (not at
    import); parsing does not change it."""
    parser = argparse.ArgumentParser(prog="trinities", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, crossing_cap: bool = True):
        p.add_argument("path", help="graph document (JSON)")
        p.add_argument("--root-triangle", type=int, default=None, help="white triangle id overriding the default root")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if crossing_cap:  # only the commands that run the skein read it
            p.add_argument("--crossing-cap", type=_crossing_cap, default=links.CROSSING_CAP)

    p = sub.add_parser("report", help="full report: every route to the magic number")
    common(p)
    p.add_argument("--emit-pd", action="store_true")

    p = sub.add_parser("polytope", help="vertex and lattice listings of one polytope")
    common(p, crossing_cap=False)
    p.add_argument("--hypergraph", required=True, choices=HYPERGRAPH_CODES)
    p.add_argument("--which", required=True, choices=("gp", "trimmed", "hypertree", "root"))

    p = sub.add_parser("homfly", help="link polynomial of the median diagram")
    common(p)
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
    except (DocumentError, MapError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
