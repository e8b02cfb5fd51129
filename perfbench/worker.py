"""Child process of the benchmark: everything that runs the library.

    worker.py setup LIST            time import + parse + map + trinity of every document
    worker.py pass WORKLOAD LIST [TRACEFILE]
                                    one in-process pass of grid-ladder or small-corpus
    worker.py cli TRACEFILE ARGS... ``trinities ARGS`` under the tracer

LIST is a JSON file of {"name", "path", ...} records. ``setup`` and ``pass``
print one JSON object on their last stdout line; TRACEFILE receives the
tracer's snapshot. Library functions are
always called through their module attribute so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


# Work is timed by CPU rather than by the wall clock: on a shared machine
# the wall clock also counts other tenants' work. On the 2-core machine the
# baseline was measured on, five grid-ladder runs of the same work spread
# by 21% in wall time and 6% in CPU time. No worker mode starts a child
# process, so the process's own CPU time is all of it.
clock = time.process_time


def _load_list(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        docs = json.load(fh)
    for d in docs:
        with open(d["path"], encoding="utf-8") as fh:
            d["text"] = fh.read()
    return docs


def setup(list_path: str) -> dict:
    """Import every library module (the import a pass leaves out of its
    timing), then load every document into a trinity."""
    docs = _load_list(list_path)
    start = clock()
    import trinities.cli  # noqa: F401
    from trinities import documents, trinity

    for d in docs:
        doc = documents.parse_graph_document(d["text"])
        m, bip, outer = documents.document_to_map(doc)
        trinity.build_trinity(m, bip, outer_face=outer)
    return {"setup_s": clock() - start}


def grid_rung(d: dict) -> tuple[float, float, list[str]]:
    """All combinatorial routes on one rung: (report seconds, verify seconds,
    problems). The report part is load + magic routes + hypertree sets; the
    verify part is the support, tight-contact and link routes."""
    from trinities import documents, floer, links, maps, trees, trinity

    t0 = clock()
    doc = documents.parse_graph_document(d["text"])
    m, bip, outer = documents.document_to_map(doc)
    t = trinity.build_trinity(m, bip, outer_face=outer)
    magic = trinity.magic_number_report(t)
    sets = [trees.hypertree_set(t, code) for code in trinity.HYPERGRAPH_CODES]
    t1 = clock()
    support = floer.sfh_support(t)
    tight = [floer.tight_contact_count(t, c) for c in trinity.COLOURS]
    diagram = links.median_diagram(m, maps.Bipartition(t.violet, t.emerald), violet=t.violet)
    poly = links.homfly(diagram, crossing_cap=diagram.n_crossings)
    t2 = clock()

    want = d["magic"]
    problems = []
    if not magic["all_equal"] or magic["magic_number"] != want:
        problems.append(f"magic routes {magic} != {want}")
    if any(len(s) != want for s in sets):
        problems.append("hypertree set sizes")
    if support.size != want:
        problems.append(f"sfh support size {support.size}")
    if any(n != want for n in tight):
        problems.append(f"tight contact counts {tight}")
    ac = links.alexander_conway(poly)
    lead = sum(c for _k, c in ac.z_coefficient(max(ac.z_degrees())).coeffs) if not ac.is_zero() else 0
    if lead != want:
        problems.append(f"Alexander-Conway leading coefficient {lead}")
    return t1 - t0, t2 - t1, problems


def corpus_document(d: dict) -> tuple[float, float, list[str]]:
    """``cli.main`` ``report`` then ``verify`` on one document, stdout
    captured: (report seconds, verify seconds, problems)."""
    from trinities import cli
    from workloads import report_problems

    seconds, outputs = [], []
    for command in ("report", "verify"):
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, d["path"]])
        seconds.append(clock() - t0)
        if code != 0:
            return *seconds, [f"{command} exit code {code}"]
        try:
            outputs.append(json.loads(buf.getvalue()))
        except ValueError:
            return *seconds, [f"{command} stdout is not JSON"]
    report, verdict = outputs
    problems = report_problems(report)
    if not verdict["ok"] or verdict["magic_number"] != report["magic"]["magic_number"]:
        problems.append(f"verify says {verdict}")
    return seconds[0], seconds[1], problems


OPS = {"grid-ladder": grid_rung, "small-corpus": corpus_document}


def one_pass(op, docs: list[dict]) -> dict:
    report, verify, failed, problems = [], [], 0, []
    for d in docs:
        rep, ver, bad = op(d)
        report.append(rep)
        verify.append(ver)
        if bad:
            failed += 1
            problems.append(f"{d['name']}: {'; '.join(bad)}")
    return {
        "wall_s": sum(report) + sum(verify),
        "report_s": sum(report),
        "verify_s": sum(verify),
        "report_samples": report,
        "verify_samples": verify,
        "attempted": len(docs),
        "failed": failed,
        "problems": problems,
    }


def run_pass(workload: str, list_path: str, trace_path: str | None) -> dict:
    """One pass, traced when ``trace_path`` is given (the snapshot goes there)."""
    import trinities.cli  # noqa: F401  (loads every library module before timing)

    op = OPS[workload]
    docs = _load_list(list_path)
    if trace_path is None:
        return one_pass(op, docs)
    from tracer import Tracer

    with Tracer() as tr:
        record = one_pass(op, docs)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tr.snapshot(), fh)
    return record


def traced_cli(trace_path: str, argv: list[str]) -> int:
    from tracer import Tracer
    from trinities import cli

    with Tracer() as tr:
        code = cli.main(argv)
    sys.stdout.flush()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tr.snapshot(), fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        print(json.dumps(setup(argv[1])))
        return 0
    if mode == "pass":
        print(json.dumps(run_pass(argv[1], argv[2], argv[3] if len(argv) > 3 else None)))
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
