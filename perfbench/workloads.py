"""Workload inputs and per-operation correctness checks.

The three workloads stress different layers (see README.md):

- ``fixtures``: the shipped documents through ``trinities report`` and
  ``trinities verify``, one fresh process each; dominated by the LP-based
  geometry.
- ``grid-ladder``: plane grid graphs through the combinatorial routes only
  (trees, trinity, floer, links); no geometry.
- ``small-corpus``: many tiny random documents through ``cli.main report``
  in process; many tiny LPs, so per-call fixed cost dominates.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import gen

FIXTURES = ("single_edge", "g1", "fig7")

# (rows, columns, magic number) of each rung, cheapest first.
LADDER = ((2, 3, 4), (2, 4, 8), (3, 3, 15), (2, 5, 16), (3, 4, 56), (3, 5, 209))

# Documents per edge count 1..8 in the small corpus: 8 * 13 = 104, so the
# p90 of per-document latency has ten samples beyond it. Within an edge
# count the j-th document has j mod (edges) independent cycles. The graphs
# are the same on every seed, which only relabels them: their topology sets
# their cost, and with a new draw of 104 graphs per seed the corpus's total
# cost moved by 30% between seeds.
CORPUS_PER_SIZE = 13
CORPUS_SIZES = range(1, 9)

GOLDEN = Path(__file__).resolve().parent / "golden"


def make_inputs(workload: str, seed: int, root: Path) -> list[dict]:
    """The workload's documents for ``seed``: a list of {name, text, ...}."""
    if workload == "fixtures":
        docs = []
        for i, name in enumerate(FIXTURES):
            text = (root / "src" / "trinities" / "fixtures" / f"{name}.json").read_text(encoding="utf-8")
            if seed:
                text = gen.relabel(text, random.Random(f"fixtures:{seed}:{i}"))
            docs.append({"name": name, "text": text})
        return docs
    if workload == "grid-ladder":
        docs = []
        for i, (r, c, magic) in enumerate(LADDER):
            text = gen.grid_document(r, c)
            if seed:
                # Edge ids keep their order: the skein and the spanning-tree
                # enumeration work edge by edge, and on 3x5 an edge-id
                # shuffle alone moves the skein between 39k and 104k nodes.
                text = gen.relabel(text, random.Random(f"grid:{seed}:{i}"), permute_edges=False)
            docs.append({"name": f"grid{r}x{c}", "text": text, "magic": magic})
        return docs
    if workload == "small-corpus":
        rng = random.Random("corpus")
        docs = []
        for k in CORPUS_SIZES:
            for j in range(CORPUS_PER_SIZE):
                text = gen.small_document(rng, k, j % k)
                if seed:
                    text = gen.relabel(text, random.Random(f"corpus:{seed}:{len(docs)}"))
                docs.append({"name": f"small{k}-{j}", "text": text})
        return docs
    raise ValueError(f"unknown workload {workload!r}")


def golden(name: str, command: str) -> tuple[bytes, int]:
    """Seed-0 stdout bytes and exit code of ``trinities <command>`` on a fixture."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    return (GOLDEN / f"{name}.{command}.out").read_bytes(), codes[f"{name}.{command}"]


def report_problems(report: dict, magic: int | None = None) -> list[str]:
    """Invariants every ``report`` must satisfy; ``magic`` pins the expected
    magic number when it is known."""
    problems = []
    m = report["magic"]["magic_number"]
    if not report["magic"]["all_equal"]:
        problems.append("magic routes disagree")
    if magic is not None and m != magic:
        problems.append(f"magic number {m} != {magic}")
    if not report["duality"]["all_hold"]:
        problems.append("duality suite fails")
    if not report["homfly"].get("identity_top_equals_scaled_h"):
        problems.append("homfly identity fails")
    floer = report["floer"]
    if floer["dim_sfh"] != m or any(c != m for c in floer["tight_contact_counts"].values()):
        problems.append("floer counts differ from the magic number")
    if any(len(s) != m for s in report["hypertree_sets"].values()):
        problems.append("hypertree set sizes differ from the magic number")
    if any(len(tr["trees"]) != m for tr in report["triangulations_red"].values()):
        problems.append("triangulation sizes differ from the magic number")
    return problems


# Report sections that depend on neither labels nor the root triangle.
INVARIANT_SECTIONS = {
    "magic": ("det", "tutte_matchings", "arborescences", "hypertree_counts", "magic_number"),
    "graph": ("n_edges", "n_faces", "first_betti_number"),
    "homfly": ("crossings", "components", "alexander_leading_coefficient"),
    "floer": ("dim_sfh", "tight_contact_counts", "genus", "suture_components"),
}


def check_fixture(name: str, command: str, seed: int, stdout: bytes, code: int) -> list[str]:
    """Seed 0: byte-for-byte against the golden output. Other seeds: verify
    still matches the seed-0 bytes; report passes the invariant checks."""
    want_out, want_code = golden(name, command)
    if code != want_code:
        return [f"exit code {code} != {want_code}"]
    if seed == 0 or command == "verify":
        return [] if stdout == want_out else ["stdout differs from the golden bytes"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    want = json.loads(want_out)
    problems = report_problems(report, want["magic"]["magic_number"])
    for section, keys in INVARIANT_SECTIONS.items():
        if any(report[section].get(k) != want[section][k] for k in keys):
            problems.append(f"{section} differs from the seed-0 report")
    return problems
