"""Tests of the benchmark itself, on cheap inputs only (g1 and the grid rungs
up to 3x3). Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from trinities import cli, documents, trinity  # noqa: E402

G1 = ROOT / "src" / "trinities" / "fixtures" / "g1.json"
CHEAP_RUNGS = [rung for rung in workloads.LADDER if rung[0] * rung[1] <= 9]


def magic_of(text: str) -> int:
    doc = documents.parse_graph_document(text)
    assert documents.serialize_graph_document(doc) == text
    m, bip, outer = documents.document_to_map(doc)
    report = trinity.magic_number_report(trinity.build_trinity(m, bip, outer_face=outer))
    assert report["all_equal"]
    return report["magic_number"]


@pytest.mark.parametrize("r,c,magic", CHEAP_RUNGS)
def test_grid_documents_parse_and_relabel_keeps_magic(r, c, magic):
    text = gen.grid_document(r, c)
    assert magic_of(text) == magic
    for seed in range(3):
        assert magic_of(gen.relabel(text, random.Random(seed))) == magic


def test_small_documents_have_the_asked_shape_and_relabel_keeps_magic():
    rng = random.Random(7)
    for n_edges in workloads.CORPUS_SIZES:
        for n_cycles in range(n_edges):
            text = gen.small_document(rng, n_edges, n_cycles)
            raw = json.loads(text)
            assert len(raw["edges"]) == n_edges
            assert len(raw["violet"]) + len(raw["emerald"]) == n_edges + 1 - n_cycles
            assert magic_of(gen.relabel(text, rng)) == magic_of(text)


def test_fixture_relabel_keeps_magic():
    text = G1.read_text(encoding="utf-8")
    assert magic_of(gen.relabel(text, random.Random(1))) == magic_of(text) == 2


def test_inputs_depend_only_on_seed():
    for workload in ("fixtures", "grid-ladder", "small-corpus"):
        a = workloads.make_inputs(workload, 3, ROOT)
        assert a == workloads.make_inputs(workload, 3, ROOT)
        assert a != workloads.make_inputs(workload, 4, ROOT)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["single_edge", "g1"])
def test_cli_output_passes_the_fixture_checks(name, seed, tmp_path):
    (doc,) = [d for d in workloads.make_inputs("fixtures", seed, ROOT) if d["name"] == name]
    path = tmp_path / f"{name}.json"
    path.write_text(doc["text"], encoding="utf-8")
    for command in ("report", "verify"):
        out = run_cli([command, str(path)]).encode()
        assert workloads.check_fixture(name, command, seed, out, 0) == []


def test_golden_check_accepts_golden_bytes_and_rejects_others():
    out, code = workloads.golden("g1", "report")
    assert workloads.check_fixture("g1", "report", 0, out, code) == []
    assert workloads.check_fixture("g1", "report", 0, out.replace(b"5", b"6", 1), code)
    assert workloads.check_fixture("g1", "report", 0, out, code + 1)
    assert workloads.check_fixture("g1", "report", 1, out, code) == []


@pytest.mark.parametrize("r,c,magic", CHEAP_RUNGS)
def test_grid_rung_checks_pass(r, c, magic):
    rng = random.Random(r * 10 + c)
    _, _, problems = worker.grid_rung({"text": gen.relabel(gen.grid_document(r, c), rng), "magic": magic})
    assert problems == []


def test_grid_rung_check_catches_a_wrong_magic_number():
    _, _, problems = worker.grid_rung({"text": gen.grid_document(2, 3), "magic": 5})
    assert problems


def run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def traced_counts(argv: list[str]) -> dict:
    with tracer.Tracer() as tr:
        run_cli(argv)
    snap = tr.snapshot()
    return {k: snap[k] for k in ("calls", "items", "crossings", "absent")}


def original_functions() -> dict:
    out = {}
    for layer, names in tracer.LAYERS.items():
        mod = sys.modules[f"trinities.{layer}"]
        for name in names:
            fn = getattr(mod, name)
            out.setdefault(fn.__code__, f"{layer}.{name}")
    return out


@pytest.mark.parametrize("command", ["report", "verify"])
def test_tracer_counts_match_cprofile(command):
    argv = [command, str(G1)]
    profile = cProfile.Profile()
    profile.enable()
    run_cli(argv)
    profile.disable()
    stats = pstats.Stats(profile).stats
    expected = {}
    for code, key in original_functions().items():
        hit = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if hit:
            expected[key] = hit[1]  # total calls, recursive ones included
    assert traced_counts(argv)["calls"] == expected


def test_two_traced_runs_count_the_same():
    argv = ["report", str(G1)]
    first = traced_counts(argv)
    assert first["calls"]["linalg.lp_solve"] > 0
    assert first == traced_counts(argv)


def test_tracer_wraps_copied_bindings_and_restores_originals():
    modules = [sys.modules[f"trinities.{layer}"] for layer in tracer.LAYERS]
    before = [(mod, dict(vars(mod))) for mod in modules]
    with tracer.Tracer():
        for mod, attr in (("geometry", "lp_solve"), ("polytopes", "lattice_points"),
                          ("trees", "colour_graph"), ("cli", "directed_dual")):
            wrapper = getattr(sys.modules[f"trinities.{mod}"], attr)
            assert wrapper.__wrapped__ is dict(before)[sys.modules[f"trinities.{mod}"]][attr]
        run_cli(["verify", str(G1)])
    for mod, attrs in before:
        after = vars(mod)
        assert all(after[k] is v for k, v in attrs.items())


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "linalg", tracer.LAYERS["linalg"] + ("no_such_function",))
    with tracer.Tracer() as tr:
        run_cli(["verify", str(G1)])
    assert tr.absent == ["linalg.no_such_function"]
    assert tracer.metric_value(tr.snapshot(), "linalg.no_such_function.calls") == 0


def test_every_listed_per_layer_metric_is_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    snap = tracer.merge([])
    for m in spec["per_layer"]:
        if not m["name"].startswith("tracer."):
            assert tracer.metric_value(snap, m["name"]) is not None, m["name"]


def test_benchmark_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
