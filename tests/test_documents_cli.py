import gc
import json
import random
import types
from importlib import resources

import pytest

from trinities.cli import (
    EXIT_CHECKS_FAILED,
    EXIT_CROSSING_CAP,
    EXIT_INVALID_INPUT,
    EXIT_OK,
    main,
)
from trinities.documents import (
    DocumentError,
    document_to_map,
    parse_graph_document,
    serialize_graph_document,
    format_point,
)
from trinities import trinity
from trinities.trinity import VIOLET, build_trinity, default_root, directed_dual, magic_number_report

from helpers import bipartition, document_text, grid_trinity, patch_everywhere


def fixture_path(name: str) -> str:
    return str(resources.files("trinities") / "fixtures" / name)


def fixture_text(name: str) -> str:
    return (resources.files("trinities") / "fixtures" / name).read_text()


@pytest.mark.parametrize("name", ["g1.json", "single_edge.json", "fig7.json"])
def test_fixture_round_trip_is_byte_identical(name):
    text = fixture_text(name)
    doc = parse_graph_document(text)
    assert serialize_graph_document(doc) == text


def test_g1_fixture_builds_the_worked_example():
    doc = parse_graph_document(fixture_text("g1.json"))
    m, bip, outer = document_to_map(doc)
    assert (m.n_vertices, m.n_edges) == (5, 5)
    t = build_trinity(m, bip, outer_face=outer)
    assert magic_number_report(t)["magic_number"] == 2


def test_fig7_fixture_magic_number():
    doc = parse_graph_document(fixture_text("fig7.json"))
    m, bip, outer = document_to_map(doc)
    t = build_trinity(m, bip, outer_face=outer)
    assert magic_number_report(t)["magic_number"] == 11


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("rotations"),
        lambda raw: raw.__setitem__("format_version", 99),
        lambda raw: raw["rotations"].__setitem__("v1", [0, 0]),
        lambda raw: raw["edges"].append(["v1", "v2"]),
        lambda raw: raw["outer_face_hint"].__setitem__("side", "red"),
    ],
)
def test_parse_rejects_malformed_documents(mutate):
    raw = json.loads(fixture_text("g1.json"))
    mutate(raw)
    with pytest.raises(DocumentError):
        parse_graph_document(json.dumps(raw))


def test_parse_rejects_non_json():
    with pytest.raises(DocumentError):
        parse_graph_document("not json")
    with pytest.raises(DocumentError):
        parse_graph_document("[1, 2]")


def test_format_rational_and_point():
    assert format_point((-3, 2, 0)) == ["-3", "2", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_verify_fixtures(capsys):
    for name in ("g1.json", "single_edge.json", "fig7.json"):
        code, out = run_cli(capsys, "verify", fixture_path(name))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] and payload["checks_failed"] == []
    code, out = run_cli(capsys, "verify", fixture_path("g1.json"))
    assert json.loads(out)["magic_number"] == 2


def test_cli_report_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "report", fixture_path("g1.json"))
    code2, out2 = run_cli(capsys, "report", fixture_path("g1.json"))
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["magic"]["magic_number"] == 2
    assert payload["homfly"]["homfly"] == "-v^5 z^-1 + v^3 z + v^3 z^-1 + v z"
    assert payload["homfly"]["top"] == "v^3 + v"
    assert payload["homfly"]["alexander_leading_coefficient"] == 2
    assert payload["duality"]["all_hold"] is True
    assert payload["floer"]["dim_sfh"] == 2


def test_cli_report_text_format(capsys):
    code, out = run_cli(capsys, "report", fixture_path("single_edge.json"), "--format", "text")
    assert code == EXIT_OK
    assert "magic_number: 1" in out


def test_cli_polytope_listing(capsys):
    code, out = run_cli(
        capsys, "polytope", fixture_path("g1.json"), "--hypergraph", "VE", "--which", "gp"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["polytope"]["lattice_points"] == [
        [0, 0, 2], [0, 1, 1], [0, 2, 0], [1, 0, 1], [1, 1, 0]
    ]
    code, out = run_cli(
        capsys, "polytope", fixture_path("g1.json"), "--hypergraph", "VE", "--which", "trimmed"
    )
    assert json.loads(out)["polytope"]["lattice_points"] == [[0, 0, 1], [0, 1, 0]]
    code, out = run_cli(
        capsys, "polytope", fixture_path("g1.json"), "--hypergraph", "VE", "--which", "root"
    )
    assert code == EXIT_OK
    payload = json.loads(out)["polytope"]
    assert payload["affine_dim"] == 3
    assert payload["lattice_points"] == [
        [0, 1, 0, -1, 0], [0, 1, 0, 0, -1], [1, 0, -1, 0, 0], [1, 0, 0, -1, 0], [1, 0, 0, 0, -1]
    ]  # e_y - e_x for the edges (e1, v1..v3) and (e2, v2..v3) of the worked example


def test_cli_homfly_with_pd(capsys):
    code, out = run_cli(capsys, "homfly", fixture_path("g1.json"), "--emit-pd")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["crossings"] == 5
    assert payload["pd_code"][0] == "X(1,3,0,0) +"
    assert payload["identity_top_equals_scaled_h"] is True


def test_cli_crossing_cap_exit_code(capsys):
    code, out = run_cli(capsys, "homfly", fixture_path("g1.json"), "--crossing-cap", "3")
    assert code == EXIT_CROSSING_CAP
    payload = json.loads(out)
    assert "error" in payload and "homfly" not in payload


def test_cli_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    raw = json.loads(fixture_text("g1.json"))
    raw["rotations"]["v1"] = [0, 1]
    bad.write_text(json.dumps(raw))
    assert main(["report", str(bad)]) == EXIT_INVALID_INPUT
    assert main(["report", str(tmp_path / "missing.json")]) == EXIT_INVALID_INPUT
    # JSON nested past the recursion limit, and an integer past Python's
    # digit limit, are invalid input too, not a traceback.
    too_deep = "[" * 100_000
    too_long = fixture_text("g1.json").replace('"format_version": 1', '"format_version": ' + "1" * 5_000)
    assert too_long != fixture_text("g1.json")
    for text in (too_deep, too_long):
        bad.write_text(text)
        for command in ("report", "verify"):
            capsys.readouterr()
            assert main([command, str(bad)]) == EXIT_INVALID_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid JSON: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["report", "verify"])
def test_cli_unreadable_input_exit_code(tmp_path, capsys, command):
    # Bytes that are not UTF-8, and a directory, are invalid input, not a
    # failed check.
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe\x00")
    for path in (undecodable, tmp_path):
        assert main([command, str(path)]) == EXIT_INVALID_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# One edge between violet "a" and emerald "b"; each mutation below used to be
# coerced into this same document and verified with exit 0.
SINGLE_EDGE_AB = {
    "format_version": 1,
    "violet": ["a"],
    "emerald": ["b"],
    "edges": [["a", "b"]],
    "rotations": {"a": [0], "b": [0]},
    "outer_face_hint": {"edge": 0, "side": "violet"},
}


def test_cli_verifies_the_uncoerced_document(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(SINGLE_EDGE_AB))
    assert main(["verify", str(doc)]) == EXIT_OK


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda raw: raw.__setitem__("violet", "a"), id="names-as-string"),
        pytest.param(lambda raw: raw.__setitem__("emerald", "b"), id="emerald-as-string"),
        pytest.param(lambda raw: raw.__setitem__("edges", ["ab"]), id="edge-as-string"),
        pytest.param(lambda raw: raw.__setitem__("rotations", {"a": "0", "b": [0]}), id="rotation-as-string"),
        pytest.param(lambda raw: raw["rotations"].__setitem__("a", [0.0]), id="rotation-index-as-float"),
        pytest.param(lambda raw: raw["rotations"].__setitem__("a", [False]), id="rotation-index-as-bool"),
        pytest.param(lambda raw: raw["outer_face_hint"].__setitem__("edge", False), id="hint-edge-as-bool"),
        pytest.param(lambda raw: raw["outer_face_hint"].__setitem__("edge", "0"), id="hint-edge-as-string"),
        pytest.param(lambda raw: raw.__setitem__("format_version", True), id="version-as-bool"),
        pytest.param(
            lambda raw: raw.update(violet=[1], edges=[[1, "b"]], rotations={"1": [0], "b": [0]}),
            id="name-as-number",
        ),
        pytest.param(lambda raw: raw.__setitem__("comment", "x"), id="unknown-top-level-key"),
        pytest.param(lambda raw: raw["outer_face_hint"].__setitem__("face", 0), id="unknown-hint-key"),
    ],
)
def test_cli_rejects_coercible_documents(tmp_path, capsys, mutate):
    raw = json.loads(json.dumps(SINGLE_EDGE_AB))
    mutate(raw)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(raw))
    assert main(["verify", str(doc)]) == EXIT_INVALID_INPUT
    assert capsys.readouterr().out == ""


def test_cli_rejects_duplicate_keys(tmp_path, capsys):
    text = json.dumps(SINGLE_EDGE_AB)
    doc = tmp_path / "doc.json"
    doc.write_text(text.replace('"violet": ["a"]', '"violet": ["b"], "violet": ["a"]'))
    assert main(["verify", str(doc)]) == EXIT_INVALID_INPUT


def test_cli_root_triangle_override(capsys):
    code, out = run_cli(capsys, "report", fixture_path("g1.json"), "--root-triangle", "6")
    assert code == EXIT_OK
    assert json.loads(out)["root_triangle"] == 6
    assert main(["report", fixture_path("g1.json"), "--root-triangle", "1"]) == EXIT_INVALID_INPUT


# Each entry is a command and flags it does not read.
@pytest.mark.parametrize(
    "flags",
    [
        ["verify", "--seed", "0"],
        ["verify", "--all"],
        ["polytope", "--crossing-cap", "5"],
        ["homfly", "--root-dual-vertex", "0"],
    ],
)
def test_removed_noop_flags_fail_argument_parsing(capsys, flags):
    command, *rest = flags
    if command == "polytope":
        rest += ["--hypergraph", "VE", "--which", "gp"]
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_path("g1.json"), *rest])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_verify_lists_the_skipped_link_identity(tmp_path, capsys):
    # The 3x4 grid has 17 edges, one over the default cap.
    doc = tmp_path / "grid.json"
    doc.write_text(document_text(grid_trinity(3, 4)))
    code, out = run_cli(capsys, "verify", str(doc))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] and payload["magic_number"] == 56
    assert payload["checks_skipped"] == [
        {"check": "homfly-h-vector-identity", "reason": "17 edges over --crossing-cap 16"}
    ]
    code, out = run_cli(capsys, "verify", str(doc), "--crossing-cap", "40")
    assert code == EXIT_OK
    assert json.loads(out) == {"checks_failed": [], "magic_number": 56, "ok": True}


def test_cli_verify_names_only_the_magic_routes_when_they_disagree(monkeypatch, capsys):
    # One route off by one: the certified trees still number the hypertree
    # set's size at every root, so no triangulation check fires.
    original = trinity.count_tutte_matchings
    patch_everywhere(monkeypatch, trinity, "count_tutte_matchings", lambda t: original(t) + 1)
    code, out = run_cli(capsys, "verify", fixture_path("fig7.json"))
    assert code == EXIT_CHECKS_FAILED
    assert json.loads(out)["checks_failed"] == ["magic-routes-disagree"]


def test_cli_verify_names_a_root_dependent_arborescence_count(monkeypatch, capsys):
    m, bip, outer = document_to_map(parse_graph_document(fixture_text("fig7.json")))
    t = build_trinity(m, bip, outer_face=outer)
    root = next(r for r in directed_dual(t, VIOLET).vertices if r != default_root(t, VIOLET))
    original = trinity.count_arborescences

    def patched(dd, r):
        return original(dd, r) + (dd.colour == VIOLET and r == root)

    patch_everywhere(monkeypatch, trinity, "count_arborescences", patched)
    code, out = run_cli(capsys, "verify", fixture_path("fig7.json"))
    assert code == EXIT_CHECKS_FAILED
    payload = json.loads(out)
    assert payload["checks_failed"] == ["arborescence-root-dependence-violet"]
    assert payload["magic_number"] == 11


# Seeded mutations of a raw fixture document, each in place. Those that edit
# edges keep the rotations listing them, so many mutants are still valid
# documents and reach the map and the trinity.
def drop_edge(raw, rng):
    k = rng.randrange(len(raw["edges"]))
    del raw["edges"][k]
    for name, cyc in raw["rotations"].items():
        raw["rotations"][name] = [e - (e > k) for e in cyc if e != k]


def duplicate_edge(raw, rng):
    k = rng.randrange(len(raw["edges"]))
    raw["edges"].append(list(raw["edges"][k]))
    for name in raw["edges"][k]:
        cyc = raw["rotations"][name]
        cyc.insert(rng.randrange(len(cyc) + 1), len(raw["edges"]) - 1)


def shuffle_rotation(raw, rng):
    rng.shuffle(raw["rotations"][rng.choice(sorted(raw["rotations"]))])


def corrupt_rotation(raw, rng):
    cyc = raw["rotations"][rng.choice(sorted(raw["rotations"]))]
    junk = rng.choice([-1, len(raw["edges"]), rng.randrange(len(raw["edges"]))])
    if cyc and rng.random() < 0.5:
        cyc[rng.randrange(len(cyc))] = junk
    else:
        cyc.append(junk)


def move_outer_face_hint(raw, rng):
    edge = rng.randrange(-1, len(raw["edges"]) + 1)
    raw["outer_face_hint"] = {"edge": edge, "side": rng.choice(["violet", "emerald", "red"])}


def add_isolated_vertex(raw, rng):
    raw[rng.choice(["violet", "emerald"])].append("isolated")
    raw["rotations"]["isolated"] = []


def repoint_edge(raw, rng):
    k = rng.randrange(len(raw["edges"]))
    end = rng.randrange(2)
    old, new = raw["edges"][k][end], rng.choice(raw["violet" if end == 0 else "emerald"])
    raw["edges"][k][end] = new
    raw["rotations"][old].remove(k)
    cyc = raw["rotations"][new]
    cyc.insert(rng.randrange(len(cyc) + 1), k)


def swap_rotations(raw, rng):
    a, b = rng.sample(sorted(raw["rotations"]), 2)
    raw["rotations"][a], raw["rotations"][b] = raw["rotations"][b], raw["rotations"][a]


def empty_class(raw, rng):
    raw[rng.choice(["violet", "emerald"])] = []


MUTATIONS = (
    drop_edge,
    duplicate_edge,
    shuffle_rotation,
    corrupt_rotation,
    move_outer_face_hint,
    add_isolated_vertex,
    repoint_edge,
    swap_rotations,
    empty_class,
)


@pytest.mark.parametrize("name", ["g1.json", "single_edge.json", "fig7.json"])
def test_cli_survives_mutated_fixtures(tmp_path, capsys, name):
    # Every mutant either runs or is rejected as invalid input, never with a
    # traceback; every accepted one round-trips through its canonical form.
    rng = random.Random(f"mutate:{name}")
    doc = tmp_path / "doc.json"
    cases = 6 * len(MUTATIONS)
    accepted = 0
    for case in range(cases):
        mutate = MUTATIONS[case % len(MUTATIONS)]
        raw = json.loads(fixture_text(name))
        mutate(raw, rng)
        text = json.dumps(raw)
        doc.write_text(text)
        rejected = set()
        for command in ("report", "verify"):
            code = main([command, str(doc)])
            out, err = capsys.readouterr()
            where = (case, mutate.__name__, command)
            assert code in (EXIT_OK, EXIT_CHECKS_FAILED, EXIT_INVALID_INPUT), (*where, err)
            assert "Traceback" not in err, where
            if code == EXIT_INVALID_INPUT:
                assert out == "" and err.startswith("error: "), where
            rejected.add(code == EXIT_INVALID_INPUT)
        assert len(rejected) == 1, (case, mutate.__name__)  # both commands accept, or both reject
        if rejected == {False}:
            accepted += 1
            parsed = parse_graph_document(text)
            assert parse_graph_document(serialize_graph_document(parsed)) == parsed, (case, mutate.__name__)
    assert 0 < accepted < cases


def test_a_second_verify_leaves_no_library_function_in_a_cycle(capsys):
    # The first run builds and caches the parser; what a later run leaves in
    # reference cycles only the cyclic collector frees, so no library
    # function may close one.
    assert main(["verify", fixture_path("g1.json")]) == EXIT_OK
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["verify", fixture_path("g1.json")]) == EXIT_OK
        gc.collect()
        cyclic = [
            f"{obj.__module__}.{obj.__qualname__}"
            for obj in gc.garbage
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith("trinities")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic == []
    assert '"ok": true' in capsys.readouterr().out
