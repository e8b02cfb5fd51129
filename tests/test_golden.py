"""``report`` and ``verify`` of the three fixtures, run in process, print
exactly the bytes and return exactly the exit codes recorded in
``perfbench/golden/``, the regression oracle of every refactor. The golden
files are only read here. The plane grids 2x3, 3x3 and 3x4 are pinned the
same way, by the sha256 of their stdout under ``--crossing-cap 40``, and
``--format text`` of ``report``, ``verify`` and ``homfly --emit-pd`` by the
sha256 of its stdout on the three fixtures and on the 3x4 grid."""

import hashlib
import json
from pathlib import Path

import pytest

from trinities.cli import main

from helpers import document_text, fixture_path, grid_trinity

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("name", ["single_edge", "g1", "fig7"])
def test_fixture_output_is_the_golden_bytes(capsys, name, command):
    path = fixture_path(f"{name}.json")
    code = main([command, path])
    out = capsys.readouterr().out
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[f"{name}.{command}"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command}.out").read_bytes()


# (rows, columns, command) -> sha256 of stdout; every run exits 0.
GRID_OUTPUTS = {
    (2, 3, "report"): "c0ff39b483ae0eb8c862e1fbf1126bec6b08ff68400095f5f596cb1f1662ccbf",
    (2, 3, "verify"): "229a3e5245be986c735fd9115129ec69ee2549b798219211f9da42db6c43ec22",
    (3, 3, "report"): "7fac14e3a8c36dfccd43c7940af2e183c2a8bc535a79947eee7a41843845cf3f",
    (3, 3, "verify"): "4ee71bb9813a8ea6c9352bc3ab2e0ac973592e2738f94167126d6e5ec301eb5e",
    (3, 4, "report"): "308b958b15f9b3b66de0ddede9e02ca94ea3c9ebaf5a528b2c4964cbfa2da3f3",
    (3, 4, "verify"): "35e65b7b6fd20925f50ac6f066c4c6cc5c06e0ad5506b895cf602d41987cf0ee",
}


@pytest.mark.parametrize("rows, columns, command", list(GRID_OUTPUTS))
def test_grid_output_is_pinned(tmp_path, capsys, rows, columns, command):
    path = tmp_path / f"grid{rows}x{columns}.json"
    path.write_text(document_text(grid_trinity(rows, columns)), encoding="utf-8")
    assert main([command, "--crossing-cap", "40", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GRID_OUTPUTS[rows, columns, command]


# (document, command) -> sha256 of stdout under ``--format text``; every run
# exits 0. The grid runs under ``--crossing-cap 40``.
TEXT_OUTPUTS = {
    ("single_edge", "report"): "8909435886751de2a85508db1f0a6daeae6b99fc07869be1007e0eca3ca615e0",
    ("single_edge", "verify"): "123c2ef2eca6c678db0d3501df1c45e41111927d74282221186cb65bcf2a8415",
    ("single_edge", "homfly"): "146d6924a7cb8749b5ab4aa7369c7ff884a30b9f9f34ef4f34a50582f91d65d7",
    ("g1", "report"): "8a99eb9acdab407b0110c62320b2fa5b95f313d80e438ff22d01c01f795ad241",
    ("g1", "verify"): "5471eba8911dba846b19b260384885c0bd642d13835e9e8068a5aca9c792480d",
    ("g1", "homfly"): "d9f0a87298601181c5b79a46798ac08f2b489d64920d2f156c00af450169565e",
    ("fig7", "report"): "f7f5486e56ec537d2afed803a244a6748c35414879693e5c21f51e29b4895b17",
    ("fig7", "verify"): "e2b8e910c962f2495e4866fcb5af72ee3360233466e2112d8d90afda68519096",
    ("fig7", "homfly"): "f86ea32b2279dd26f71ac394f8865baac3046e4c44f6cfa6229fa8d9648a4404",
    ("grid3x4", "report"): "2d273c400013967aa49c388e82040b65a0211782910370c0d89df58a9a7f5793",
    ("grid3x4", "verify"): "dd9db1708240b38d4d599b6d9f10965dbca067e0fa5e42327e3638baa2c42bd4",
    ("grid3x4", "homfly"): "88976ba5d46134e51f67f72337930fd944ae2f1eae5f6c20355b4dd6deeb7c49",
}


@pytest.mark.parametrize("name, command", list(TEXT_OUTPUTS))
def test_text_output_is_pinned(tmp_path, capsys, name, command):
    if name == "grid3x4":
        path = tmp_path / "grid3x4.json"
        path.write_text(document_text(grid_trinity(3, 4)), encoding="utf-8")
        argv = [command, str(path), "--crossing-cap", "40"]
    else:
        argv = [command, fixture_path(f"{name}.json")]
    if command == "homfly":
        argv.append("--emit-pd")
    assert main([*argv, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_OUTPUTS[name, command]
