"""``report`` and ``verify`` of the three fixtures, run in process, print
exactly the bytes and return exactly the exit codes recorded in
``perfbench/golden/``, the regression oracle of every refactor. The golden
files are only read here. The plane grids 2x3, 3x3 and 3x4 are pinned the
same way, by the sha256 of their stdout under ``--crossing-cap 40``."""

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
