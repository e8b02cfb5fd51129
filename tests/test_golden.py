"""``report`` and ``verify`` of the three fixtures, run in process, print
exactly the bytes and return exactly the exit codes recorded in
``perfbench/golden/``, the regression oracle of every refactor. The golden
files are only read here."""

import json
from importlib import resources
from pathlib import Path

import pytest

from trinities.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("name", ["single_edge", "g1", "fig7"])
def test_fixture_output_is_the_golden_bytes(capsys, name, command):
    path = str(resources.files("trinities") / "fixtures" / f"{name}.json")
    code = main([command, path])
    out = capsys.readouterr().out
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[f"{name}.{command}"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{command}.out").read_bytes()
