"""The one JSON writer, ``documents.write_json``, writes exactly the text of
``json.dumps(obj, indent=2, sort_keys=True, default=links.format_poly)`` and a
newline: on every output of ``report``, ``verify``, ``polytope`` and
``homfly --emit-pd`` over the fixtures, the plane grids and the seeded
corpus, and on hand-made values that reach each of its branches. A subclass
of a JSON type raises ``TypeError`` like any other unsupported type. The CLI
writes ``sys.stdout`` in chunks, never the whole document in one write, and
the library never reaches CPython's pure-Python indent encoder."""

import enum
import json
from collections import Counter, OrderedDict, namedtuple

import pytest

from trinities import cli, documents, links
from trinities.cli import main
from trinities.links import LaurentPoly2
from trinities.trinity import HYPERGRAPH_CODES

from helpers import document_text, fixture_path, graphs, grid_trinity, grouped


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=links.format_poly) + "\n"


def written(obj) -> str:
    chunks = []
    documents.write_json(obj, chunks.append)
    return "".join(chunks)


# Each command with its flags; the path goes after the command name.
COMMANDS = (
    ["report", "--crossing-cap", "40"],
    ["verify", "--crossing-cap", "40"],
    ["homfly", "--emit-pd", "--crossing-cap", "40"],
    *(
        ["polytope", "--hypergraph", code, "--which", which]
        for code in HYPERGRAPH_CODES
        for which in ("gp", "trimmed", "hypertree", "root")
    ),
)


@pytest.mark.parametrize("cases", grouped("grids", "2x3", "2x4", "3x3", "2x5", "3x4", "3x5"))
def test_every_cli_output_is_the_text_json_dumps_gives(tmp_path, capsys, monkeypatch, cases):
    expected = []

    def write_json(obj, write):
        expected.append(dumped(obj))
        documents.write_json(obj, write)

    monkeypatch.setattr(cli, "write_json", write_json)
    path = tmp_path / "graph.json"
    for t in graphs(*cases):
        path.write_text(document_text(t), encoding="utf-8")
        for command, *flags in COMMANDS:
            main([command, str(path), *flags])
            assert capsys.readouterr().out == expected.pop(), command
            assert expected == []


def nestings(value):
    """The value at the top, and as an entry at depths 1 to 4, in dicts and
    in lists, so that it falls both inside a chunked dict and below one."""
    yield value
    for depth in range(1, 5):
        in_dicts, in_lists = value, value
        for level in range(depth):
            in_dicts = {f"k{level}": in_dicts, "z": 0}
            in_lists = [in_lists]
        yield in_dicts
        yield in_lists
        yield {"a": in_lists}


Point = namedtuple("Point", "x y")


class Word(str):
    pass


class Colour(str, enum.Enum):
    RED = "red"


class Count(enum.IntEnum):
    ONE = 1


VALUES = {
    "empty containers": [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], (), {}]],
    "strings": ['a "quoted" word', "back\\slash", "\x00\x07\n\t\r\x1f\x7f", "Kálmán ∂ €", "\ud800 lone", ""],
    "keys": {'"': 1, "\\": 2, "\n": 3, "é": 4, "\udfff": 5, "": 6},
    "bools among ints": [[1, True, 0], [False], (1, False), [(1, True), (0, 1)], [(True,), (False,)]],
    "literals": [True, False, None, [None, 0], (None,)],
    "tuples of unequal length": [(1, 2), (3,), (4, 5, 6)],
    "empty tuples": [(), ()],
    "a tuple mixing int and str": [(1, "a"), (2, "b")],
    "big and negative ints": [-1, 2**64, -(2**80), [(-3, 2**70), (0, -(2**65))], (-(2**63),)],
    "nested lists": [[[1]], [[2, 3], []], [[[4, 5]], [6]], [(1, 2), [3, 4]]],
    "lists of tuples of tuples": [((1, 2), (3, 4)), ((5, 6), (7, 8))],
    "polynomials": [LaurentPoly2(()), LaurentPoly2((((1, -1), -2), ((3, 1), 1))), {"p": LaurentPoly2(())}],
    "lists of strings": [["1", "-2"], ("x", 'y"')],
    "mixed": [1, "a", None, True, (2, 3), {"k": [4]}, LaurentPoly2(())],
    "a str subclass as a key": {Word("k"): 1},
}


@pytest.mark.parametrize("name", list(VALUES))
def test_hand_made_values_are_written_as_json_dumps_writes_them(name):
    for value in nestings(VALUES[name]):
        assert written(value) == dumped(value), value


@pytest.mark.parametrize("value", [{1: 2}, {"a": 1, 2: 3}, {None: 0}, {(1, 2): 3}, {True: 1}])
def test_a_key_that_is_not_a_string_raises_type_error(value):
    for nested in nestings(value):
        with pytest.raises(TypeError):
            written(nested)


# Values of subclasses of the JSON types: no command builds one, and each
# is refused.
SUBCLASSES = [
    Point(1, -2),
    [Point(3, 4), Point(5, 6)],
    [(1, 2), Point(3, 4)],
    Word('a"b'),
    [Word("x"), "y"],
    Colour.RED,
    Count.ONE,
    [Count.ONE, 2],
    OrderedDict(b=1, a=[2]),
    Counter(x=3),
]


@pytest.mark.parametrize("value", [object(), {1, 2}, frozenset(), b"bytes", 1.5, range(3), *SUBCLASSES])
def test_an_unsupported_type_raises_type_error(value):
    for nested in nestings(value):
        with pytest.raises(TypeError):
            written(nested)


class CountingStdout:
    """A stand-in for ``sys.stdout`` that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_a_grid_report_is_written_in_chunks(tmp_path, monkeypatch):
    path = tmp_path / "grid3x4.json"
    path.write_text(document_text(grid_trinity(3, 4)), encoding="utf-8")
    stdout = CountingStdout()
    monkeypatch.setattr("sys.stdout", stdout)
    assert main(["report", "--crossing-cap", "40", str(path)]) == cli.EXIT_OK
    text = "".join(stdout.writes)
    assert json.loads(text)["magic"]["magic_number"] == 56
    assert len(stdout.writes) > 1
    assert max(map(len, stdout.writes)) < len(text)


@pytest.mark.parametrize("command", ["report", "verify"])
def test_the_cli_never_reaches_the_pure_python_indent_encoder(monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("json.encoder._make_iterencode was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert main([command, fixture_path("fig7.json")]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)
