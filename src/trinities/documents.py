"""JSON documents: the graph input format and the report output format.

A GraphDocument names its violet and emerald vertices, lists edges as
(violet name, emerald name) pairs, gives each vertex's counter-clockwise
rotation as a cyclic list of incident edge indices, and designates the
unbounded region: `outer_face_hint` names an edge and one of its ends, and the
unbounded face is the one to the left of that edge when walking away from the
named end. Serialization is canonical — parse followed by serialize is the
identity on bytes.

Every JSON text the library writes, documents and reports alike, comes from
one writer, `write_json`: the bytes of `json.dumps(obj, indent=2,
sort_keys=True, default=links.format_poly)` and a newline, in pieces.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from .maps import Bipartition, PlanarMap, build_map

FORMAT_VERSION = 1


class DocumentError(ValueError):
    pass


@dataclass(frozen=True)
class GraphDocument:
    violet: tuple[str, ...]
    emerald: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    rotations: dict[str, tuple[int, ...]]
    outer_face_hint: tuple[int, str]  # (edge index, "violet" | "emerald")

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return self.violet + self.emerald


_KEYS = {"format_version", "violet", "emerald", "edges", "rotations", "outer_face_hint"}
_HINT_KEYS = {"edge", "side"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _str_list(x, what: str) -> tuple[str, ...]:
    if not isinstance(x, list) or not all(isinstance(v, str) for v in x):
        raise DocumentError(f"{what} must be a list of strings")
    return tuple(x)


def _object(pairs: list[tuple[str, object]]) -> dict:
    keys = [k for k, _v in pairs]
    if len(set(keys)) != len(keys):
        raise DocumentError(f"duplicate keys in a JSON object: {sorted(keys)}")
    return dict(pairs)


def _keys(raw: dict, allowed: set[str], what: str) -> None:
    if set(raw) != allowed:
        missing, unknown = sorted(allowed - set(raw)), sorted(set(raw) - allowed)
        raise DocumentError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def parse_graph_document(text: str) -> GraphDocument:
    """Parse and validate a document; every value must have exactly its
    canonical JSON type (nothing is coerced) and no key may be unknown."""
    try:
        raw = json.loads(text, object_pairs_hook=_object)
    except DocumentError:
        raise
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    version = raw.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}")
    _keys(raw, _KEYS, "document")
    violet = _str_list(raw["violet"], "violet")
    emerald = _str_list(raw["emerald"], "emerald")
    if not isinstance(raw["edges"], list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e) for e in raw["edges"]
    ):
        raise DocumentError("edges must be a list of [violet, emerald] name pairs")
    edges = tuple((u, v) for u, v in raw["edges"])
    if not isinstance(raw["rotations"], dict) or not all(
        isinstance(v, list) and all(_is_int(e) for e in v) for v in raw["rotations"].values()
    ):
        raise DocumentError("rotations must map each vertex name to a list of edge indices")
    rotations = {k: tuple(v) for k, v in raw["rotations"].items()}
    hint = raw["outer_face_hint"]
    if not isinstance(hint, dict):
        raise DocumentError("outer_face_hint must be an object")
    _keys(hint, _HINT_KEYS, "outer_face_hint")
    if not _is_int(hint["edge"]) or not isinstance(hint["side"], str):
        raise DocumentError("outer_face_hint must name an edge index and a side")
    outer = (hint["edge"], hint["side"])
    names = violet + emerald
    if len(set(names)) != len(names):
        raise DocumentError("vertex names must be unique")
    vset, eset = set(violet), set(emerald)
    for u, v in edges:
        if u not in vset or v not in eset:
            raise DocumentError(f"edge ({u!r}, {v!r}) must join a violet vertex to an emerald one")
    if set(rotations) != set(names):
        raise DocumentError("rotations must list every vertex exactly once")
    for name, cyc in rotations.items():
        incident = sorted(
            e for e, (u, v) in enumerate(edges) if u == name or v == name
        )
        # loops cannot occur (edges join the two classes), so simple counts suffice
        if sorted(cyc) != incident:
            raise DocumentError(f"rotation of {name!r} does not list its incident edges exactly once")
    if not (0 <= outer[0] < len(edges)) or outer[1] not in ("violet", "emerald"):
        raise DocumentError("outer_face_hint must name an edge index and a side")
    return GraphDocument(
        violet=violet, emerald=emerald, edges=edges, rotations=rotations, outer_face_hint=outer
    )


def serialize_graph_document(doc: GraphDocument) -> str:
    raw = {
        "format_version": FORMAT_VERSION,
        "violet": list(doc.violet),
        "emerald": list(doc.emerald),
        "edges": [list(e) for e in doc.edges],
        "rotations": {k: list(v) for k, v in sorted(doc.rotations.items())},
        "outer_face_hint": {"edge": doc.outer_face_hint[0], "side": doc.outer_face_hint[1]},
    }
    chunks: list[str] = []
    _write_json(raw, chunks.append)
    return "".join(chunks)


def document_to_map(doc: GraphDocument) -> tuple[PlanarMap, Bipartition, int]:
    """Build the embedded map; returns (map, bipartition, outer face id)."""
    names = doc.vertex_names
    index = {n: i for i, n in enumerate(names)}
    edges = tuple((index[u], index[v]) for u, v in doc.edges)
    rotations = [doc.rotations[n] for n in names]
    m = build_map(len(names), edges, rotations)
    e, side = doc.outer_face_hint
    # The half-edge based at the named end; the unbounded region is on its left.
    dart = 2 * e if side == "violet" else 2 * e + 1
    outer = m.face_of[dart]
    bip = Bipartition(
        class_a=frozenset(range(len(doc.violet))),
        class_b=frozenset(range(len(doc.violet), len(names))),
    )
    return m, bip, outer


def format_point(p: Sequence[int]) -> list[str]:
    return [str(x) for x in p]


# ---------------------------------------------------------------------------
# The one JSON writer.


def write_json(obj) -> None:
    """Write the canonical JSON text of obj to ``sys.stdout``, read at each
    call, one chunk at a time, so no whole-document string is built."""
    _write_json(obj, sys.stdout.write)


def _write_json(obj, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text of ``json.dumps(obj, indent=2, sort_keys=True,
    default=links.format_poly)`` and a newline in chunks: one per entry of
    every dict at depth at most 2 (the top level is depth 0), where an entry
    whose value is such a dict writes its key, then that dict's entries, then
    its closing brace; every other value is encoded whole into the chunk of
    its entry.

    Dicts are walked in sorted key order, and a key that is not a ``str``
    raises ``TypeError``; lists and tuples are arrays. Strings go through the
    C ``encode_basestring_ascii``, ints through ``int.__repr__``, ``True``,
    ``False`` and ``None`` are literals, and a ``LaurentPoly2`` is the string
    ``format_poly`` gives; anything else raises ``TypeError``."""
    _write_entries(obj, "\n", 2, write)
    write("\n")


def _write_entries(obj, pad: str, levels: int, write) -> None:
    """Write obj, a nonempty dict one chunk per entry, and its dict values the
    same way for ``levels`` more levels."""
    if not (isinstance(obj, dict) and obj):
        write(_encoded(obj, pad))
        return
    inner = pad + "  "
    opening = "{" + inner
    for key in sorted(obj):
        value = obj[key]
        head = opening + encode_basestring_ascii(key) + ": "
        opening = "," + inner
        if levels and isinstance(value, dict) and value:
            write(head)
            _write_entries(value, inner, levels - 1, write)
        else:
            write(head + _encoded(value, inner))
    write(pad + "}")


def _encoded(obj, pad: str) -> str:
    """obj as JSON whose lines after the first start with ``pad`` (a newline
    and the current indent)."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is list or kind is tuple:
        return _json_array(obj, pad)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is dict:
        return _json_object(obj, pad)
    # A subclass is written as its base type, as json.dumps writes it.
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        return _json_array(obj, pad)
    if isinstance(obj, dict):
        return _json_object(obj, pad)
    # Only reports hold link polynomials: reading and writing a graph
    # document loads no library module beyond ``maps``.
    from .links import LaurentPoly2, format_poly

    if isinstance(obj, LaurentPoly2):
        return encode_basestring_ascii(format_poly(obj))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_array(items: list | tuple, pad: str) -> str:
    """A list of ints or of strings is one join; a list of equal-length
    nonempty tuples of ints (no ``bool``) is one ``%d`` template applied per
    tuple; any other list is encoded item by item."""
    if not items:
        return "[]"
    inner = pad + "  "
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is int:
        parts = map(int.__repr__, items)
    elif kind is str:
        parts = map(encode_basestring_ascii, items)
    elif kind is tuple and (width := _int_width(items)):
        deeper = inner + "  "
        template = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
        parts = map(template.__mod__, items)
    else:
        parts = [_encoded(item, inner) for item in items]
    return "[" + inner + ("," + inner).join(parts) + pad + "]"


def _int_width(rows: list | tuple) -> int:
    """The common length of rows that hold only ints, or 0 when their
    lengths differ or they hold anything else."""
    widths = set(map(len, rows))
    if len(widths) == 1 and set(map(type, chain.from_iterable(rows))) == {int}:
        return widths.pop()
    return 0


def _json_object(obj: dict, pad: str) -> str:
    if not obj:
        return "{}"
    inner = pad + "  "
    entries = [encode_basestring_ascii(k) + ": " + _encoded(obj[k], inner) for k in sorted(obj)]
    return "{" + inner + ("," + inner).join(entries) + pad + "}"
