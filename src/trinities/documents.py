"""JSON documents: the graph input format and the report output format.

A GraphDocument names its violet and emerald vertices, lists edges as
(violet name, emerald name) pairs, gives each vertex's counter-clockwise
rotation as a cyclic list of incident edge indices, and designates the
unbounded region: `outer_face_hint` names an edge and one of its ends, and the
unbounded face is the one to the left of that edge when walking away from the
named end. Serialization is canonical — parse followed by serialize is the
identity on bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    except json.JSONDecodeError as exc:
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
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


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


def format_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_point(p: Sequence) -> list[str]:
    return [format_rational(x) for x in p]
