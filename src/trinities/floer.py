"""Combinatorial shadows of the sutured-manifold invariants of a plane
bipartite graph: support lattice sets, their dimension, and tight-contact
counts. No holomorphic-curve machinery lives here — only the lattice sets the
topological theorems identify these invariants with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import canonical_lattice_set
from .links import component_count, median_diagram_of
from .maps import betti1
from .trinity import COLOUR_CLASSES, InternalConsistencyError, Trinity
from . import trees

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class SupportSet:
    """A lattice set normalized to coordinate-wise minimum zero."""

    points: tuple[IntVec, ...]
    ambient: str  # coordinate class tag, e.g. "R"

    @property
    def size(self) -> int:
        return len(self.points)


def canonical_translate(points: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    pts = canonical_lattice_set(points)
    if not pts:
        return ()
    dim = len(pts[0])
    lo = [min(p[i] for p in pts) for i in range(dim)]
    return canonical_lattice_set(tuple(p[i] - lo[i] for i in range(dim)) for p in pts)


def negate(points: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    return canonical_lattice_set(tuple(-x for x in p) for p in points)


def sfh_support(t: Trinity) -> SupportSet:
    """Support of the sutured invariant, as the canonical translate of the
    hypertree set over the red class; cross-checked against the reflected
    violet-side route."""
    via_er = canonical_translate(trees.hypertree_set(t, "ER"))
    via_vr = canonical_translate(negate(trees.hypertree_set(t, "VR")))
    if via_er != via_vr:
        raise InternalConsistencyError("the two support routes disagree")
    return SupportSet(points=via_er, ambient="R")


def tight_contact_count(t: Trinity, colour: str) -> int:
    """Number of tight classes: the hypertree count of the colour graph, which
    must agree between the hypergraph and its abstract dual."""
    x, y = COLOUR_CLASSES[colour]
    tag = {"violet": "V", "emerald": "E", "red": "R"}
    code = tag[x] + tag[y]
    n1 = len(trees.hypertree_set(t, code))
    n2 = len(trees.hypertree_set(t, code[::-1]))
    if n1 != n2:
        raise InternalConsistencyError("hypertree counts of dual hypergraphs differ")
    return n1


@dataclass(frozen=True)
class SuturedSummary:
    genus: int
    suture_components: int
    balanced: bool
    dim_sfh: int
    support: SupportSet
    invariant_is_generator: tuple[bool, ...]


def sutured_summary(t: Trinity) -> SuturedSummary:
    d = median_diagram_of(t)
    support = sfh_support(t)
    return SuturedSummary(
        genus=betti1(t.map),
        suture_components=component_count(d),
        balanced=True,
        dim_sfh=support.size,
        support=support,
        invariant_is_generator=tuple(True for _ in support.points),
    )
