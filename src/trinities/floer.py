"""The sutured Floer support of a plane bipartite graph and its tight-contact
counts, read off the hypertree sets.

Juhasz, Kalman and Rasmussen (*Sutured Floer homology and hypergraphs*, 2012)
identify the support of the sutured Floer homology of the graph's sutured
manifold with its hypertree set, up to translation; the number of tight
contact classes is the hypertree count. This module restates those theorems
and checks nothing of its own: that the ER and VR sets are reflections of
each other is the ``VR|ER`` reflection of ``polytopes.verify_duality_suite``,
and that every hypertree count is the magic number is ``all_equal`` of
``trinity.magic_number_report``. No holomorphic-curve machinery lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import canonical_lattice_set
from .trinity import COLOUR_SELECTORS, Trinity
from . import trees

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class SupportSet:
    """A lattice set normalized to coordinate-wise minimum zero."""

    points: tuple[IntVec, ...]

    @property
    def size(self) -> int:
        return len(self.points)


def canonical_translate(points: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """The set moved to coordinate-wise minimum zero; a translate of a sorted set stays sorted."""
    pts = canonical_lattice_set(points)
    lo = [min(column) for column in zip(*pts)]
    return tuple(tuple(x - m for x, m in zip(p, lo)) for p in pts)


def sfh_support(t: Trinity) -> SupportSet:
    """Support of the sutured invariant: the canonical translate of the
    hypertree set over the red class."""
    return SupportSet(points=canonical_translate(trees.hypertree_set(t, "ER")))


def tight_contact_count(t: Trinity, colour: str) -> int:
    """Number of tight classes: the hypertree count of the colour graph."""
    return len(trees.hypertree_set(t, COLOUR_SELECTORS[colour]))
