"""Bindings, kept for the benchmark, of names that live in ``polytopes`` (the
hypertree sets) and ``trinity`` (the colour graphs, and the arborescence
count and enumeration beside the directed duals); the library imports none
of them from here."""

from .polytopes import hypertree_set  # noqa: F401
from .trinity import colour_graph, count_arborescences, enumerate_arborescences  # noqa: F401
