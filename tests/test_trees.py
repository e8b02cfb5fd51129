import random

import pytest

from trinities.maps import build_map
from trinities.polytopes import hypertree_set
from trinities.trinity import (
    COLOURS,
    EMERALD,
    RED,
    VIOLET,
    colour_of_hypergraph,
    count_arborescences,
    directed_dual,
    enumerate_arborescences,
)

from helpers import (
    G1_EDGES,
    dual_tree,
    g1_map,
    fig7_trinity,
    g1_trinity,
    grid_trinity,
    planar_dual,
    random_trinity,
    single_edge_trinity,
    tree_hypertrees,
    uncertified_trees,
)
from oracles import (
    arborescences_by_filter,
    enumerate_spanning_trees,
    hypertree_of,
    hypertree_set_of_graph,
    spanning_trees_of_map,
)


def test_g1_spanning_trees_in_lex_order():
    assert spanning_trees_of_map(g1_map()) == (
        (0, 1, 2, 3),
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
    )


def test_trivial_tree_counts():
    # A path has exactly one spanning tree; a 4-cycle has four.
    assert enumerate_spanning_trees(3, ((0, 1), (1, 2))) == ((0, 1),)
    cycle = ((0, 1), (1, 2), (2, 3), (3, 0))
    assert len(enumerate_spanning_trees(4, cycle)) == 4


def test_hypertree_vectors():
    side = (3, 4)  # the emerald class
    assert hypertree_of((0, 1, 2, 3), G1_EDGES, side) == (2, 0)
    assert hypertree_of((0, 1, 3, 4), G1_EDGES, side) == (1, 1)
    with pytest.raises(ValueError):
        # This tree misses vertex 4 entirely.
        hypertree_of((0, 1, 2), ((0, 3), (1, 3), (2, 3)), side)


def test_hypertree_coordinate_sums():
    # Degree-minus-one vectors over one side always sum to the same value.
    m = g1_map()
    for side in ((0, 1, 2), (3, 4)):
        vectors = hypertree_set_of_graph(m, side)
        sums = {sum(v) for v in vectors}
        assert sums == {m.n_vertices - 1 - len(side)}


def test_g1_hypertree_sets():
    t = g1_trinity()
    assert hypertree_set(t, "VE") == ((1, 1), (2, 0))
    assert hypertree_set(t, "VR") == ((1, 1), (2, 0))
    assert hypertree_set(t, "EV") == ((0, 0, 1), (0, 1, 0))
    assert hypertree_set(t, "RV") == ((0, 0, 1), (0, 1, 0))
    assert hypertree_set(t, "ER") == ((0, 1), (1, 0))
    assert hypertree_set(t, "RE") == ((0, 1), (1, 0))


def trinities_of(case):
    """The fixtures, the 2x3 to 4x4 grids, or a chunk of the seeded corpus
    of test_random_properties."""
    if case == "fixtures":
        return [single_edge_trinity(), g1_trinity(), fig7_trinity()]
    if case == "grids":
        return [grid_trinity(r, c) for r, c in ((2, 3), (3, 3), (3, 4), (4, 4))]
    rng = random.Random(9000 + case)
    return [random_trinity(rng) for _ in range(20)]


@pytest.mark.parametrize("case", ["fixtures", "grids", *range(10)])
def test_arborescence_count_matches_enumeration(case):
    # At every colour and root the walk lists what generating every choice
    # of in-edges and testing each finds, and the matrix-tree count is its
    # length.
    for t in trinities_of(case):
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            for root in dd.vertices:
                arbs = enumerate_arborescences(dd, root)
                assert arbs == arborescences_by_filter(dd, root), (colour, root)
                assert count_arborescences(dd, root) == len(arbs)
                for a in arbs:
                    assert len(a) == len(dd.vertices) - 1


def test_arborescence_count_is_root_independent():
    for t in (g1_trinity(), single_edge_trinity()):
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            counts = {count_arborescences(dd, root) for root in dd.vertices}
            assert len(counts) == 1


def test_dual_tree_complement():
    m = g1_map()
    dual = planar_dual(m)
    for tree in spanning_trees_of_map(m):
        co = dual_tree(m, tree)
        assert sorted(tree + co) == list(range(m.n_edges))
        # The complement really is a spanning tree of the dual map.
        assert co in spanning_trees_of_map(dual)


def test_arborescences_biject_with_hypertrees():
    t = g1_trinity()
    for colour, code in ((RED, "VE"), (VIOLET, "ER"), (EMERALD, "RV")):
        assert colour_of_hypergraph(code) == colour
        root = t.corner(t.root_triangle, colour)
        # Sorted with repeats kept, so equality is a bijection.
        assert tree_hypertrees(t, code, uncertified_trees(t, colour, root)) == hypertree_set(t, code)
        assert len(enumerate_arborescences(directed_dual(t, colour), root)) == len(hypertree_set(t, code))


def test_arborescence_to_spanning_tree_sizes():
    # One spanning tree of the colour graph per arborescence.
    t = g1_trinity()
    root = t.corner(t.root_triangle, RED)
    tree_sets = uncertified_trees(t, RED, root)
    assert len(tree_sets) == len(enumerate_arborescences(directed_dual(t, RED), root))
    for tree in tree_sets:
        assert tree in spanning_trees_of_map(t.map)


def test_loops_ignored_by_matrix_tree():
    t = single_edge_trinity()
    # The red dual of a single edge is a loop at the only face.
    dd = directed_dual(t, RED)
    assert dd.edges == ((0, 0),)
    assert count_arborescences(dd, 0) == 1
    assert enumerate_arborescences(dd, 0) == ((),)
