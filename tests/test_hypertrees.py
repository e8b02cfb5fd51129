"""The hypertree sets, which the library takes from Kalman's mu-lattice,
against two independent routes: the degree vectors of every spanning tree
(the oracle) and of the trees of each arborescence triangulation (Postnikov,
section 12: each hypertree exactly once). Then the triangulation's own
check against tree sets that drop, swap or repeat a simplex."""

import random
from importlib import resources

import pytest

from trinities import polytopes, trees
from trinities.cli import EXIT_CHECKS_FAILED, main
from trinities.geometry import simplex_normalized_volume
from trinities.polytopes import arborescence_triangulation, root_polytope_of, tree_simplex, triangulation_hypertrees
from trinities.trinity import (
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    colour_graph,
    colour_of_hypergraph,
    directed_dual,
    hypergraph_view,
)

from helpers import fig7_trinity, g1_trinity, grid_trinity, random_trinity, single_edge_trinity
from oracles import hypertree_set_of_graph, spanning_trees_of_map

FIXTURES = [single_edge_trinity, g1_trinity, fig7_trinity]


def corpus(chunk):
    # The same seeded corpus as test_random_properties.
    rng = random.Random(9000 + chunk)
    return [random_trinity(rng) for _ in range(20)]


def assert_mu_lattice_is_the_spanning_tree_route(t):
    for code in HYPERGRAPH_CODES:
        cm, _x_ids, y_ids = hypergraph_view(t, code)
        assert trees.hypertree_set(t, code) == hypertree_set_of_graph(cm, y_ids), code


@pytest.mark.parametrize("build", FIXTURES)
def test_mu_lattice_is_the_spanning_tree_route_on_fixtures(build):
    assert_mu_lattice_is_the_spanning_tree_route(build())


@pytest.mark.parametrize("chunk", range(10))
def test_mu_lattice_is_the_spanning_tree_route_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert_mu_lattice_is_the_spanning_tree_route(t)


@pytest.mark.parametrize("rows, columns, magic", [(2, 3, 4), (2, 4, 8), (3, 3, 15), (2, 5, 16), (3, 4, 56)])
def test_mu_lattice_is_the_spanning_tree_route_on_grids(rows, columns, magic):
    t = grid_trinity(rows, columns)
    assert_mu_lattice_is_the_spanning_tree_route(t)
    assert {len(trees.hypertree_set(t, code)) for code in HYPERGRAPH_CODES} == {magic}


def assert_triangulation_trees_biject_onto_hypertrees(t):
    for code in HYPERGRAPH_CODES:
        colour = colour_of_hypergraph(code)
        for root in directed_dual(t, colour).vertices:
            arborescence_triangulation(t, colour, root)  # a triangulation: validated
            # Sorted with repeats kept, so equality is a bijection.
            assert triangulation_hypertrees(t, code, root) == trees.hypertree_set(t, code), (code, root)


@pytest.mark.parametrize("build", FIXTURES)
def test_triangulation_trees_biject_onto_hypertrees_on_fixtures(build):
    assert_triangulation_trees_biject_onto_hypertrees(build())


@pytest.mark.parametrize("chunk", range(10))
def test_triangulation_trees_biject_onto_hypertrees_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert_triangulation_trees_biject_onto_hypertrees(t)


# ---------------------------------------------------------------------------
# Mutated tree sets on a corpus graph with parallel edges.
# ---------------------------------------------------------------------------


def parallel_edge_case():
    """A corpus trinity whose red default-root triangulation has at least two
    trees, with (tree index, edge of that tree, a parallel copy of the edge)."""
    for chunk in range(10):
        for t in corpus(chunk):
            edges = colour_graph(t, RED)[0].edges
            tree_sets = polytopes.arborescence_trees(t, RED, polytopes._default_root(t, RED))
            if len(tree_sets) < 2:
                continue
            for i, tree in enumerate(tree_sets):
                for e in tree:
                    copies = [f for f in range(len(edges)) if f != e and edges[f] == edges[e]]
                    if copies:
                        return t, i, e, copies[0]
    raise AssertionError("no corpus graph has a parallel edge in a triangulation tree")


def drop_a_tree(t, tree_sets, i, e, copy):
    return tree_sets[1:]


def swap_a_tree(t, tree_sets, i, e, copy):
    rp = root_polytope_of(t, RED)
    taken = {tree_simplex(rp, tr) for tr in tree_sets}
    other = next(
        tr for tr in spanning_trees_of_map(colour_graph(t, RED)[0]) if tree_simplex(rp, tr) not in taken
    )
    return (other,) + tree_sets[1:]


def duplicate_a_tree(t, tree_sets, i, e, copy):
    j = 1 - min(i, 1)  # another index than i
    return tuple(tree_sets[i] if k == j else tr for k, tr in enumerate(tree_sets))


def swap_in_a_parallel_copy(t, tree_sets, i, e, copy):
    # The copy spans the simplex of tree i and replaces another tree.
    j = 1 - min(i, 1)
    twin = tuple(sorted(copy if f == e else f for f in tree_sets[i]))
    return tuple(twin if k == j else tr for k, tr in enumerate(tree_sets))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (drop_a_tree, "triangulation volume does not cover the root polytope"),
        (swap_a_tree, None),  # whichever check fires first
        (duplicate_a_tree, "triangulation repeats a simplex"),
        (swap_in_a_parallel_copy, "triangulation repeats a simplex"),
    ],
)
def test_a_mutated_tree_set_fails_the_triangulation(monkeypatch, mutate, message):
    t, i, e, copy = parallel_edge_case()
    original = polytopes.arborescence_trees
    mutated = mutate(t, original(t, RED, polytopes._default_root(t, RED)), i, e, copy)
    monkeypatch.setattr(polytopes, "arborescence_trees", lambda *args: mutated)
    with pytest.raises(InternalConsistencyError, match=message):
        arborescence_triangulation(t, RED)


def test_the_parallel_copy_passes_every_other_check():
    # Only the distinct-simplex check rejects it: the copy's simplex has unit
    # volume, meets every tree's simplex in a common face, and the count is
    # unchanged.
    t, i, e, copy = parallel_edge_case()
    rp = root_polytope_of(t, RED)
    original = polytopes.arborescence_trees(t, RED, polytopes._default_root(t, RED))
    tree_sets = swap_in_a_parallel_copy(t, original, i, e, copy)
    simplices = [tree_simplex(rp, tr) for tr in tree_sets]
    assert len(set(simplices)) == len(simplices) - 1
    assert all(simplex_normalized_volume(s) == 1 for s in simplices)
    assert all(
        polytopes.tree_simplices_meet_in_common_face(rp, t1, t2) for t1 in tree_sets for t2 in tree_sets
    )
    assert len(tree_sets) == len(trees.hypertree_set(t, "VE"))


@pytest.mark.parametrize("colour", COLOURS)
def test_verify_names_a_colour_whose_triangulation_misses_a_hypertree(monkeypatch, capsys, colour):
    original = polytopes.triangulation_hypertrees

    def wrong(t, code, root=None):
        vectors = original(t, code, root)
        return vectors[1:] if colour_of_hypergraph(code) == colour else vectors

    monkeypatch.setattr(polytopes, "triangulation_hypertrees", wrong)
    fig7 = str(resources.files("trinities") / "fixtures" / "fig7.json")
    assert main(["verify", fig7]) == EXIT_CHECKS_FAILED
    out = capsys.readouterr().out
    assert f'"hypertrees-triangulation-{colour}"' in out
    assert out.count("hypertrees-triangulation-") == 1
