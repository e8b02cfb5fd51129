"""The hypertree sets, which the library takes from Kalman's mu-lattice,
against two independent routes: the degree vectors of every spanning tree
(the oracle) and of the trees of each arborescence triangulation (Postnikov,
section 12: each hypertree exactly once). Then the triangulation's own
check against tree sets that drop, swap or repeat a simplex, fed to it
through the arborescence enumeration; the violet and emerald hypertree
polytopes, and so ``report``, refuse a swapped tree; and ``verify`` names
each root whose trees miss a hypertree."""

import pytest

from trinities import polytopes
from trinities.cli import EXIT_CHECKS_FAILED, EXIT_INTERNAL, main
from trinities.polytopes import (
    arborescence_triangulation,
    hypertree_polytope_of,
    ridge_certificate,
    root_polytope_of,
)
from trinities.trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    EMERALD,
    HYPERGRAPH_CODES,
    RED,
    VIOLET,
    InternalConsistencyError,
    colour_graph,
    colour_of_hypergraph,
    default_root,
    directed_dual,
    incidence,
)

from helpers import (
    CASES,
    CHUNKS,
    case_id,
    corpus,
    document_text,
    enumerate_trees_as,
    fig7_trinity,
    fixture_path,
    graphs,
    grid_trinity,
    tree_hypertrees,
    uncertified_trees,
)
from oracles import (
    hypergraph_view,
    hypertree_set_of_graph,
    simplex_normalized_volume,
    spanning_trees_of_map,
    tree_simplex,
    tree_simplices_meet_in_common_face,
)

def assert_mu_lattice_is_the_spanning_tree_route(t):
    for code in HYPERGRAPH_CODES:
        cm, _x_ids, y_ids = hypergraph_view(t, code)
        assert polytopes.hypertree_set(t, code) == hypertree_set_of_graph(cm, y_ids), code


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_mu_lattice_is_the_spanning_tree_route(case):
    for t in graphs(case):
        assert_mu_lattice_is_the_spanning_tree_route(t)


@pytest.mark.parametrize("rows, columns, magic", [(2, 3, 4), (2, 4, 8), (3, 3, 15), (2, 5, 16), (3, 4, 56)])
def test_mu_lattice_is_the_spanning_tree_route_on_grids(rows, columns, magic):
    t = grid_trinity(rows, columns)
    assert_mu_lattice_is_the_spanning_tree_route(t)
    assert {len(polytopes.hypertree_set(t, code)) for code in HYPERGRAPH_CODES} == {magic}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_triangulation_trees_biject_onto_hypertrees(case):
    for t in graphs(case):
        for code in HYPERGRAPH_CODES:
            colour = colour_of_hypergraph(code)
            for root in directed_dual(t, colour).vertices:
                tree_sets = arborescence_triangulation(t, colour, root)  # a triangulation: validated
                # Sorted with repeats kept, so equality is a bijection.
                assert tree_hypertrees(t, code, tree_sets) == polytopes.hypertree_set(t, code), (code, root)


# ---------------------------------------------------------------------------
# Mutated tree sets on a corpus graph with parallel edges.
# ---------------------------------------------------------------------------


def parallel_edge_case(colour=RED):
    """A corpus trinity whose default-root triangulation of the colour has at
    least two trees, with (tree index, edge of that tree, a parallel copy of
    the edge): another edge of the colour graph with the same ends."""
    for chunk in CHUNKS:
        for t in corpus(chunk):
            ends = incidence(t, COLOUR_SELECTORS[colour])[0]
            tree_sets = uncertified_trees(t, colour, default_root(t, colour))
            if len(tree_sets) < 2:
                continue
            for i, tree in enumerate(tree_sets):
                for e in tree:
                    copies = [f for f in range(len(ends)) if f != e and ends[f] == ends[e]]
                    if copies:
                        return t, i, e, copies[0]
    raise AssertionError(f"no corpus graph has a parallel edge in a {colour} triangulation tree")


def drop_a_tree(t, tree_sets, i, e, copy):
    return tree_sets[1:]


def swap_a_tree(t, tree_sets, i, e, copy):
    rp = root_polytope_of(t, "VE")
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
        (drop_a_tree, "triangulation interior ridge"),
        (swap_a_tree, None),  # whichever check fires first
        (duplicate_a_tree, "triangulation (boundary|interior) ridge"),
        (swap_in_a_parallel_copy, "triangulation (boundary|interior) ridge"),
    ],
)
def test_a_mutated_tree_set_fails_the_triangulation(monkeypatch, mutate, message):
    t, i, e, copy = parallel_edge_case()
    mutated = mutate(t, uncertified_trees(t, RED, default_root(t, RED)), i, e, copy)
    enumerate_trees_as(monkeypatch, t, RED, default_root(t, RED), mutated)
    with pytest.raises(InternalConsistencyError, match=message):
        arborescence_triangulation(t, RED, default_root(t, RED))


def test_the_parallel_copy_passes_every_other_check():
    # The pairwise checks accept it: the copy's simplex has unit volume, meets
    # every tree's simplex in a common face, and the count is unchanged. Only
    # a repeated-simplex check, or the ridge certificate, rejects it.
    t, i, e, copy = parallel_edge_case()
    rp = root_polytope_of(t, "VE")
    original = uncertified_trees(t, RED, default_root(t, RED))
    tree_sets = swap_in_a_parallel_copy(t, original, i, e, copy)
    simplices = [tree_simplex(rp, tr) for tr in tree_sets]
    assert len(set(simplices)) == len(simplices) - 1
    assert all(simplex_normalized_volume(s) == 1 for s in simplices)
    assert all(tree_simplices_meet_in_common_face(rp, t1, t2) for t1 in tree_sets for t2 in tree_sets)
    assert len(tree_sets) == len(polytopes.hypertree_set(t, "VE"))
    with pytest.raises(InternalConsistencyError, match="triangulation (boundary|interior) ridge"):
        ridge_certificate(rp, tree_sets)


def parallel_copy_swap(colour):
    """A corpus trinity and its default-root trees of the colour with one
    tree's edge swapped for a parallel copy, replacing another tree."""
    t, i, e, copy = parallel_edge_case(colour)
    return t, swap_in_a_parallel_copy(t, uncertified_trees(t, colour, default_root(t, colour)), i, e, copy)


def end_degrees(ends, tree):
    """The tree's Y ends and X ends, each sorted: its hypertrees on both sides."""
    return tuple(sorted(ends[e][0] for e in tree)), tuple(sorted(ends[e][1] for e in tree))


def same_hypertrees_swap(colour):
    """A corpus trinity and its default-root trees of the colour with one
    tree swapped for a spanning tree with the same hypertrees on both sides
    but another simplex: the two hypertree sets come out right, and only a
    certificate sees that the simplices no longer triangulate."""
    for chunk in CHUNKS:
        for t in corpus(chunk):
            ends = incidence(t, COLOUR_SELECTORS[colour])[0]
            tree_sets = uncertified_trees(t, colour, default_root(t, colour))
            simplices = {frozenset(ends[e] for e in tree) for tree in tree_sets}
            by_degrees = {end_degrees(ends, tree): j for j, tree in enumerate(tree_sets)}
            for other in spanning_trees_of_map(colour_graph(t, colour)[0]):
                j = by_degrees.get(end_degrees(ends, other))
                if j is not None and frozenset(ends[e] for e in other) not in simplices:
                    return t, tree_sets[:j] + (other,) + tree_sets[j + 1 :]
    raise AssertionError(f"no corpus graph has a {colour} tree with another's hypertrees")


@pytest.mark.parametrize("swap", [parallel_copy_swap, same_hypertrees_swap])
@pytest.mark.parametrize("colour", [VIOLET, EMERALD])
def test_a_swapped_tree_fails_the_hypertree_polytope_and_the_report(monkeypatch, tmp_path, capsys, colour, swap):
    # The report reads the violet and emerald trees only through the
    # hypertree polytopes, at the default root: they must be certified there.
    t, mutated = swap(colour)
    enumerate_trees_as(monkeypatch, t, colour, default_root(t, colour), mutated)
    for code in (COLOUR_SELECTORS[colour], COLOUR_SELECTORS[colour][::-1]):
        with pytest.raises(InternalConsistencyError, match="^triangulation (boundary|interior) ridge"):
            hypertree_polytope_of(t, code)
    path = tmp_path / "graph.json"
    path.write_text(document_text(t))
    assert main(["report", str(path)]) == EXIT_INTERNAL
    assert "internal consistency error: triangulation" in capsys.readouterr().err


@pytest.mark.parametrize("colour", COLOURS)
def test_verify_names_a_colour_whose_triangulation_misses_a_hypertree(monkeypatch, capsys, colour):
    # Each root's first tree dropped: the trees miss that tree's hypertree
    # and are no triangulation, at every root of the colour.
    fig7 = fixture_path("fig7.json")
    t = fig7_trinity()
    roots = directed_dual(t, colour).vertices
    for root in roots:
        enumerate_trees_as(monkeypatch, t, colour, root, uncertified_trees(t, colour, root)[1:])
    if colour == RED:
        # The link identity reads the red triangulation at the default root.
        assert main(["verify", fig7]) == EXIT_INTERNAL
        return
    assert main(["verify", fig7]) == EXIT_CHECKS_FAILED
    out = capsys.readouterr().out
    for root in roots:
        assert f'"triangulation-{colour}-root-{root}"' in out
    assert out.count('"triangulation-') == len(roots)
