import pytest

from trinities.maps import MapError
from trinities.trees import count_arborescences
from trinities.trinity import (
    COLOURS,
    EMERALD,
    RED,
    VIOLET,
    adjacency_matrix,
    colour_graph,
    colour_of_hypergraph,
    directed_dual,
    enumerate_tutte_matchings,
    hypergraph_view,
    magic_number_report,
    non_root_vertices,
    non_root_white_triangles,
    round_det,
)

from helpers import fig7_trinity, g1_trinity, single_edge_trinity
from oracles import det_exact


def test_g1_triangles():
    t = g1_trinity()
    assert len(t.triangles) == 10
    assert t.white_triangles == (0, 2, 4, 6, 8)
    # Each white triangle records the two ends of its edge plus the left face.
    tri = t.triangles[6]
    assert (tri.violet, tri.emerald, tri.red) == (1, 4, 0)
    assert tri.colour == "white"
    assert t.triangles[7].colour == "black"


def test_default_root_is_smallest_outer_white_triangle():
    t = g1_trinity()
    assert t.root_triangle == 0
    assert t.root_vertices == ((VIOLET, 0), (EMERALD, 3), (RED, 0))


def test_root_override_validation():
    with pytest.raises(MapError):
        g1_trinity(root_triangle=1)  # a black triangle
    with pytest.raises(MapError):
        g1_trinity(root_triangle=10)  # out of range


def test_g1_adjacency_matrix_and_determinant():
    # Root at the white triangle of dart 6 (edge v2-e2, outer corner).
    t = g1_trinity(root_triangle=6)
    m = adjacency_matrix(t)
    assert m.rows == ((VIOLET, 0), (VIOLET, 2), (EMERALD, 3), (RED, 1))
    assert m.columns == (0, 2, 4, 8)
    assert m.entries == ((1, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 0, 1))
    assert round_det(t) == -2
    assert round_det(g1_trinity()) in (-2, 2)


def test_determinant_routes_are_integer_determinants():
    # The adjacency determinant and the Laplacian minors are int matrices
    # with int determinants, equal to the rational determinant.
    for t in (g1_trinity(), fig7_trinity()):
        value = round_det(t)
        assert type(value) is int and value == det_exact(adjacency_matrix(t).entries)
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            counts = {count_arborescences(dd, root) for root in dd.vertices}
            assert counts == {abs(value)} and all(type(c) is int for c in counts)


def test_g1_matrix_matches_reference_form_under_column_permutation():
    # Reading the columns as t3, t4, t1, t2 and the rows bottom-up gives the
    # hand-computed reference matrix for this example.
    t = g1_trinity(root_triangle=6)
    entries = adjacency_matrix(t).entries
    col_perm = {0: 2, 2: 3, 4: 0, 8: 1}  # dart -> reference column t_{i+1}
    cols = adjacency_matrix(t).columns
    reference = (
        (0, 1, 0, 1),  # r1
        (1, 0, 1, 1),  # e1
        (0, 0, 1, 0),  # v1
        (1, 1, 0, 0),  # v3
    )
    rows = {(VIOLET, 0): 2, (VIOLET, 2): 3, (EMERALD, 3): 1, (RED, 1): 0}
    for i, row_key in enumerate(adjacency_matrix(t).rows):
        for j, c in enumerate(cols):
            assert entries[i][j] == reference[rows[row_key]][col_perm[c]]
    assert abs(det_exact(reference)) == 2


def test_g1_tutte_matchings():
    t = g1_trinity()
    matchings = enumerate_tutte_matchings(t)
    assert len(matchings) == 2
    assert matchings == (
        (((VIOLET, 1), 2), ((VIOLET, 2), 4), ((EMERALD, 4), 6), ((RED, 1), 8)),
        (((VIOLET, 1), 6), ((VIOLET, 2), 4), ((EMERALD, 4), 8), ((RED, 1), 2)),
    )


def test_g1_directed_duals_frozen():
    t = g1_trinity()
    violet = directed_dual(t, VIOLET)
    emerald = directed_dual(t, EMERALD)
    red = directed_dual(t, RED)
    for dd in (violet, emerald, red):
        assert dd.white_triangles == (0, 2, 4, 6, 8)
    assert violet.edges == ((1, 0), (2, 1), (0, 2), (2, 1), (1, 2))
    assert emerald.edges == ((3, 3), (4, 3), (4, 3), (3, 4), (3, 4))
    # The cut edge of the graph gives a loop at the unbounded region.
    assert red.edges == ((0, 0), (0, 1), (1, 0), (1, 0), (0, 1))


def test_directed_duals_are_balanced():
    # In- and out-degrees agree at every vertex of every directed dual.
    from collections import Counter

    for t in (g1_trinity(), single_edge_trinity()):
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            indeg, outdeg = Counter(), Counter()
            for tail, head in dd.edges:
                outdeg[tail] += 1
                indeg[head] += 1
            assert all(indeg[v] == outdeg[v] for v in dd.vertices)


def test_g1_colour_graphs():
    t = g1_trinity()
    violet_map, violet_bip = colour_graph(t, VIOLET)
    assert (violet_map.n_vertices, violet_map.n_edges, violet_map.n_faces) == (4, 5, 3)
    assert violet_map.edges == ((0, 2), (0, 3), (0, 2), (1, 2), (1, 3))
    assert (sorted(violet_bip.class_a), sorted(violet_bip.class_b)) == ([0, 1], [2, 3])
    emerald_map, emerald_bip = colour_graph(t, EMERALD)
    assert (emerald_map.n_vertices, emerald_map.n_edges, emerald_map.n_faces) == (5, 5, 2)
    assert emerald_map.edges == ((0, 2), (1, 3), (0, 4), (0, 3), (1, 4))
    red_map, _ = colour_graph(t, RED)
    assert red_map is t.map


def test_hypergraph_views():
    t = g1_trinity()
    cm, x_ids, y_ids = hypergraph_view(t, "VE")
    assert colour_of_hypergraph("VE") == RED
    assert cm is t.map
    assert x_ids == (0, 1, 2) and y_ids == (3, 4)
    cm, x_ids, y_ids = hypergraph_view(t, "EV")
    assert cm is t.map and x_ids == (3, 4) and y_ids == (0, 1, 2)
    with pytest.raises(ValueError):
        hypergraph_view(t, "VV")


def test_non_root_pieces():
    t = g1_trinity(root_triangle=6)
    assert non_root_white_triangles(t) == (0, 2, 4, 8)
    assert len(non_root_vertices(t)) == 4


def test_g1_magic_number_report():
    report = magic_number_report(g1_trinity())
    assert report["all_equal"]
    assert report["magic_number"] == 2
    assert report["det"] == 2
    assert report["tutte_matchings"] == 2
    assert set(report["arborescences"].values()) == {2}
    assert set(report["hypertree_counts"].values()) == {2}


def test_single_edge_magic_number_is_one():
    report = magic_number_report(single_edge_trinity())
    assert report["all_equal"] and report["magic_number"] == 1
