import random

import pytest

from trinities import linalg, trinity
from trinities.maps import Bipartition, MapError, derived
from trinities.trinity import (
    COLOURS,
    EMERALD,
    RED,
    VIOLET,
    InternalConsistencyError,
    Trinity,
    adjacency_matrix,
    build_trinity,
    colour_graph,
    colour_of_hypergraph,
    count_arborescences,
    count_tutte_matchings,
    default_root,
    directed_dual,
    incidence,
    magic_number_report,
    non_root_vertices,
    non_root_white_triangles,
    round_det,
)

from helpers import (
    CHUNKS,
    FIXTURES,
    bipartition,
    case_id,
    corpus,
    fig7_trinity,
    g1_map,
    g1_trinity,
    graphs,
    grid_trinity,
    grouped,
    patch_everywhere,
    permute_edge_ids,
    single_edge_trinity,
)
from oracles import det_exact, enumerate_tutte_matchings, hypergraph_view, triangle_corners


def test_g1_triangles():
    t = g1_trinity()
    assert t.map.n_darts == 10
    assert t.white_triangles == (0, 2, 4, 6, 8)
    # Each triangle's (violet, emerald, red) corners: the two ends of its
    # dart's edge plus the face on its left.
    assert tuple(tuple(t.corner(d, c) for c in COLOURS) for d in range(10)) == (
        (0, 3, 0),
        (0, 3, 0),
        (1, 3, 1),
        (1, 3, 0),
        (2, 3, 0),
        (2, 3, 1),
        (1, 4, 0),
        (1, 4, 1),
        (2, 4, 1),
        (2, 4, 0),
    )
    assert 7 not in t.white_triangles


def test_default_root_is_smallest_outer_white_triangle():
    t = g1_trinity()
    assert t.root_triangle == 0
    assert tuple((c, default_root(t, c)) for c in COLOURS) == ((VIOLET, 0), (EMERALD, 3), (RED, 0))


def test_root_override_validation():
    with pytest.raises(MapError):
        g1_trinity(root_triangle=1)  # a black triangle
    with pytest.raises(MapError):
        g1_trinity(root_triangle=10)  # out of range
    with pytest.raises(MapError):
        g1_trinity(root_triangle=-2)  # out of range, though as an index it is dart 8, a white one


def test_build_trinity_derives_the_white_triangles_once(monkeypatch):
    # The root is chosen or checked on the map, so only the trinity returned
    # derives its white triangles, and only once.
    whites = Trinity.white_triangles.fget.__wrapped__
    built = []

    def counted(t):
        built.append(t)
        return whites(t)

    monkeypatch.setattr(Trinity, "white_triangles", property(derived(counted)))
    t = fig7_trinity()
    assert t.white_triangles is t.white_triangles == whites(t)
    assert [b is t for b in built] == [True]


@pytest.mark.parametrize("class_a", [{0, 1}, {0, 1, 2, 3, 4}])
def test_an_improper_bipartition_is_a_map_error(class_a):
    # {0, 1} | rest puts the edges at vertex 2 inside class_b, and an
    # all-violet map puts every edge inside class_a: bad input, not a bug.
    m = g1_map()
    bip = Bipartition(class_a=frozenset(class_a), class_b=frozenset(range(m.n_vertices)) - class_a)
    with pytest.raises(MapError, match="does not join class_a to class_b"):
        build_trinity(m, bip)


def test_g1_adjacency_matrix_and_determinant():
    # Root at the white triangle of dart 6 (edge v2-e2, outer corner).
    t = g1_trinity(root_triangle=6)
    assert non_root_vertices(t) == ((VIOLET, 0), (VIOLET, 2), (EMERALD, 3), (RED, 1))
    assert non_root_white_triangles(t) == (0, 2, 4, 8)
    assert adjacency_matrix(t) == ((1, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 0, 1))
    assert round_det(t) == -2
    assert round_det(g1_trinity()) in (-2, 2)


def test_determinant_routes_are_integer_determinants():
    # The adjacency determinant and the Laplacian minors are int matrices
    # with int determinants, equal to the rational determinant.
    for t in (g1_trinity(), fig7_trinity()):
        value = round_det(t)
        assert type(value) is int and value == det_exact(adjacency_matrix(t))
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            counts = {count_arborescences(dd, root) for root in dd.vertices}
            assert counts == {abs(value)} and all(type(c) is int for c in counts)


def test_g1_matrix_matches_reference_form_under_column_permutation():
    # Reading the columns as t3, t4, t1, t2 and the rows bottom-up gives the
    # hand-computed reference matrix for this example.
    t = g1_trinity(root_triangle=6)
    entries = adjacency_matrix(t)
    col_perm = {0: 2, 2: 3, 4: 0, 8: 1}  # dart -> reference column t_{i+1}
    cols = non_root_white_triangles(t)
    reference = (
        (0, 1, 0, 1),  # r1
        (1, 0, 1, 1),  # e1
        (0, 0, 1, 0),  # v1
        (1, 1, 0, 0),  # v3
    )
    rows = {(VIOLET, 0): 2, (VIOLET, 2): 3, (EMERALD, 3): 1, (RED, 1): 0}
    for i, row_key in enumerate(non_root_vertices(t)):
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


def rerooted(t, root_triangle):
    bip = Bipartition(class_a=t.violet, class_b=t.emerald)
    return build_trinity(t.map, bip, outer_face=t.outer_face, root_triangle=root_triangle)


@pytest.mark.parametrize("case", FIXTURES, ids=case_id)
def test_tutte_count_is_the_enumeration_at_every_root_of_the_fixtures(case):
    (t,) = graphs(case)
    for w in t.white_triangles:
        tw = rerooted(t, w)
        assert count_tutte_matchings(tw) == len(enumerate_tutte_matchings(tw)), w


def test_single_edge_has_one_tutte_matching_the_empty_one():
    t = single_edge_trinity()
    assert enumerate_tutte_matchings(t) == ((),)
    assert count_tutte_matchings(t) == 1


def test_tutte_count_is_the_enumeration_on_the_corpus():
    for chunk in CHUNKS:
        for k, t in enumerate(corpus(chunk)):
            assert count_tutte_matchings(t) == len(enumerate_tutte_matchings(t)), (chunk, k)


@pytest.mark.parametrize("rows, columns", [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5), (4, 4)])
def test_tutte_count_is_the_enumeration_on_grids_with_shuffled_edge_ids(rows, columns):
    # Edge ids set the column order, so the bit each column takes; any face
    # may be the unbounded one.
    m = grid_trinity(rows, columns).map
    rng = random.Random(f"tutte:{rows}x{columns}")
    for mm in (m, permute_edge_ids(m, rng), permute_edge_ids(m, rng)):
        t = build_trinity(mm, bipartition(mm), outer_face=0)
        assert count_tutte_matchings(t) == len(enumerate_tutte_matchings(t)) == abs(round_det(t))


@pytest.mark.parametrize("rows, columns, magic", [(3, 6, 780), (4, 5, 2_624), (5, 5, 32_625)])
def test_tutte_count_is_the_determinant_where_enumeration_cannot_run(rows, columns, magic):
    t = grid_trinity(rows, columns)
    assert count_tutte_matchings(t) == abs(round_det(t)) == magic


def test_tutte_count_rejects_a_matrix_that_is_not_square(monkeypatch):
    t = g1_trinity()
    entries = adjacency_matrix(t)
    monkeypatch.setattr(trinity, "adjacency_matrix", lambda _t: entries[1:])
    with pytest.raises(InternalConsistencyError):
        count_tutte_matchings(t)


def test_tutte_count_takes_no_determinant(monkeypatch):
    def refuse(_rows):
        raise AssertionError("integer_det called")

    patch_everywhere(monkeypatch, linalg, "integer_det", refuse)
    t = fig7_trinity()
    with pytest.raises(AssertionError):
        round_det(t)
    assert count_tutte_matchings(t) == 11


def test_g1_directed_duals_frozen():
    t = g1_trinity()
    violet = directed_dual(t, VIOLET)
    emerald = directed_dual(t, EMERALD)
    red = directed_dual(t, RED)
    # Edge i of each directed dual crosses the i-th white triangle.
    assert t.white_triangles == (0, 2, 4, 6, 8)
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


@pytest.mark.parametrize("cases", grouped("grids", "2x3", "3x3", "3x4", "4x4"))
def test_each_colour_graph_is_the_oriented_planar_dual_of_its_directed_dual(cases):
    # Directed-dual edge i crosses colour-graph edge i, from the face on its
    # right to the face on its left, read from the class-a end: the tail is
    # the black triangle's corner, the head the white one's. A mirrored
    # rotation system is still planar but swaps the two sides.
    for t in graphs(*cases):
        for colour in COLOURS:
            cm, bip = colour_graph(t, colour)
            dd = directed_dual(t, colour)
            assert cm.n_faces == len(dd.vertices), colour
            for i, (tail, head) in enumerate(dd.edges):
                left = 2 * i if cm.vertex_of[2 * i] in bip.class_a else 2 * i + 1
                for dart, end in ((left, head), (left ^ 1, tail)):
                    crossing = {d // 2 for d in cm.faces[cm.face_of[dart]]}
                    assert crossing == {j for j, ends in enumerate(dd.edges) if end in ends}, (colour, i, dart)


@pytest.mark.parametrize("cases", grouped("grids", "2x3", "3x3", "3x4", "4x4"))
def test_every_corner_is_the_per_dart_reading(cases):
    # The corner rule against the reference reading of each dart; the white
    # triangles are the darts at the violet ends, one per edge; and each
    # adjacency-matrix column has its 1s at its triangle's non-root corners.
    for t in graphs(*cases):
        m = t.map
        for d in range(m.n_darts):
            assert tuple((c, t.corner(d, c)) for c in COLOURS) == triangle_corners(t, d), d
        assert [w // 2 for w in t.white_triangles] == list(range(m.n_edges))
        assert all(dict(triangle_corners(t, w))[VIOLET] == m.vertex_of[w] for w in t.white_triangles)
        rows = non_root_vertices(t)
        roots = set(triangle_corners(t, t.root_triangle))
        entries = adjacency_matrix(t)
        for j, w in enumerate(non_root_white_triangles(t)):
            ones = {row for i, row in enumerate(rows) if entries[i][j]}
            assert ones == set(triangle_corners(t, w)) - roots, w


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
    with pytest.raises(ValueError):
        incidence(t, "VV")


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
