from fractions import Fraction
from itertools import product

import pytest

from trinities import geometry, linalg, polytopes
from trinities.cli import EXIT_OK, main
from trinities.geometry import VPolytope, lattice_points, prune_to_vertices
from trinities.maps import build_map
from trinities.polytopes import (
    arborescence_triangulation,
    f_vector,
    gp_polytope_of,
    h_vector,
    hypertree_polytope_of,
    root_polytope_of,
    trimmed_gp_of,
    verify_duality_suite,
)
from trinities.trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    build_trinity,
    default_root,
)

from helpers import (
    CASES,
    bipartition,
    case_id,
    count_calls,
    enumerate_trees_as,
    fig7_trinity,
    fixture_path,
    g1_map,
    g1_trinity,
    graphs,
    single_edge_trinity,
    uncertified_trees,
)
from oracles import (
    cayley_slice,
    hyperedges,
    hypergraph_view,
    hypertree_of,
    hypertree_set_of_graph,
    root_polytope,
    slice_matches_scaled_gp,
    spanning_trees_of_map,
    tree_simplex,
)


def vset(poly):
    return {tuple(int(c) for c in v) for v in poly.vertices}


def test_hyperedges_extraction():
    m = g1_map()
    assert hyperedges(m, (0, 1, 2), (3, 4)) == ((0, 1, 2), (1, 2))
    assert polytopes._hyperedges_of(g1_trinity(), "VE") == ((0, 1, 2), (1, 2))


def test_g1_gp_polytope_violet_coordinates():
    gp = gp_polytope_of(g1_trinity(), "VE")
    assert vset(gp) == {(0, 0, 2), (0, 2, 0), (1, 0, 1), (1, 1, 0)}
    assert gp.lattice == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0))


def test_g1_gp_polytope_emerald_coordinates():
    gp = gp_polytope_of(g1_trinity(), "EV")
    assert vset(gp) == {(1, 2), (3, 0)}
    assert gp.lattice == ((1, 2), (2, 1), (3, 0))


def test_g1_trimmed_polytopes():
    t = g1_trinity()
    assert trimmed_gp_of(t, "VE").lattice == ((0, 0, 1), (0, 1, 0))
    assert trimmed_gp_of(t, "EV").lattice == ((1, 1), (2, 0))
    assert trimmed_gp_of(t, "ER").lattice == ((0, 1), (1, 0))


def test_g1_hypertree_polytope():
    ht = hypertree_polytope_of(g1_trinity(), "VE")
    assert vset(ht) == {(1, 1), (2, 0)}
    assert ht.lattice == ((1, 1), (2, 0))


def test_single_hyperedge_gives_simplex():
    # A star: one hyperedge containing every vertex of X.
    m = build_map(4, ((0, 3), (1, 3), (2, 3)), ((0,), (1,), (2,), (0, 1, 2)))
    t = build_trinity(m, bipartition(m))
    assert hypergraph_view(t, "VE")[1:] == ((0, 1, 2), (3,))
    gp = gp_polytope_of(t, "VE")
    assert vset(gp) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # Its trimmed version collapses to the single point at the origin.
    assert trimmed_gp_of(t, "VE").lattice == ((0, 0, 0),)


def test_g1_root_polytope():
    rp = root_polytope_of(g1_trinity(), "VE")
    assert (rp.u_size, rp.v_size) == (2, 3)
    assert rp.affine_dim == 3
    assert vset(rp) == {
        (0, 1, 0, -1, 0),
        (0, 1, 0, 0, -1),
        (1, 0, -1, 0, 0),
        (1, 0, 0, -1, 0),
        (1, 0, 0, 0, -1),
    }
    assert len(rp.generators) == 5


def test_path_root_polytope_is_a_segment():
    m = build_map(3, ((0, 1), (2, 1)), ((0,), (0, 1), (1,)))
    rp = root_polytope(m, (1,), (0, 2))
    assert rp.affine_dim == 1
    assert vset(rp) == {(1, -1, 0), (1, 0, -1)}


def test_tree_simplex_rejects_cycles():
    rp = root_polytope_of(g1_trinity(), "VE")
    # Edges 1,2,3,4 form a four-cycle on v2, v3, e1, e2.
    with pytest.raises(ValueError):
        tree_simplex(rp, (1, 2, 3, 4))
    assert len(tree_simplex(rp, (0, 1, 2, 3))) == 4


def test_g1_red_triangulation():
    t = g1_trinity()
    tree_sets = arborescence_triangulation(t, RED, default_root(t, RED))
    assert tree_sets == ((0, 2, 3, 4), (0, 1, 2, 3))
    assert len([tree_simplex(root_polytope_of(t, "VE"), tree) for tree in tree_sets]) == 2
    assert f_vector(t, RED) == (1, 5, 9, 7, 2)
    assert h_vector(t, RED) == (1, 1, 0, 0, 0)


def test_triangulations_exist_for_all_colours_and_roots():
    t = g1_trinity()
    for colour in COLOURS:
        from trinities.trinity import directed_dual

        dd = directed_dual(t, colour)
        for root in dd.vertices:
            rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
            assert len([tree_simplex(rp, tree) for tree in arborescence_triangulation(t, colour, root)]) == 2


def test_cayley_slices_scale_to_gp_polytopes():
    t = g1_trinity()
    rp = root_polytope_of(t, "VE")
    assert slice_matches_scaled_gp(rp, "U", gp_polytope_of(t, "VE"))
    assert slice_matches_scaled_gp(rp, "V", gp_polytope_of(t, "EV"))


def test_cayley_slice_points_are_exact():
    rp = root_polytope_of(g1_trinity(), "VE")
    sl = cayley_slice(rp, "U")
    for v in sl.vertices:
        assert v[0] == Fraction(1, 2) and v[1] == Fraction(1, 2)


def test_g1_duality_suite():
    report = verify_duality_suite(g1_trinity())
    assert report["all_hold"]
    assert all(report["trimmed_equals_dual_hypertrees"].values())
    assert report["reflections"]["VE|RE"] == {"holds": True, "center": (2, 1)}
    assert report["reflections"]["RV|EV"] == {"holds": True, "center": (0, 1, 1)}
    assert report["reflections"]["VR|ER"] == {"holds": True, "center": (2, 1)}


def test_single_edge_polytopes_are_points():
    t = single_edge_trinity()
    assert gp_polytope_of(t, "VE").lattice == ((1,),)
    assert trimmed_gp_of(t, "VE").lattice == ((0,),)
    assert verify_duality_suite(t)["all_hold"]


# ---------------------------------------------------------------------------
# The subset-inequality polytopes against the LP path: the LP lattice points
# and LP-pruned vertices of the convex hull of an independent point set (the
# Minkowski sums of the generators, their set-difference trimming, and the
# hypertrees of every spanning tree, from the oracle).
# ---------------------------------------------------------------------------


def _lp_lattice_and_vertices(points):
    return lattice_points(VPolytope.from_points(points)), prune_to_vertices(points)


def _minkowski_sums(he, n):
    return {tuple(sum(1 for i in choice if i == j) for j in range(n)) for choice in product(*he)}


def _set_difference_trimming(points, n):
    def plus(x, i):
        return tuple(c + (j == i) for j, c in enumerate(x))

    candidates = {tuple(c - (j == i) for j, c in enumerate(p)) for p in points for i in range(n)}
    return {x for x in candidates if all(plus(x, i) in points for i in range(n))}


def assert_matches_lp_path(t):
    for code in HYPERGRAPH_CODES:
        cm, x_ids, y_ids = hypergraph_view(t, code)
        sums = _minkowski_sums(hyperedges(cm, x_ids, y_ids), len(x_ids))
        trimmed = _set_difference_trimming(sums, len(x_ids))
        hypertrees = hypertree_set_of_graph(cm, y_ids)
        for build, independent in (
            (gp_polytope_of, sums),
            (trimmed_gp_of, trimmed),
            (hypertree_polytope_of, hypertrees),
        ):
            tp = build(t, code)
            lattice, vertices = _lp_lattice_and_vertices(independent)
            assert tp.lattice == lattice, (code, build.__name__)
            assert tp.vertices == vertices, (code, build.__name__)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_polytopes_match_the_lp_path(case):
    for t in graphs(case):
        assert_matches_lp_path(t)


def _drop_last(points):
    return points[:-1]


def _add_far_point(points):
    return tuple(sorted(points + (tuple(c + 1 for c in points[-1]),)))


@pytest.mark.parametrize("change", [_drop_last, _add_far_point])
@pytest.mark.parametrize(
    "build, message",
    [
        (gp_polytope_of, "sums of generators do not exhaust the lattice points"),
        (trimmed_gp_of, "trimmed lattice set is not convexly closed"),
        (hypertree_polytope_of, "hypertrees are not the hypertree set"),
    ],
)
def test_each_description_check_catches_a_changed_lattice(monkeypatch, build, message, change):
    subset_lattice = polytopes._subset_lattice
    monkeypatch.setattr(polytopes, "_subset_lattice", lambda *args: change(subset_lattice(*args)))
    with pytest.raises(InternalConsistencyError, match=message):
        build(g1_trinity(), "VE")


@pytest.mark.parametrize("change", [_drop_last, _add_far_point])
def test_gp_check_catches_changed_generator_sums(monkeypatch, change):
    generator_sums = polytopes._generator_sums
    monkeypatch.setattr(polytopes, "_generator_sums", lambda *args: change(generator_sums(*args)))
    with pytest.raises(InternalConsistencyError, match="sums of generators"):
        gp_polytope_of(g1_trinity(), "VE")


def _duplicate_last(points):
    return points + points[-1:]


def _add_another_roots_tree(tree_sets):
    # g1's red trees at root 1 share none with those at the default root 0.
    return tree_sets + uncertified_trees(g1_trinity(), RED, 1)[:1]


@pytest.mark.parametrize("change", [_drop_last, _add_another_roots_tree, _duplicate_last])
def test_hypertree_check_catches_changed_tree_hypertrees(monkeypatch, change):
    # The triangulation-tree side: a tree, so its vector, dropped, added or
    # repeated. With the certificate stubbed out, only the hypertree check
    # stands between those trees and the polytope.
    t = g1_trinity()
    root = default_root(t, RED)
    enumerate_trees_as(monkeypatch, t, RED, root, change(uncertified_trees(t, RED, root)))
    monkeypatch.setattr(polytopes, "ridge_certificate", lambda *args: None)
    with pytest.raises(InternalConsistencyError, match="VE hypertrees are not the hypertree set"):
        hypertree_polytope_of(g1_trinity(), "VE")


def test_the_hypertree_check_reads_both_sides(monkeypatch):
    # A spanning tree with a tree's Y-side vector but another X-side vector
    # swapped in for it: with the certificate stubbed out, the Y side still
    # matches the hypertree set and only the X side catches the swap.
    t = fig7_trinity()
    code = COLOUR_SELECTORS[RED]
    trees_at = arborescence_triangulation(t, RED, default_root(t, RED))
    m, x_ids, y_ids = hypergraph_view(t, code)
    i, swap = next(
        (i, tree)
        for tree in spanning_trees_of_map(m)
        for i, kept in enumerate(trees_at)
        if hypertree_of(tree, m.edges, y_ids) == hypertree_of(kept, m.edges, y_ids)
        and hypertree_of(tree, m.edges, x_ids) != hypertree_of(kept, m.edges, x_ids)
    )
    enumerate_trees_as(monkeypatch, t, RED, default_root(t, RED), trees_at[:i] + (swap,) + trees_at[i + 1 :])
    monkeypatch.setattr(polytopes, "ridge_certificate", lambda *args: None)
    with pytest.raises(InternalConsistencyError, match=f"the triangulation trees' {code[::-1]} hypertrees"):
        arborescence_triangulation(fig7_trinity(), RED, default_root(t, RED))


def test_root_polytope_listing_lattice_points_are_the_generators():
    t = g1_trinity()
    for code in HYPERGRAPH_CODES:
        tp = root_polytope_of(t, code)
        cm, x_ids, y_ids = hypergraph_view(t, code)
        gens = root_polytope(cm, y_ids, x_ids).generators
        assert tp.lattice == tuple(sorted({tuple(int(c) for c in g) for g in gens}))
        assert tp.vertices == prune_to_vertices(gens)


def test_root_listing_solves_no_lp(monkeypatch, capsys):
    counted = [
        count_calls(monkeypatch, module, name)
        for module, name in (
            (linalg, "lp_solve"),
            (linalg, "fvec"),
            (geometry, "lattice_points"),
            (geometry, "prune_to_vertices"),
        )
    ]
    for fixture in ("g1.json", "fig7.json"):
        path = fixture_path(fixture)
        for code in HYPERGRAPH_CODES:
            assert main(["polytope", path, "--hypergraph", code, "--which", "root"]) == EXIT_OK
    assert '"lattice_points"' in capsys.readouterr().out
    assert counted == [[]] * len(counted)

