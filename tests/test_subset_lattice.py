"""Kalman's mu table, built from each set without its lowest hyperedge,
against merging every set's hyperedges afresh
(``oracles.hypertree_bound_by_merging``). The lattice walk of the
subset-inequality descriptions against the walk that rescans every prefix
sum (``oracles.subset_lattice``): Kalman's mu, the coverage bound f and
f - 1 of every selector, random bounds that need not be submodular, the
smallest ones also against a scan of a box, and bounds with entries near
10^6, from -3..3 and all zero, which fill the packed table's fields. The
vertex rule, no exchange of two coordinates possible both ways, against the
rank of the tight rows (``oracles.subset_vertices``) on the same three
bounds. The dimension rules, n minus the components of the exchange graph
and |U| + |V| - 2 for a root polytope, against the rank of the vertices
(``oracles.affine_dim``)."""

import random
from itertools import combinations, permutations, product

import pytest

from trinities import polytopes
from trinities.polytopes import verify_duality_suite
from trinities.trinity import (
    HYPERGRAPH_CODES,
    build_trinity,
    magic_number_report,
)

from helpers import (
    CASES,
    bipartition,
    case_id,
    graphs,
    grid_trinity,
    grouped,
    permute_edge_ids,
)
from oracles import affine_dim, hypergraph_view, hypertree_bound_by_merging, subset_lattice, subset_vertices


def selector_bounds(t):
    """(label, bound, n) for the mu, coverage and trimmed bound of every selector."""
    for code in HYPERGRAPH_CODES:
        he = polytopes._hyperedges_of(t, code)
        n = len(hypergraph_view(t, code)[1])
        coverage = polytopes._coverage_bound(he, n)
        yield f"{code} mu", polytopes._hypertree_bound(he), len(he)
        yield f"{code} f", coverage, n
        yield f"{code} f-1", [0] + [c - 1 for c in coverage[1:]], n


def assert_walks_agree(t):
    for label, bound, n in selector_bounds(t):
        assert polytopes._subset_lattice(bound, n) == subset_lattice(bound, n), label


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_walk_is_the_oracle(case):
    for t in graphs(case):
        assert_walks_agree(t)


@pytest.mark.parametrize("rows, columns", [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5), (4, 4)])
def test_walk_is_the_oracle_on_grids_with_shuffled_edge_ids(rows, columns):
    m = grid_trinity(rows, columns).map
    mm = permute_edge_ids(m, random.Random(f"lattice:{rows}x{columns}"))
    assert_walks_agree(grid_trinity(rows, columns))
    assert_walks_agree(build_trinity(mm, bipartition(mm), outer_face=0))


@pytest.mark.parametrize("case", [*CASES, "2x3", "2x4", "3x3", "2x5", "3x4", "3x5", "4x4"], ids=case_id)
def test_mu_recurrence_is_the_merging_oracle(case):
    rng = random.Random(f"mu:{case}")
    for t in graphs(case):
        mm = permute_edge_ids(t.map, rng)
        for u in (t, build_trinity(mm, bipartition(mm), outer_face=0)):
            for code in HYPERGRAPH_CODES:
                he = polytopes._hyperedges_of(u, code)
                assert polytopes._hypertree_bound(he) == hypertree_bound_by_merging(he), code


def assert_vertex_rules_agree(t):
    for label, bound, n in selector_bounds(t):
        points = polytopes._subset_lattice(bound, n)
        assert polytopes._vertices_and_dim(points)[0] == subset_vertices(bound, n, points), label


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_vertex_rule_is_the_rank_test(case):
    for t in graphs(case):
        assert_vertex_rules_agree(t)


@pytest.mark.parametrize("rows, columns", [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (3, 5)])
def test_vertex_rule_is_the_rank_test_on_grids(rows, columns):
    assert_vertex_rules_agree(grid_trinity(rows, columns))


def test_vertex_rule_keeps_the_corners_of_a_hexagon():
    # b({i}) = 3, b({i, j}) = 5, b(all) = 6: the permutohedron of (1, 2, 3)
    # with its centre, which every pair can be exchanged at both ways.
    bound = [0, 3, 3, 5, 3, 5, 5, 6]
    points = polytopes._subset_lattice(bound, 3)
    corners = sorted(permutations((1, 2, 3)))
    assert points == tuple(sorted([*corners, (2, 2, 2)]))
    assert polytopes._vertices_and_dim(points)[0] == corners == subset_vertices(bound, 3, points)


def exchange_vertices(points):
    """The points p of the set for which no pair i < j has both
    p + e_i - e_j and p - e_i + e_j in the set, compared as tuples."""
    present = set(points)

    def exchanged(p, i, j, d):
        q = list(p)
        q[i] += d
        q[j] -= d
        return tuple(q) in present

    return [
        p
        for p in points
        if not any(exchanged(p, i, j, 1) and exchanged(p, i, j, -1) for i, j in combinations(range(len(p)), 2))
    ]


@pytest.mark.parametrize("n", range(2, 6))
def test_vertex_rule_reads_the_exchanges_of_any_point_set(n):
    # The rule packs each point into one integer; on sets of small spread,
    # negative coordinates among them, the packing must not merge a point
    # with an exchange of another.
    rng = random.Random(f"exchanges:{n}")
    for k in range(300):
        low = rng.randint(-3, 1)
        high = low + rng.randint(1, 3)
        box = list(product(range(low, high + 1), repeat=n))
        points = sorted(rng.sample(box, rng.randint(2, min(len(box), 40))))
        assert polytopes._vertices_and_dim(points)[0] == exchange_vertices(points), (k, points)


@pytest.mark.parametrize("cases", grouped("grids", "3x4", "4x4"))
def test_dimension_rules_are_the_rank_of_the_vertices(cases):
    for t in graphs(*cases):
        for code in HYPERGRAPH_CODES:
            for build in (polytopes.gp_polytope_of, polytopes.trimmed_gp_of, polytopes.hypertree_polytope_of):
                tp = build(t, code)
                assert tp.affine_dim == affine_dim(tp.vertices), (code, build.__name__)
            rp = polytopes.root_polytope_of(t, code)
            assert rp.affine_dim == affine_dim(rp.vertices) == rp.u_size + rp.v_size - 2, code


def box_scan(bound, n):
    """Every integer point of the box [min_i b(all) - b(all - i), max_i b({i})]^n
    on the hyperplane x(all) = b(all) that meets every inequality, in
    lexicographic order. The box holds the polytope: x_i <= b({i}), and
    x_i = b(all) - x(all - i) >= b(all) - b(all - i)."""
    full = (1 << n) - 1
    lo = min(bound[full] - bound[full ^ 1 << i] for i in range(n))
    hi = max(bound[1 << i] for i in range(n))
    out = []
    for head in product(range(lo, hi + 1), repeat=n - 1):
        x = head + (bound[full] - sum(head),)
        sums = [0]
        for v in x:
            sums += [s + v for s in sums]
        if all(s <= b for s, b in zip(sums, bound)):
            out.append(x)
    return tuple(out)


def random_bound(rng, n):
    """b(0) = 0 and, on every other set, either a draw from -1..3 or p(S)
    plus a draw from 0..2 for a random integer point p; neither need be
    submodular, and the first is mostly infeasible once n > 2."""
    if rng.random() < 0.5:
        return [0] + [rng.randint(-1, 3) for _ in range((1 << n) - 1)]
    p = [rng.randint(-1, 2) for _ in range(n)]
    return [0] + [sum(v for i, v in enumerate(p) if s >> i & 1) + rng.randint(0, 2) for s in range(1, 1 << n)]


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_is_the_oracle_on_random_bounds(n):
    rng = random.Random(f"bounds:{n}")
    empty = 0
    for k in range(400):
        bound = random_bound(rng, n)
        points = polytopes._subset_lattice(bound, n)
        assert points == subset_lattice(bound, n), (k, bound)
        if n <= 4:
            assert points == box_scan(bound, n), (k, bound)
        empty += not points
    # One coordinate always has its one point x_0 = b(all).
    assert empty < 400 and (empty > 0 or n == 1)


def large_bound(rng, n):
    """b(0) = 0 and, on every other set S, p(S) plus a slack for a random
    integer point p whose coordinates, negative ones among them, reach
    10^6 / 2n in size; each set of 2 to n - 2 elements gets up to 5 * 10^5
    more with probability 1/3, so entries reach about 10^6. The slacks are
    draws from 0..3, 0..1 on the whole set, and for a quarter of the bounds
    from -1 up, which makes many of those infeasible; every singleton and
    its complement keep a small slack, so each coordinate's range stays
    small."""
    scale = 10**6 // (2 * n)
    p = [rng.randint(-scale, scale) for _ in range(n)]
    least = -1 if rng.random() < 0.25 else 0
    full = (1 << n) - 1
    bound = [0]
    for s in range(1, 1 << n):
        b = sum(v for i, v in enumerate(p) if s >> i & 1) + rng.randint(least, 1 if s == full else 3)
        if 2 <= s.bit_count() <= n - 2 and rng.random() < 1 / 3:
            b += rng.randint(0, 5 * 10**5)
        bound.append(b)
    return bound


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_is_the_oracle_on_large_and_symmetric_bounds(n):
    # The walk packs its table into fields as wide as the bound's largest
    # entry B needs: bounds of entries near 10^6, the all-zero bound, whose
    # fields are two bits wide, and bounds of entries from -3..3, on which
    # an entry minus a fixed value reaches 3B, must give the oracle's points.
    zero = [0] * (1 << n)
    assert polytopes._subset_lattice(zero, n) == subset_lattice(zero, n) == ((0,) * n,)
    rng = random.Random(f"large bounds:{n}")
    bounds = [large_bound(rng, n) for _ in range(200)]
    bounds += [[0] + [rng.randint(-3, 3) for _ in range((1 << n) - 1)] for _ in range(200)]
    empty = 0
    for k, bound in enumerate(bounds):
        points = polytopes._subset_lattice(bound, n)
        assert points == subset_lattice(bound, n), (k, bound)
        empty += not points
    assert empty < 400 and (empty > 0 or n == 1)


def test_walk_with_no_coordinates_gives_the_empty_point():
    assert polytopes._subset_lattice([0], 0) == subset_lattice([0], 0) == ((),)


def test_hypertree_sets_of_the_4x5_grid():
    t = grid_trinity(4, 5)
    report = magic_number_report(t)
    assert report["all_equal"] and report["magic_number"] == 2_624
    for code in HYPERGRAPH_CODES:
        assert len(polytopes.hypertree_set(t, code)) == 2_624, code


def test_duality_suite_of_the_3x6_grid():
    t = grid_trinity(3, 6)
    assert verify_duality_suite(t)["all_hold"]
    assert magic_number_report(t)["magic_number"] == 780
