"""Top-level acceptance gate: the headline results on the fixtures plus the
seeded random-corpus sweep, each criterion in its own test, all exact."""

import random

import pytest

from trinities.floer import canonical_translate, sfh_support, tight_contact_count
from trinities.links import (
    LaurentPoly2,
    alexander_conway,
    component_count,
    homfly_top,
    median_diagram,
    verify_homfly_h_vector,
)
from trinities.maps import Bipartition
from trinities.polytopes import (
    arborescence_triangulation,
    f_vector,
    gp_polytope_of,
    h_vector,
    hypertree_polytope_of,
    hypertree_set,
    root_polytope_of,
    trimmed_gp_of,
    verify_duality_suite,
)
from trinities.trinity import COLOUR_SELECTORS, COLOURS, RED, default_root, magic_number_report

from helpers import fig7_trinity, g1_trinity, negate, random_trinity
from oracles import tree_simplex


def test_criterion_1_magic_number_of_the_worked_example():
    report = magic_number_report(g1_trinity())
    assert report["det"] == 2
    assert report["tutte_matchings"] == 2
    assert report["arborescences"] == {"violet": 2, "emerald": 2, "red": 2}
    assert report["hypertree_counts"] == {c: 2 for c in ("VE", "EV", "ER", "RE", "RV", "VR")}
    assert report["all_equal"] and report["magic_number"] == 2


def test_criterion_2_worked_example_polytopes():
    t = g1_trinity()
    assert gp_polytope_of(t, "VE").lattice == (
        (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0),
    )
    assert set(trimmed_gp_of(t, "VE").lattice) == {(0, 1, 0), (0, 0, 1)}
    assert set(hypertree_set(t, "VE")) == {(2, 0), (1, 1)}
    assert set(gp_polytope_of(t, "EV").lattice) == {(3, 0), (2, 1), (1, 2)}
    rp = root_polytope_of(t, "VE")
    assert len(rp.vertices) == 5
    assert rp.affine_dim == 3


def test_criterion_3_worked_example_triangulations():
    t = g1_trinity()
    # Spanning trees in lexicographic order: T1..T4.
    trees_lex = ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4))
    # Face 0 is the unbounded region; its triangulation uses T1 and T4, the
    # bounded face's uses T2 and T3. Both are validated internally
    # (unimodular simplices, the ridge certificate, volume sum 2).
    by_root = {
        root: set(arborescence_triangulation(t, RED, root)) for root in (0, 1)
    }
    assert by_root[0] == {trees_lex[0], trees_lex[3]}
    assert by_root[1] == {trees_lex[1], trees_lex[2]}
    rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
    for root in (0, 1):
        tree_sets = arborescence_triangulation(t, RED, root)
        assert len([tree_simplex(rp, tree) for tree in tree_sets]) == 2


def test_criterion_4_worked_example_face_vectors():
    t = g1_trinity()
    # f(y) = y^4 + 5y^3 + 9y^2 + 7y + 2 and h(x) = x^4 + x^3.
    assert f_vector(t, RED) == (1, 5, 9, 7, 2)
    assert h_vector(t, RED) == (1, 1, 0, 0, 0)


def test_criterion_5_worked_example_link_polynomial():
    t = g1_trinity()
    rec = verify_homfly_h_vector(t)
    p = rec["homfly"]
    assert homfly_top(p) == LaurentPoly2.from_dict({(3, 0): 1, (1, 0): 1})
    ac = alexander_conway(p)
    lead = ac.z_coefficient(max(ac.z_degrees()))
    assert sum(c for _m, c in lead.coeffs) == 2  # = magic number
    # The median link bounds an annulus with two positive full twists, A_2:
    # P(A_k) = v^2 P(A_k-1) + v z from the 2-component unlink; Seifert matrix (2).
    assert p == LaurentPoly2.from_dict({(3, -1): 1, (5, -1): -1, (3, 1): 1, (1, 1): 1})
    assert ac == LaurentPoly2.from_dict({(0, 1): 2})
    # Every monomial v^a z^b of a mu-component link has a = b = mu - 1 mod 2.
    mu = component_count(median_diagram(t.map, Bipartition(t.violet, t.emerald), violet=t.violet))
    assert mu == 2
    assert all(a % 2 == b % 2 == (mu - 1) % 2 for (a, b), _c in p.coeffs)


def test_criterion_6_link_identity_on_the_worked_example():
    t = g1_trinity()
    for root in (0, 1):
        arborescence_triangulation(t, RED, root)
        rec = verify_homfly_h_vector(t)
        assert rec["holds"]
        # v^9 (v^-8 + v^-6) = v + v^3.
        assert rec["h_vector"] == (1, 1, 0, 0, 0)
        assert rec["scaled_h_of_v_minus2"] == LaurentPoly2.from_dict({(1, 0): 1, (3, 0): 1})
        assert rec["top"] == rec["scaled_h_of_v_minus2"]


def test_criterion_7_large_fixture_cross_route_equality():
    t = fig7_trinity()
    report = magic_number_report(t)
    assert report["all_equal"]
    duality = verify_duality_suite(t)
    assert all(duality["trimmed_equals_dual_hypertrees"].values())
    assert all(r["holds"] for r in duality["reflections"].values())
    sizes = {len(hypertree_set(t, code)) for code in ("VE", "ER", "RV")}
    assert sizes == {report["magic_number"]}
    assert sfh_support(t).size == report["magic_number"]


def test_criterion_8_random_corpus():
    rng = random.Random(20240824)
    for i in range(200):
        t = random_trinity(rng)
        report = magic_number_report(t)
        assert report["all_equal"], (i, report)
        magic = report["magic_number"]
        assert verify_duality_suite(t)["all_hold"], i
        rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
        tree_sets = arborescence_triangulation(t, RED, default_root(t, RED))
        assert len([tree_simplex(rp, tree) for tree in tree_sets]) == magic
        assert sfh_support(t).size == magic
        # Every corpus graph has at most 8 edges, so at most 8 crossings.
        assert verify_homfly_h_vector(t)["holds"], i


def test_criterion_9_support_routes_and_counts():
    rng = random.Random(777)
    instances = [g1_trinity(), fig7_trinity()] + [random_trinity(rng) for _ in range(25)]
    for t in instances:
        magic = magic_number_report(t)["magic_number"]
        via_er = canonical_translate(hypertree_set(t, "ER"))
        via_vr = canonical_translate(negate(hypertree_set(t, "VR")))
        assert via_er == via_vr
        support = sfh_support(t)
        assert support.points == via_er
        assert support.size == magic
        for colour in COLOURS:
            assert tight_contact_count(t, colour) == magic
