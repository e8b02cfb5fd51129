import pytest

from trinities.links import (
    DELTA,
    ONE,
    Crossing,
    CrossingCapExceeded,
    LaurentPoly2,
    LinkDiagram,
    alexander_conway,
    component_count,
    format_poly,
    homfly,
    homfly_top,
    median_diagram,
    mirror,
    pd_code,
    seifert_data,
    verify_homfly_h_vector,
)
from trinities.maps import bipartition, build_map

from helpers import fig7_map, fig7_trinity, g1_map, g1_trinity

V = LaurentPoly2.monomial


def med(m):
    return median_diagram(m, bipartition(m))


def test_unknot_from_single_edge():
    m = build_map(2, ((0, 1),), ((0,), (0,)))
    d = med(m)
    assert d.n_crossings == 1
    assert component_count(d) == 1
    assert homfly(d) == ONE


def test_positive_hopf_link_from_double_edge():
    m = build_map(2, ((0, 1), (0, 1)), ((0, 1), (1, 0)))
    d = med(m)
    assert component_count(d) == 2
    assert d.writhe() == 2
    # (v - v^3) z^-1 + v z
    assert homfly(d) == LaurentPoly2.from_dict({(1, -1): 1, (3, -1): -1, (1, 1): 1})


def test_right_handed_trefoil_from_triple_edge():
    m = build_map(2, ((0, 1), (0, 1), (0, 1)), ((0, 1, 2), (2, 1, 0)))
    d = med(m)
    assert component_count(d) == 1
    # -v^4 + 2 v^2 + v^2 z^2
    assert homfly(d) == LaurentPoly2.from_dict({(4, 0): -1, (2, 0): 2, (2, 2): 1})


def test_g1_median_link_polynomial():
    d = med(g1_map())
    assert d.n_crossings == 5
    assert component_count(d) == 2
    p = homfly(d)
    # (v^3 - v^5) z^-1 + v^3 z + v z
    assert p == LaurentPoly2.from_dict({(3, -1): 1, (5, -1): -1, (3, 1): 1, (1, 1): 1})
    assert homfly_top(p) == LaurentPoly2.from_dict({(3, 0): 1, (1, 0): 1})
    ac = alexander_conway(p)
    assert ac == LaurentPoly2.from_dict({(0, 1): 2})
    # Its leading coefficient is the magic number of the graph.
    assert ac.z_coefficient(max(ac.z_degrees())) == LaurentPoly2.monomial(2)


def test_mirror_rule():
    # P_mirror(v, z) = P(v^-1, -z).
    for m in (g1_map(), build_map(2, ((0, 1), (0, 1)), ((0, 1), (1, 0)))):
        d = med(m)
        p = homfly(d)
        q = homfly(mirror(d))
        flipped = LaurentPoly2.from_dict(
            {(-v, z): c * ((-1) ** z) for (v, z), c in p.coeffs}
        )
        assert q == flipped


def test_split_factor_on_descending_unlink():
    # Two disjoint unknot kinks: one free circle plus one kinked circle.
    c = Crossing(sign=1, over_in=0, over_out=1, under_in=1, under_out=0)
    d = LinkDiagram(crossings=(c,), free_circles=1)
    assert homfly(d) == DELTA


def test_reidemeister_one_invariance():
    # The median diagram of the path e-v-e reduces to the unknot.
    m = build_map(3, ((0, 1), (2, 1)), ((0,), (0, 1), (1,)))
    d = med(m)
    assert d.n_crossings == 2
    assert homfly(d) == ONE


def test_crossing_cap():
    d = med(g1_map())
    with pytest.raises(CrossingCapExceeded):
        homfly(d, crossing_cap=4)
    assert homfly(d, crossing_cap=5) == homfly(d)


def test_top_falls_back_when_leading_z_coefficient_vanishes_at_one():
    p = LaurentPoly2.from_dict({(1, 2): 1, (3, 2): -1, (1, 1): 1})
    assert homfly_top(p) == LaurentPoly2.monomial(1, 1)


def test_format_poly():
    p = LaurentPoly2.from_dict({(4, 0): 1, (3, 1): 1, (1, 1): 1})
    assert format_poly(p) == "v^4 + v^3 z + v z"
    assert format_poly(LaurentPoly2.from_dict({(5, -1): -1, (0, 0): 2})) == "-v^5 z^-1 + 2"
    assert format_poly(LaurentPoly2.from_dict({})) == "0"


def test_pd_code_is_deterministic():
    d = med(g1_map())
    code = pd_code(d)
    assert code == pd_code(med(g1_map()))
    lines = code.splitlines()
    assert len(lines) == 5
    assert all(line.endswith("+") for line in lines)
    assert lines[0] == "X(1,3,0,0) +"


def test_seifert_data():
    assert seifert_data(g1_trinity()) == {
        "components": 2,
        "euler_characteristic": 0,
        "genus": 0,
        "seifert_circles": 5,
        "writhe": 5,
    }
    data = seifert_data(fig7_trinity())
    assert data["components"] == 2
    assert data["genus"] == 1
    assert data["writhe"] == 11


def test_fig7_median_diagram_size():
    d = med(fig7_map())
    assert d.n_crossings == 11
    assert all(c.sign == 1 for c in d.crossings)


def test_top_matches_h_polynomial_for_both_roots():
    t = g1_trinity()
    for root in (0, 1):
        record = verify_homfly_h_vector(t, root=root)
        assert record["holds"]
        assert record["h_vector"] == (1, 1, 0, 0, 0)
        assert record["scaled_h_of_v_minus2"] == LaurentPoly2.from_dict({(3, 0): 1, (1, 0): 1})
