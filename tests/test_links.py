import pkgutil
import random
from importlib import import_module
from itertools import chain, combinations, permutations

import pytest

import trinities
from trinities import links
from trinities.links import (
    Crossing,
    CrossingCapExceeded,
    LaurentPoly2,
    LinkDiagram,
    alexander_conway,
    component_count,
    format_poly,
    gauss_code,
    homfly,
    homfly_top,
    median_diagram,
    median_diagram_of,
    pd_code,
    seifert_data,
    verify_homfly_h_vector,
)
from trinities.maps import build_map
from trinities.polytopes import arborescence_triangulation
from trinities.trinity import RED

from helpers import (
    FIXTURES,
    bipartition,
    case_id,
    count_calls,
    fig7_map,
    fig7_trinity,
    g1_map,
    g1_trinity,
    graphs,
    grid_trinity,
    mirror,
    permute_edge_ids,
    random_trinity,
    switched,
)
import oracles
from oracles import DELTA, ONE, homfly_by_recursion, homfly_by_relabeling, homfly_by_rereading

def monomial(coeff=1, v=0, z=0):
    return LaurentPoly2.from_dict({(v, z): coeff})


V = monomial


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
    assert ac.z_coefficient(max(ac.z_degrees())) == monomial(2)


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
    assert homfly_top(p) == monomial(1, 1)


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
        arborescence_triangulation(t, RED, root)
        record = verify_homfly_h_vector(t)
        assert record["holds"]
        assert record["h_vector"] == (1, 1, 0, 0, 0)
        assert record["scaled_h_of_v_minus2"] == LaurentPoly2.from_dict({(3, 0): 1, (1, 0): 1})


# ---------------------------------------------------------------------------
# The Gauss-code skein and its splices.
# ---------------------------------------------------------------------------

TREFOIL = LaurentPoly2.from_dict({(4, 0): -1, (2, 0): 2, (2, 2): 1})


def braid_closure(n_strands, word):
    """Closed braid diagram, read bottom to top with every strand oriented
    upwards: generator i > 0 crosses the strand at position i - 1 over the
    one at position i (a positive crossing), -i the other way round. Every
    position must meet a crossing."""
    arcs = list(range(n_strands))
    fresh = n_strands
    crossings = []
    for g in word:
        i = abs(g) - 1
        left, right = arcs[i], arcs[i + 1]
        arcs[i], arcs[i + 1] = fresh + 1, fresh  # the strands swap positions
        if g > 0:
            crossings.append(Crossing(1, over_in=left, over_out=fresh, under_in=right, under_out=fresh + 1))
        else:
            crossings.append(Crossing(-1, over_in=right, over_out=fresh + 1, under_in=left, under_out=fresh))
        fresh += 2
    closing = {arcs[p]: p for p in range(n_strands)}  # the top of each position meets its bottom

    def close(a):
        return closing.get(a, a)

    return LinkDiagram(
        tuple(Crossing(c.sign, close(c.over_in), close(c.over_out), close(c.under_in), close(c.under_out)) for c in crossings)
    )


def with_signs_switched(d, every):
    return LinkDiagram(
        tuple(switched(c) if i % every == 0 else c for i, c in enumerate(d.crossings)), d.free_circles
    )


def test_gauss_code_reads_each_component_from_its_smallest_arc():
    # Crossing 0: arc 3 over to 0, arc 1 under to 2; crossing 1: arc 2 over
    # to 1, arc 0 under to 3. Arc 0 starts the component of arcs 0 and 3,
    # arc 1 the component of arcs 1 and 2.
    d = LinkDiagram((Crossing(1, 3, 0, 1, 2), Crossing(1, 2, 1, 0, 3)))
    assert gauss_code(d) == [(3, 0), (1, 2)]
    assert component_count(d) == 2


def test_braid_closures_give_the_trefoil_and_the_figure_eight():
    # The construction of the hand-built diagrams below, checked on known
    # polynomials: the right-handed trefoil and the amphichiral figure eight.
    assert homfly(braid_closure(2, (1, 1, 1))) == TREFOIL
    assert homfly(braid_closure(2, (-1, -1, -1))) == homfly(mirror(braid_closure(2, (1, 1, 1))))
    figure_eight = braid_closure(3, (1, -2, 1, -2))
    assert component_count(figure_eight) == 1
    assert homfly(figure_eight) == LaurentPoly2.from_dict({(-2, 0): 1, (0, 0): -1, (2, 0): 1, (0, 2): -1})
    assert homfly(figure_eight) == homfly(mirror(figure_eight)) == homfly_by_relabeling(figure_eight)


def test_a_kink_across_the_start_of_a_component_is_dropped():
    # Crossing 3 is a kink on the arc that starts the trefoil's component:
    # its visits are the first and the last (k = 0).
    comps, free = links._drop_kinks([(7, 0, 3, 4, 1, 2, 5, 6)], 0)
    assert (comps, free) == ([(0, 3, 4, 1, 2, 5)], 0)
    # That code is the trefoil braid stabilized by a kink, of either sign,
    # between the first two strands, where the component starts.
    for sign in (1, -1):
        d = braid_closure(3, (2, 2, 2, sign))
        assert gauss_code(d) == [(6 if sign > 0 else 7, 0, 3, 4, 1, 2, 5, 7 if sign > 0 else 6)]
        assert homfly(d) == homfly_by_relabeling(d) == TREFOIL


def test_nested_kinks_that_empty_a_component_leave_a_free_circle():
    assert links._drop_kinks([(0, 2, 3, 1), (5, 4)], 0) == ([], 2)
    assert links._drop_kinks([(0, 2, 3, 1), (4, 7), (6, 5)], 1) == ([(4, 7), (6, 5)], 2)
    # A kinked unknot beside a trefoil: the split union.
    kink = Crossing(1, over_in=10, over_out=11, under_in=11, under_out=10)
    d = braid_closure(2, (1, 1, 1))
    d = LinkDiagram((kink,) + d.crossings)
    assert gauss_code(d) == [(2, 5, 6, 3, 4, 7), (0, 1)]
    assert homfly(d) == homfly_by_relabeling(d) == TREFOIL * DELTA


def test_smoothing_one_component_splits_it_and_keeps_its_start():
    # The trefoil O0 U1 O2 U0 O1 U2 smoothed at crossing 0 is a Hopf link.
    assert oracles._smoothed([(0, 3, 4, 1, 2, 5)], 0) == [(2, 5), (3, 4)]
    assert links._smoothing([(0, 3, 4, 1, 2, 5)], 0, 0, 0, 1) == ([(2, 5), (3, 4)], 0, 0, 0)
    # Crossing 1 lies inside: the start (visit 6) stays first.
    assert oracles._smoothed([(9, 6, 3, 8, 2, 7)], 1) == [(9, 6, 7), (8,)]
    # The splice cancels the kink 6 7 at its junction, and the reading
    # resumes after the one visit left of the prefix 9 6.
    assert links._smoothing([(9, 6, 3, 8, 2, 7)], 0, 0, 2, 2) == ([(9,), (8,)], 0, 0, 1)


def test_smoothing_two_components_joins_them_at_the_first_ones_start():
    assert oracles._smoothed([(5,), (2, 0, 7), (4, 1, 3)], 0) == [(5,), (2, 3, 4, 7)]
    # The splice also cancels the kink 2 3 at its first junction, so the
    # reading resumes at the start of the joined component.
    assert links._smoothing([(5,), (2, 0, 7), (4, 1, 3)], 0, 1, 1, 1) == ([(5,), (4, 7)], 0, 1, 0)
    # The Hopf link's smoothing is a kinked unknot.
    assert oracles._smoothed([(0, 3), (1, 2)], 0) == [(2, 3)]
    assert homfly(braid_closure(2, (1, 1))) == homfly_by_relabeling(braid_closure(2, (1, 1)))


def rebuilt(comps, free, c):
    """The smoothing of crossing c with the whole code re-read for kinks."""
    return links._drop_kinks(oracles._smoothed(comps, c), free)


def test_a_join_that_cancels_to_nothing_is_a_free_circle():
    # The Hopf link read from its start meets crossing 1 under-first at
    # (0, 1): the join 0 + 1 is the kink 0 1, and nothing is left.
    assert links._smoothing([(0, 3), (1, 2)], 0, 0, 1, 2) == ([], 1, 0, 0)
    # 2 4 U0 joined with b = O0 5 3: the cascade cancels 4 5, then 2 3.
    comps = [(2, 4, 1), (0, 5, 3)]
    assert links._smoothing(comps, 2, 0, 2, 0) == ([], 3, 0, 0)
    assert links._smoothing(comps, 2, 0, 2, 0)[:2] == rebuilt(comps, 2, 0)


def test_a_join_cascade_uses_up_the_tail_of_b_and_carries_on_into_its_head():
    # a = 6 2 4 U0 8 meets b = 3 O0 5: b's tail 5 cancels 4, then its head 3
    # cancels 2, and 6 8 is left; the reading resumes after the 6.
    comps = [(6, 2, 4, 1, 8), (3, 0, 5), (7, 9)]
    assert links._smoothing(comps, 0, 0, 3, 0) == ([(6, 8), (7, 9)], 0, 0, 1)
    assert links._smoothing(comps, 0, 0, 3, 0)[:2] == rebuilt(comps, 0, 0)
    # a = 8 2 4 U0 7 3 10 meets b = O0 5 6: b's 5 cancels 4 and its 6 the 7
    # after the splice, so 2 meets 3 and cancels too; one visit of the
    # prefix is left.
    comps = [(8, 2, 4, 1, 7, 3, 10), (0, 5, 6), (9, 11)]
    assert links._smoothing(comps, 0, 0, 3, 0) == ([(8, 10), (9, 11)], 0, 0, 1)
    assert links._smoothing(comps, 0, 0, 3, 0)[:2] == rebuilt(comps, 0, 0)


def test_a_split_cascade_takes_the_whole_prefix():
    # 2 4 U0 6 O0 5 3 7: the junction cancels 4 5 and 2 3, and the piece
    # that keeps the start is 7; the reading resumes at its start.
    comps = [(2, 4, 1, 6, 0, 5, 3, 7)]
    assert links._smoothing(comps, 0, 0, 2, 0) == ([(7,), (6,)], 0, 0, 0)
    assert links._smoothing(comps, 0, 0, 2, 0)[:2] == rebuilt(comps, 0, 0)


def test_a_trim_past_the_prefix_resumes_at_the_start():
    # U1 4 O1 6 5 7: the kept piece 6 5 7 trims its ends 6 and 7, one visit
    # more than the empty prefix; the reading resumes at 0, not at -1 (which
    # would read the last visit first).
    comps = [(3, 4, 2, 6, 5, 7)]
    assert links._smoothing(comps, 0, 0, 0, 2) == ([(5,), (4,)], 0, 0, 0)
    assert links._smoothing(comps, 0, 0, 0, 2)[:2] == rebuilt(comps, 0, 1)
    # Joined: a = U3 alone meets b at O3, and the joined word
    # 10 9 4 3 5 11 trims its ends 10 and 11, one visit more than a's empty
    # prefix.
    comps = [(8, 2), (7,), (11, 6, 10, 9, 4, 3, 5)]
    assert links._smoothing(comps, 0, 1, 0, 6) == ([(8, 2), (9, 4, 3, 5)], 0, 1, 0)
    assert links._smoothing(comps, 0, 1, 0, 6)[:2] == rebuilt(comps, 0, 3)


def kink_free(visits, cuts):
    ends = (0, *cuts, len(visits))
    return links._drop_kinks([tuple(visits[a:b]) for a, b in zip(ends, ends[1:])], 0)


def every_small_code(n):
    """Every code of n crossings on at most three components, its kinks
    dropped."""
    for visits in permutations(range(2 * n)):
        for cuts in chain.from_iterable(combinations(range(1, 2 * n), r) for r in range(3)):
            yield kink_free(visits, cuts)


def random_codes(seed):
    """600 codes of 4 to 7 crossings on at most four components, their
    kinks dropped."""
    rng = random.Random(f"codes:{seed}")
    for _ in range(600):
        n = rng.randint(4, 7)
        yield kink_free(rng.sample(range(2 * n), 2 * n), sorted(rng.sample(range(1, 2 * n), rng.randint(0, 3))))


@pytest.mark.parametrize("codes,arg", (("every", 1), ("every", 2), ("every", 3), ("random", 0), ("random", 1)))
def test_the_splice_is_the_whole_code_rebuilt(codes, arg):
    # At every visit whose other visit lies later, as the reading meets
    # them: the code and free circles of dropping every kink of the whole
    # smoothed code, a split never emptying a piece, and a resume place
    # before which the edited component holds only visits of the prefix.
    for comps, free in every_small_code(arg) if codes == "every" else random_codes(arg):
        for i, a in enumerate(comps):
            for k1, v in enumerate(a):
                if v ^ 1 in a[:k1] or any(v ^ 1 in b for b in comps[:i]):
                    continue
                child, child_free, ci, ck = links._smoothing(comps, free, i, k1, v ^ 1)
                assert (child, child_free) == rebuilt(comps, free, v >> 1)
                assert ci == i and ck >= 0
                if v ^ 1 in a:
                    assert child_free == free
                if ci < len(child):
                    assert set(child[ci][:ck]) <= set(a[:k1])


@pytest.fixture
def skein_counts(monkeypatch):
    """The library's skein children (one ``_smoothing`` each, beside the
    root) and the leaves of the Gauss-code recursion oracle (one
    ``_split_factor`` each)."""
    return count_calls(monkeypatch, links, "_smoothing"), count_calls(monkeypatch, oracles, "_split_factor")


def assert_agrees_with_the_oracles(skein_counts, d):
    """Both oracle skeins give the library's polynomial, and the library
    visits one node per leaf of the recursion: one node per chain of its
    switch children."""
    children, leaves = skein_counts
    children.clear()
    leaves.clear()
    p = homfly(d, crossing_cap=d.n_crossings)
    assert p == homfly_by_recursion(d)
    assert len(children) + 1 == len(leaves)
    assert p == homfly_by_relabeling(d)
    return p


@pytest.mark.parametrize("every", (1, 2, 3))
def test_negative_crossings_agree_with_the_oracle(every, skein_counts):
    d = with_signs_switched(median_diagram_of(fig7_trinity()), every)
    assert any(c.sign < 0 for c in d.crossings)
    p = assert_agrees_with_the_oracles(skein_counts, d)
    flipped = LaurentPoly2.from_dict({(-v, z): c * ((-1) ** z) for (v, z), c in p.coeffs})
    assert assert_agrees_with_the_oracles(skein_counts, mirror(d)) == flipped


@pytest.mark.parametrize("case", FIXTURES, ids=case_id)
def test_skein_is_the_relabeling_oracle_on_fixtures(case, skein_counts):
    (t,) = graphs(case)
    d = median_diagram_of(t)
    for dd in (d, mirror(d)):
        assert_agrees_with_the_oracles(skein_counts, dd)


@pytest.mark.parametrize("chunk", range(4))
def test_skein_is_the_relabeling_oracle_on_random_diagrams(chunk, skein_counts):
    rng = random.Random(4400 + chunk)
    for _ in range(50):
        d = median_diagram_of(random_trinity(rng))
        for dd in (d, mirror(d)):
            assert_agrees_with_the_oracles(skein_counts, dd)


@pytest.mark.parametrize("strands", (2, 3, 4))
def test_skein_is_the_recursion_on_random_braid_closures(strands, skein_counts):
    # Off the median diagrams: mixed signs, several components read in
    # order, crossings met under-first on either strand, kinks and joins.
    rng = random.Random(f"braids:{strands}")
    for _ in range(150):
        word = [rng.choice((1, -1)) * g for g in range(1, strands)]  # every position meets a crossing
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10 - strands))]
        rng.shuffle(word)
        d = braid_closure(strands, tuple(word))
        for dd in (d, mirror(d)):
            assert_agrees_with_the_oracles(skein_counts, dd)


@pytest.mark.parametrize("rows,columns", ((2, 3), (2, 4), (3, 3), (3, 4)))
def test_skein_is_the_relabeling_oracle_on_grids_with_shuffled_edge_ids(rows, columns, skein_counts):
    m = grid_trinity(rows, columns).map
    rng = random.Random(f"skein:{rows}x{columns}")
    for mm in (m, permute_edge_ids(m, rng), permute_edge_ids(m, rng)):
        assert_agrees_with_the_oracles(skein_counts, median_diagram(mm, bipartition(mm)))


@pytest.mark.parametrize("rows,columns", ((3, 5), (4, 4)))
def test_skein_is_the_rereading_skein_on_the_largest_grids(rows, columns, monkeypatch):
    # The benchmark's largest rungs, their mirrors and two shuffled edge-id
    # labelings of each: the same polynomial and the same nodes as the skein
    # that drops the kinks of each node's whole code and reads it from its
    # start (one ``_drop_kinks`` per node there).
    children = count_calls(monkeypatch, links, "_smoothing")
    nodes = []
    rereading_drop_kinks = oracles._drop_kinks
    monkeypatch.setattr(oracles, "_drop_kinks", lambda *args: nodes.append(args) or rereading_drop_kinks(*args))
    m = grid_trinity(rows, columns).map
    rng = random.Random(f"rereading:{rows}x{columns}")
    for mm in (m, permute_edge_ids(m, rng), permute_edge_ids(m, rng)):
        d = median_diagram(mm, bipartition(mm))
        for dd in (d, mirror(d)):
            children.clear()
            nodes.clear()
            assert homfly(dd, crossing_cap=dd.n_crossings) == homfly_by_rereading(dd)
            assert len(children) + 1 == len(nodes)


def test_skein_keeps_base_points_on_the_3x5_grid(monkeypatch):
    # Each splice keeps the start of the component it edits, so the reading
    # order stays put: 3,220 skein nodes on 3x5, the leaves of a 6,439-node
    # recursion that switches one crossing per node; the arc-label recursion
    # takes 39,279, and moving a start at each splice far more. A node is
    # the root or one ``_smoothing`` child.
    children = count_calls(monkeypatch, links, "_smoothing")
    for rows, columns, nodes in ((3, 4, 423), (3, 5, 3_220), (4, 4, 7_530)):
        children.clear()
        d = median_diagram_of(grid_trinity(rows, columns))
        homfly(d, crossing_cap=d.n_crossings)
        assert 1 + len(children) == nodes


@pytest.mark.parametrize("rows,columns,magic", ((3, 5, 209), (4, 4, 384)))
def test_conway_leading_coefficient_is_the_magic_number_on_large_grids(rows, columns, magic):
    p = homfly(median_diagram_of(grid_trinity(rows, columns)), crossing_cap=rows * columns + 9)
    ac = alexander_conway(p)
    assert ac.z_coefficient(max(ac.z_degrees())) == monomial(magic)


def test_top_matches_h_polynomial_on_the_3x5_grid():
    assert verify_homfly_h_vector(grid_trinity(3, 5), crossing_cap=22)["holds"]


def test_no_library_module_relabels_arcs():
    # The arc-relabeling skein lives in the test oracles only.
    names = ("_remove_r1", "_relabel", "_first_ascending", "_smooth")
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not [name for name in names if hasattr(module, name)], info.name
