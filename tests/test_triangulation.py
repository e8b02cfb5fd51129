"""The arborescence triangulations' certificate and kernels against their
oracles: the ridge certificate against Postnikov's Lemma 12.6 on every pair
of trees of mutated tree sets, the whole certificate (ridges and one generic
point) against unit volumes, the placing volume and the ridges on more
mutated sets, the generic point's sign rule against exact barycentric
coordinates, Lemma 12.6 against the common-face LP, the placing volume
against the hypertree count, Lemma 12.5 (unit tree and placing simplices),
the f-vector read off the interior polynomial against the faces' vertex
sets, the interior polynomial under permuted coordinates and on both sides,
and a bad tree pair against the triangulation's check. ``report`` and
``verify`` solve no LP, build no rational vector, check no pair of trees,
compute no volume and count no face."""

import pkgutil
import random
import re
from collections import Counter
from importlib import import_module, resources
from itertools import combinations

import pytest

import trinities
from trinities import geometry, linalg, polytopes
from trinities.cli import EXIT_OK, main
from trinities.maps import build_map
from trinities.polytopes import ridge_certificate, root_polytope_of
from trinities.trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    colour_graph,
    default_root,
    directed_dual,
)

from helpers import (
    count_calls_everywhere,
    enumerate_trees_as,
    fig7_trinity,
    g1_trinity,
    grid_trinity,
    random_trinity,
    single_edge_trinity,
    uncertified_trees,
)
from oracles import (
    generic_point,
    intersect_in_common_face,
    placing_triangulation,
    root_polytope,
    simplex_holds_point,
    simplex_normalized_volume,
    spanning_trees_of_map,
    total_normalized_volume,
    tree_simplex,
    tree_simplices_meet_in_common_face,
)

RIDGE_FAILURE = "triangulation (boundary|interior) ridge"
POINT_FAILURE = "triangulation covers a generic point"

FIXTURES = [single_edge_trinity, g1_trinity, fig7_trinity]
GRIDS = [(2, 3), (2, 4), (3, 3), (2, 5), (3, 4)]


def corpus(chunk):
    # The same seeded corpus as test_random_properties.
    rng = random.Random(9000 + chunk)
    return [random_trinity(rng) for _ in range(20)]


def tree_pairs(t, colour, limit=None):
    """Pairs of spanning trees of the colour graph: all of them, or a seeded
    sample of ``limit``."""
    pairs = list(combinations(spanning_trees_of_map(colour_graph(t, colour)[0]), 2))
    if limit is not None and len(pairs) > limit:
        pairs = random.Random(len(pairs)).sample(pairs, limit)
    return pairs


def lemma_disagreements(t, limit=None):
    """(pairs checked, pairs not meeting in a common face, disagreements)."""
    checked = failing = 0
    wrong = []
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        for t1, t2 in tree_pairs(t, colour, limit):
            lp = intersect_in_common_face(tree_simplex(rp, t1), tree_simplex(rp, t2))
            if tree_simplices_meet_in_common_face(rp, t1, t2) != lp:
                wrong.append((colour, t1, t2))
            checked += 1
            failing += not lp
    return checked, failing, wrong


@pytest.mark.parametrize("build", FIXTURES)
def test_lemma_12_6_agrees_with_the_lp_on_fixture_tree_pairs(build):
    checked, failing, wrong = lemma_disagreements(build(), limit=150)
    assert not wrong
    if build is not single_edge_trinity:
        # Both answers occur: the lemma is not vacuously true here.
        assert 0 < failing < checked


@pytest.mark.parametrize("chunk", range(10))
def test_lemma_12_6_agrees_with_the_lp_on_corpus_tree_pairs(chunk):
    for t in corpus(chunk):
        assert not lemma_disagreements(t)[2]


def assert_placing_volume_is_the_hypertree_count(t):
    for code in HYPERGRAPH_CODES:
        rp = root_polytope_of(t, code)
        assert total_normalized_volume(rp.vertices) == len(polytopes.hypertree_set(t, code)), code


@pytest.mark.parametrize("build", FIXTURES)
def test_placing_volume_is_the_hypertree_count_on_fixtures(build):
    assert_placing_volume_is_the_hypertree_count(build())


@pytest.mark.parametrize("chunk", range(10))
def test_placing_volume_is_the_hypertree_count_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert_placing_volume_is_the_hypertree_count(t)


def assert_tree_and_placing_simplices_are_unimodular(t):
    # Postnikov's Lemma 12.5, which the library takes as a theorem.
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        for tree in spanning_trees_of_map(colour_graph(t, colour)[0]):
            assert simplex_normalized_volume(tree_simplex(rp, tree)) == 1, (colour, tree)
        for s in placing_triangulation(rp.vertices):
            assert simplex_normalized_volume([rp.vertices[i] for i in s]) == 1, (colour, s)


@pytest.mark.parametrize("build", FIXTURES)
def test_tree_and_placing_simplices_are_unimodular_on_fixtures(build):
    assert_tree_and_placing_simplices_are_unimodular(build())


@pytest.mark.parametrize("chunk", range(10))
def test_tree_and_placing_simplices_are_unimodular_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert_tree_and_placing_simplices_are_unimodular(t)


def assert_the_sign_rule_finds_the_generic_point(t):
    """Per spanning tree, the certificate's count on that tree alone against
    exact barycentric coordinates of the point at eps = 1/3."""
    held = 0
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        p = generic_point(rp)
        for tree in spanning_trees_of_map(colour_graph(t, colour)[0]):
            holds = simplex_holds_point(tree_simplex(rp, tree), p)
            assert polytopes._certificate_pass(rp, (tree,))[1] == holds, (colour, tree)
            held += holds
    return held


@pytest.mark.parametrize("build", FIXTURES)
def test_the_sign_rule_finds_the_generic_point_on_fixtures(build):
    assert assert_the_sign_rule_finds_the_generic_point(build()) >= len(COLOURS)


@pytest.mark.parametrize("chunk", range(10))
def test_the_sign_rule_finds_the_generic_point_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert assert_the_sign_rule_finds_the_generic_point(t) >= len(COLOURS)


def face_counts(simplices):
    """The f-vector from the vertex sets of every face of every simplex."""
    faces = {frozenset(sub) for s in simplices for k in range(len(s) + 1) for sub in combinations(s, k)}
    return tuple(sum(1 for f in faces if len(f) == k) for k in range(len(simplices[0]) + 1))


def f_vector_cases(case):
    """(trinity, colour, root) of triangulations whose f-vector, read off the
    interior polynomial, is compared with their faces: every colour at the
    default root of a corpus chunk, every root of every colour of the
    fixtures, and the red default root of the plane grids 2x3 to 3x4."""
    if case == "fixtures":
        for build in FIXTURES:
            t = build()
            for colour in COLOURS:
                for root in directed_dual(t, colour).vertices:
                    yield t, colour, root
    elif case == "grids":
        for rows, columns in GRIDS:
            t = grid_trinity(rows, columns)
            yield t, RED, default_root(t, RED)
    else:
        for t in corpus(case):
            for colour in COLOURS:
                yield t, colour, default_root(t, colour)


@pytest.mark.parametrize("case", [*range(10), "fixtures", "grids"])
def test_f_vector_counts_the_faces_of_the_tree_simplices(case):
    for t, colour, root in f_vector_cases(case):
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        simplices = [tree_simplex(rp, tree) for tree in polytopes.arborescence_triangulation(t, colour, root)]
        assert polytopes.f_vector(t, colour) == face_counts(simplices)
        assert polytopes.f_vector(t, colour) is polytopes.f_vector(t, colour)
        assert polytopes.h_vector(t, colour) is polytopes.h_vector(t, colour)


@pytest.mark.parametrize("chunk", range(10))
def test_the_interior_polynomial_ignores_the_coordinate_order_and_the_side(chunk):
    rng = random.Random(chunk)
    for t in corpus(chunk):
        for code in HYPERGRAPH_CODES:
            points = polytopes.hypertree_set(t, code)
            interior = polytopes.interior_polynomial(points)
            assert sum(interior) == len(points) and interior[0] == 1, code
            # I_H = I_{H^T} (Kalman and Postnikov, 2017).
            assert polytopes.interior_polynomial(polytopes.hypertree_set(t, code[::-1])) == interior, code
            order = list(range(len(points[0])))
            for _ in range(3):
                rng.shuffle(order)
                permuted = {tuple(p[i] for i in order) for p in points}
                assert polytopes.interior_polynomial(permuted) == interior, (code, order)


def test_a_repeated_tree_fails_the_h_vector(monkeypatch):
    # A dropped, an added or a repeated tree: the trees' hypertrees are then
    # not the hypertree set, each once, and the trees no triangulation. The
    # added tree is one of another root's, a spanning tree with a hypertree
    # of its own. h_vector reads only certified trees, so it raises.
    t = g1_trinity()
    trees_at, other = (polytopes.arborescence_triangulation(t, RED, root) for root in (0, 1))
    assert default_root(t, RED) == 0 and not set(trees_at) & set(other)
    for mutated in (trees_at[1:], trees_at + other[:1], trees_at + trees_at[:1]):
        enumerate_trees_as(monkeypatch, t, RED, 0, mutated)
        with pytest.raises(InternalConsistencyError, match=f"{RIDGE_FAILURE}|hypertrees are not the hypertree set"):
            polytopes.h_vector(g1_trinity(), RED)


@pytest.mark.parametrize("rows, columns, magic", [(3, 6, 780), (4, 5, 2_624)])
def test_the_h_vector_of_a_large_grid_sums_to_the_magic_number(rows, columns, magic):
    t = grid_trinity(rows, columns)
    assert sum(polytopes.h_vector(t, RED)) == polytopes.f_vector(t, RED)[-1] == magic


def test_a_bad_tree_pair_fails_the_triangulation(monkeypatch):
    t = g1_trinity()
    rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
    bad = next(
        (t1, t2)
        for t1, t2 in tree_pairs(t, RED)
        if not intersect_in_common_face(tree_simplex(rp, t1), tree_simplex(rp, t2))
    )
    assert not tree_simplices_meet_in_common_face(rp, *bad)
    enumerate_trees_as(monkeypatch, t, RED, default_root(t, RED), bad)
    with pytest.raises(InternalConsistencyError, match=RIDGE_FAILURE):
        polytopes.arborescence_triangulation(t, RED, default_root(t, RED))


def certificate_accepts(rp, tree_sets):
    try:
        ridge_certificate(rp, tree_sets)
    except InternalConsistencyError as error:
        assert re.match(RIDGE_FAILURE, str(error))
        return False
    return True


def pairwise_accepts(rp, tree_sets):
    """The checks the certificate replaces: no simplex repeats, and Lemma
    12.6 holds on every pair of trees."""
    simplices = [tree_simplex(rp, tr) for tr in tree_sets]
    return len(set(simplices)) == len(simplices) and all(
        tree_simplices_meet_in_common_face(rp, t1, t2) for t1, t2 in combinations(tree_sets, 2)
    )


def mutation_verdicts(t, rng):
    """(certificate, pairwise oracle) verdicts on three seeded random
    single-tree swaps, and a duplication when there are two trees or more, of
    the tree set at every root of every colour. Each keeps the number of
    unit simplices at the volume, so a set whose ridges pass covers the
    generic point once, and the two verdicts must agree."""
    verdicts = []
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        spanning = spanning_trees_of_map(colour_graph(t, colour)[0])
        for root in directed_dual(t, colour).vertices:
            tree_sets = uncertified_trees(t, colour, root)
            mutated = []
            for _ in range(3):
                i = rng.randrange(len(tree_sets))
                mutated.append(tree_sets[:i] + (rng.choice(spanning),) + tree_sets[i + 1 :])
            if len(tree_sets) > 1:
                j = rng.choice([k for k in range(len(tree_sets)) if k != i])
                mutated.append(tree_sets[:j] + (tree_sets[i],) + tree_sets[j + 1 :])
            verdicts += [(certificate_accepts(rp, m), pairwise_accepts(rp, m)) for m in mutated]
    return verdicts


def test_ridge_certificate_agrees_with_lemma_12_6_on_mutated_corpus_tree_sets():
    rng = random.Random(7000)
    verdicts = [v for chunk in range(10) for t in corpus(chunk) for v in mutation_verdicts(t, rng)]
    assert [v for v in verdicts if v[0] != v[1]] == []
    # Both answers occur often: the agreement is not vacuous.
    rejected = sum(1 for certificate, _ in verdicts if not certificate)
    assert 500 < rejected < len(verdicts) - 500


def mutated_tree_sets(t, colour, rng):
    """The tree set at every root of the colour, and seeded mutations of it:
    a tree swapped for a random spanning tree, a tree dropped, a random
    spanning tree added, a tree repeated, and the union with the next root's
    set."""
    spanning = spanning_trees_of_map(colour_graph(t, colour)[0])
    roots = directed_dual(t, colour).vertices
    for k, root in enumerate(roots):
        tree_sets = uncertified_trees(t, colour, root)
        i = rng.randrange(len(tree_sets))
        yield tree_sets
        yield tree_sets[:i] + (rng.choice(spanning),) + tree_sets[i + 1 :]
        yield tree_sets[:i] + tree_sets[i + 1 :]
        yield tree_sets + (rng.choice(spanning),)
        yield tree_sets + (tree_sets[i],)
        yield tree_sets + uncertified_trees(t, colour, roots[(k + 1) % len(roots)])


def certificate_verdicts(rp, tree_sets):
    """(whether the ridge part of the certificate passes, whether all of it
    does). The ridges are checked before the point."""
    try:
        ridge_certificate(rp, tree_sets)
    except InternalConsistencyError as error:
        assert re.match(f"{RIDGE_FAILURE}|{POINT_FAILURE}", str(error))
        return re.match(POINT_FAILURE, str(error)) is not None, False
    return True, True


def volume_oracle_verdicts(t, rng):
    """(certificate, oracle, ridge part) verdicts on mutated tree sets at
    every root of every colour. The oracle is the checks the generic point
    replaces: unit simplices, as many as the placing volume, and the ridges."""
    verdicts = []
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        volume = total_normalized_volume(rp.vertices)
        for tree_sets in mutated_tree_sets(t, colour, rng):
            ridges, accepted = certificate_verdicts(rp, tree_sets)
            unit = all(simplex_normalized_volume(tree_simplex(rp, tree)) == 1 for tree in tree_sets)
            verdicts.append((accepted, ridges and unit and len(tree_sets) == volume, ridges))
    return verdicts


def test_the_certificate_accepts_what_the_volume_oracle_accepts():
    rng = random.Random(7100)
    graphs = [build() for build in FIXTURES] + [t for chunk in range(10) for t in corpus(chunk)]
    verdicts = [v for t in graphs for v in volume_oracle_verdicts(t, rng)]
    assert [v for v in verdicts if v[0] != v[1]] == []
    accepted = sum(1 for certificate, _oracle, _ridges in verdicts if certificate)
    assert 1000 < accepted < len(verdicts) - 1000
    # The point decides some sets the ridges pass: the single edge's empty set.
    assert any(ridges and not certificate for certificate, _oracle, ridges in verdicts)


def test_the_generic_point_counts_the_simplices_that_cover_it():
    # With its one tree dropped, a single edge's tree set passes the ridge
    # part and covers the point 0 times.
    t = single_edge_trinity()
    for colour in COLOURS:
        rp = root_polytope_of(t, COLOUR_SELECTORS[colour])
        assert polytopes._certificate_pass(rp, ()) == ({}, 0)
        with pytest.raises(InternalConsistencyError, match=f"{POINT_FAILURE} 0 times"):
            ridge_certificate(rp, ())
    # g1's two red triangulations together cover it twice; the union also
    # fails the ridge part (see below), so the count is taken directly.
    t = g1_trinity()
    rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
    union = uncertified_trees(t, RED, 0) + uncertified_trees(t, RED, 1)
    assert polytopes._certificate_pass(rp, union)[1] == 2
    assert sum(simplex_holds_point(tree_simplex(rp, tree), generic_point(rp)) for tree in union) == 2


def ridge_counts(rp, tree_sets):
    """How many of the simplices each ridge vertex set lies in."""
    return Counter(frozenset(rp.generators[f] for f in tr if f != e) for tr in tree_sets for e in tr)


def test_the_ridge_certificate_needs_the_boundary_count():
    # g1's two red triangulations together: every interior ridge lies in two
    # simplices on opposite sides, but the two triangulate part of the
    # boundary alike, so some boundary ridges lie in two simplices.
    t = g1_trinity()
    rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
    union = uncertified_trees(t, RED, 0) + uncertified_trees(t, RED, 1)
    assert set(ridge_counts(rp, union).values()) == {1, 2}
    with pytest.raises(InternalConsistencyError, match="triangulation boundary ridge"):
        ridge_certificate(rp, union)


def test_the_ridge_certificate_needs_opposite_sides():
    # Six simplices of K_{2,3} in which every ridge lies in one or two of
    # them, and every ridge in one is on the boundary: only the sides of some
    # interior ridge, both simplices on one side of it, reject the set.
    m = build_map(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)), ((0, 1, 2), (5, 4, 3), (0, 3), (1, 4), (2, 5)))
    rp = root_polytope(m, (0, 1), (2, 3, 4))
    tree_sets = ((0, 1, 3, 5), (0, 1, 4, 5), (0, 2, 3, 4), (0, 2, 4, 5), (1, 2, 3, 4), (1, 2, 3, 5))
    assert set(ridge_counts(rp, tree_sets).values()) == {1, 2}
    with pytest.raises(InternalConsistencyError, match="triangulation interior ridge"):
        ridge_certificate(rp, tree_sets)
    # Each tree must have n - 1 edges that span: four edges that close the
    # cycle 0-2-1-3 miss the vertex 4, and all five that meet 0, 1, 2 or 3
    # span it with a cycle.
    for not_a_tree, failure in (((0, 1, 3, 4), "does not span"), ((0, 1, 2, 3, 4), "has 5 edges, not 4")):
        with pytest.raises(InternalConsistencyError, match=f"triangulation tree {failure}"):
            ridge_certificate(rp, (tree_sets[0], not_a_tree))


def test_no_library_module_checks_tree_pairs():
    # Lemma 12.6 lives in the test oracles only; the library certifies its
    # triangulations by ridges.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not hasattr(module, "tree_simplices_meet_in_common_face"), info.name


def test_no_library_module_counts_faces():
    # The h-vector is the interior polynomial of the trees' hypertrees and f
    # is read off h, so the face count lives in the tests only.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not hasattr(module, "_f_vector"), info.name


def test_no_library_module_computes_a_volume():
    # The tree simplices are unimodular (Lemma 12.5) and the generic point
    # proves the covering, so volumes live in the test oracles only.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        names = ("simplex_normalized_volume", "total_normalized_volume", "placing_triangulation")
        assert not [name for name in names if hasattr(module, name)], info.name


def test_verify_solves_no_lp(monkeypatch, capsys):
    counted = [
        count_calls_everywhere(monkeypatch, module, name)
        for module, name in ((linalg, "lp_solve"), (linalg, "fvec"), (geometry, "prune_to_vertices"))
    ]
    fig7 = str(resources.files("trinities") / "fixtures" / "fig7.json")
    assert main(["report", fig7]) == EXIT_OK
    assert main(["verify", fig7]) == EXIT_OK
    assert '"ok": true' in capsys.readouterr().out
    assert counted == [[]] * len(counted)
