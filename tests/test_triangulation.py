"""The arborescence triangulations' certificate and kernels against their
oracles: the ridge certificate against Postnikov's Lemma 12.6 on every pair
of trees of mutated tree sets, Lemma 12.6 against the common-face LP, the
integer placing volume against the hypertree count, the bitmask f-vector
against the faces' vertex sets, and a bad tree pair against the
triangulation's check. ``report`` and ``verify`` solve no LP, build no
rational vector and check no pair of trees."""

import pkgutil
import random
import re
from collections import Counter
from importlib import import_module, resources
from itertools import combinations

import pytest

import trinities
from trinities import geometry, linalg, polytopes, trees
from trinities.cli import EXIT_OK, main
from trinities.geometry import total_normalized_volume
from trinities.maps import build_map
from trinities.polytopes import ridge_certificate, root_polytope, root_polytope_of, tree_simplex
from trinities.trinity import (
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    colour_graph,
    colour_of_hypergraph,
    directed_dual,
)

from helpers import count_calls_everywhere, fig7_trinity, g1_trinity, random_trinity, single_edge_trinity
from oracles import intersect_in_common_face, spanning_trees_of_map, tree_simplices_meet_in_common_face

RIDGE_FAILURE = "triangulation (boundary|interior) ridge"

FIXTURES = [single_edge_trinity, g1_trinity, fig7_trinity]


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
        rp = root_polytope_of(t, colour)
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
        rp = root_polytope_of(t, colour_of_hypergraph(code))
        assert total_normalized_volume(rp.vertices) == len(trees.hypertree_set(t, code)), code


@pytest.mark.parametrize("build", FIXTURES)
def test_placing_volume_is_the_hypertree_count_on_fixtures(build):
    assert_placing_volume_is_the_hypertree_count(build())


@pytest.mark.parametrize("chunk", range(10))
def test_placing_volume_is_the_hypertree_count_on_the_corpus(chunk):
    for t in corpus(chunk):
        assert_placing_volume_is_the_hypertree_count(t)


def face_counts(simplices):
    """The f-vector from the vertex sets of every face of every simplex."""
    faces = {frozenset(sub) for s in simplices for k in range(len(s) + 1) for sub in combinations(s, k)}
    return tuple(sum(1 for f in faces if len(f) == k) for k in range(len(simplices[0]) + 1))


@pytest.mark.parametrize("chunk", range(10))
def test_f_vector_counts_the_faces_of_the_tree_simplices(chunk):
    for t in corpus(chunk):
        for colour in COLOURS:
            tr = polytopes.arborescence_triangulation(t, colour)
            assert polytopes.f_vector(tr) == face_counts(tr.simplices)
            assert polytopes.f_vector(tr) is polytopes.f_vector(tr)


def test_a_bad_tree_pair_fails_the_triangulation(monkeypatch):
    t = g1_trinity()
    rp = root_polytope_of(t, RED)
    bad = next(
        (t1, t2)
        for t1, t2 in tree_pairs(t, RED)
        if not intersect_in_common_face(tree_simplex(rp, t1), tree_simplex(rp, t2))
    )
    assert not tree_simplices_meet_in_common_face(rp, *bad)
    replacement = iter(bad)
    monkeypatch.setattr(trees, "arborescence_to_spanning_tree", lambda *args: next(replacement))
    with pytest.raises(InternalConsistencyError, match=RIDGE_FAILURE):
        polytopes.arborescence_triangulation(t, RED)


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
    trees, so the volume checks pass and the two verdicts must agree."""
    verdicts = []
    for colour in COLOURS:
        rp = root_polytope_of(t, colour)
        spanning = spanning_trees_of_map(colour_graph(t, colour)[0])
        for root in directed_dual(t, colour).vertices:
            tree_sets = polytopes.arborescence_trees(t, colour, root)
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


def ridge_counts(rp, tree_sets):
    """How many of the simplices each ridge vertex set lies in."""
    return Counter(frozenset(rp.generators[f] for f in tr if f != e) for tr in tree_sets for e in tr)


def test_the_ridge_certificate_needs_the_boundary_count():
    # g1's two red triangulations together: every interior ridge lies in two
    # simplices on opposite sides, but the two triangulate part of the
    # boundary alike, so some boundary ridges lie in two simplices.
    t = g1_trinity()
    rp = root_polytope_of(t, RED)
    union = polytopes.arborescence_trees(t, RED, 0) + polytopes.arborescence_trees(t, RED, 1)
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


def test_no_library_module_checks_tree_pairs():
    # Lemma 12.6 lives in the test oracles only; the library certifies its
    # triangulations by ridges.
    for info in pkgutil.iter_modules(trinities.__path__):
        module = import_module(f"trinities.{info.name}")
        assert not hasattr(module, "tree_simplices_meet_in_common_face"), info.name


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
