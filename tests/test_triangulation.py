"""The arborescence triangulations' certificate and kernels against their
oracles: Postnikov's Lemma 12.6 against the common-face LP, the integer
placing volume against the hypertree count, the bitmask f-vector against the
faces' vertex sets, and a bad tree pair against the triangulation's check.
``report`` and ``verify`` solve no LP and build no rational vector."""

import random
from importlib import resources
from itertools import combinations

import pytest

from trinities import geometry, linalg, polytopes, trees
from trinities.cli import EXIT_OK, main
from trinities.geometry import total_normalized_volume
from trinities.polytopes import root_polytope_of, tree_simplex, tree_simplices_meet_in_common_face
from trinities.trinity import (
    COLOURS,
    HYPERGRAPH_CODES,
    RED,
    InternalConsistencyError,
    colour_graph,
    colour_of_hypergraph,
)

from helpers import count_calls_everywhere, fig7_trinity, g1_trinity, random_trinity, single_edge_trinity
from oracles import intersect_in_common_face, spanning_trees_of_map

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
    with pytest.raises(InternalConsistencyError, match="simplices do not meet in a common face"):
        polytopes.arborescence_triangulation(t, RED)


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
