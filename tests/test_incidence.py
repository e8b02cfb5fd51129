"""One edge incidence per selector: the hyperedges, the root polytope and
the trees' hypertrees that the library reads off it agree with the map-level
references of ``tests/oracles.py``, on every selector of the fixtures, the
seeded corpus and the 3x4 grid."""

import random

import pytest

from trinities import polytopes
from trinities.trinity import HYPERGRAPH_CODES, colour_of_hypergraph, directed_dual

from helpers import fig7_trinity, g1_trinity, grid_trinity, random_trinity, single_edge_trinity
from oracles import hyperedges, hypergraph_view, root_polytope


def graphs(case):
    """The fixtures, a chunk of the seeded corpus, or the 3x4 grid."""
    if case == "fixtures":
        return [single_edge_trinity(), g1_trinity(), fig7_trinity()]
    if case == "grid":
        return [grid_trinity(3, 4)]
    rng = random.Random(9000 + case)  # the corpus of test_random_properties
    return [random_trinity(rng) for _ in range(20)]


def reference_hypertrees(reference, trees):
    """Each tree's degree-minus-one vector on the Y coordinates, read off
    the reference generators e_y - e_x, sorted."""
    vectors = []
    for tree in trees:
        degree = [-1] * reference.u_size
        for e in tree:
            degree[reference.generators[e].index(1)] += 1
        vectors.append(tuple(degree))
    return tuple(sorted(vectors))


@pytest.mark.parametrize("case", ["fixtures", *range(10), "grid"])
@pytest.mark.parametrize("code", HYPERGRAPH_CODES)
def test_the_incidence_matches_the_map_level_references(code, case):
    for t in graphs(case):
        m, x_ids, y_ids = hypergraph_view(t, code)
        assert polytopes._hyperedges_of(t, code) == hyperedges(m, x_ids, y_ids)
        rp, reference = polytopes.root_polytope_of(t, code), root_polytope(m, y_ids, x_ids)
        assert rp.generators == reference.generators
        assert rp.vertices == reference.vertices
        assert rp.affine_dim == reference.affine_dim
        assert (rp.u_size, rp.v_size, rp.ends) == (reference.u_size, reference.v_size, reference.ends)
        colour = colour_of_hypergraph(code)
        for root in directed_dual(t, colour).vertices:
            # The library checks its trees' hypertrees against the set; the
            # reference reads the same ones off its own generators.
            trees = polytopes.arborescence_triangulation(t, colour, root)
            assert reference_hypertrees(reference, trees) == polytopes.hypertree_set(t, code), root
