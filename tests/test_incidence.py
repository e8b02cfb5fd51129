"""One edge incidence per selector: the hyperedges, the root polytope and
the trees' hypertrees that the library reads off it agree with the map-level
references of ``tests/oracles.py``, on every selector of the fixtures, the
seeded corpus and the 3x4 grid."""

import pytest

from trinities import polytopes
from trinities.trinity import HYPERGRAPH_CODES, colour_of_hypergraph, directed_dual

from helpers import graphs, grouped
from oracles import hyperedges, hypergraph_view, root_polytope


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


@pytest.mark.parametrize("cases", grouped("grid", "3x4"))
@pytest.mark.parametrize("code", HYPERGRAPH_CODES)
def test_the_incidence_matches_the_map_level_references(code, cases):
    for t in graphs(*cases):
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
