from trinities.floer import canonical_translate, negate, sfh_support, sutured_summary, tight_contact_count
from trinities.trinity import COLOURS, magic_number_report

from helpers import fig7_trinity, g1_trinity, single_edge_trinity


def test_canonical_translate():
    assert canonical_translate([(2, 3), (3, 2)]) == ((0, 1), (1, 0))
    assert canonical_translate([(5,)]) == ((0,),)
    assert negate([(1, 2), (0, 0)]) == ((-1, -2), (0, 0))


def test_g1_support():
    s = sfh_support(g1_trinity())
    assert s.points == ((0, 1), (1, 0))
    assert s.ambient == "R"
    assert s.size == 2
    assert sfh_support(g1_trinity()).size == 2


def test_single_edge_support():
    s = sfh_support(single_edge_trinity())
    assert s.points == ((0,),)
    assert s.size == 1


def test_support_size_equals_magic_number():
    for t in (g1_trinity(), single_edge_trinity(), fig7_trinity()):
        magic = magic_number_report(t)["magic_number"]
        assert sfh_support(t).size == magic
        for colour in COLOURS:
            assert tight_contact_count(t, colour) == magic


def test_sutured_summaries():
    s = sutured_summary(g1_trinity())
    assert s.genus == 1
    assert s.suture_components == 2
    assert s.balanced
    assert s.dim_sfh == 2
    assert s.invariant_is_generator == (True, True)
    s7 = sutured_summary(fig7_trinity())
    assert s7.genus == 3
    assert s7.dim_sfh == 11
