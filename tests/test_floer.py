import json

from trinities import polytopes
from trinities.cli import EXIT_CHECKS_FAILED, EXIT_OK, main
from trinities.floer import canonical_translate, sfh_support, tight_contact_count
from trinities.trinity import COLOURS, magic_number_report

from helpers import fig7_trinity, fixture_path, g1_trinity, negate, patch_everywhere, single_edge_trinity


def test_canonical_translate():
    assert canonical_translate([(2, 3), (3, 2)]) == ((0, 1), (1, 0))
    assert canonical_translate([(5,)]) == ((0,),)
    assert negate([(1, 2), (0, 0)]) == ((-1, -2), (0, 0))


def test_g1_support():
    s = sfh_support(g1_trinity())
    assert s.points == ((0, 1), (1, 0))
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


def floer_section(capsys, name):
    assert main(["report", fixture_path(name)]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["floer"]


def test_sutured_summaries(capsys):
    s = floer_section(capsys, "g1.json")
    assert s["genus"] == 1
    assert s["suture_components"] == 2
    assert s["balanced"] is True
    assert s["dim_sfh"] == 2
    assert s["invariant_is_generator"] == [True, True]
    s7 = floer_section(capsys, "fig7.json")
    assert s7["genus"] == 3
    assert s7["dim_sfh"] == 11


def test_verify_lists_a_vr_set_that_is_not_the_reflected_er_set(monkeypatch, capsys):
    # The VR set replaced by the ER set, which on fig7 is not centrally
    # symmetric: both routes to the support still count 11 points, but the
    # VR|ER reflection of the duality suite fails.
    original = polytopes.hypertree_set

    def patched(t, code):
        return original(t, "ER" if code == "VR" else code)

    er = original(fig7_trinity(), "ER")
    assert canonical_translate(er) != canonical_translate(negate(er))
    patch_everywhere(monkeypatch, polytopes, "hypertree_set", patched)
    assert main(["verify", fixture_path("fig7.json")]) == EXIT_CHECKS_FAILED
    assert "duality-suite" in json.loads(capsys.readouterr().out)["checks_failed"]
