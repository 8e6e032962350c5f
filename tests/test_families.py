import dataclasses
import importlib

import pytest

from quiverperiod import (
    ONE_CYCLE,
    TWO_CYCLE,
    FamilyId,
    Period2Spec,
    QuiverError,
    family_spec,
    generate_family,
    is_connected,
    is_period2,
    verify_theorem,
)
import quiverperiod.families as fm

# the package's `search` attribute is the function, not the module
search_mod = importlib.import_module("quiverperiod.search")


def test_every_instance_is_period2():
    count = 0
    for family in fm._FAMILIES:
        for fid, B in fm.iter_instances(family, 3):
            assert is_period2(B, family.spec), str(fid)
            count += 1
    assert count > 500


def test_four_vertex_display_arrows():
    # weight-2 arrows 2->1, 4->1, 3->2, 3->4
    B = generate_family(FamilyId("N4", 1, {"n": 2}))
    assert B.b(2, 1) == B.b(4, 1) == B.b(3, 2) == B.b(3, 4) == 2
    assert B.b(1, 3) == B.b(2, 4) == 0
    assert is_period2(B, Period2Spec(4, ONE_CYCLE, 2))


def test_five_vertex_somos_family():
    fid = FamilyId("N5_1cycle", 5, {"p": 2})
    B = generate_family(fid)
    assert family_spec(fid) == Period2Spec(5, ONE_CYCLE, 2)
    assert is_period2(B, Period2Spec(5, ONE_CYCLE, 2))


def test_six_vertex_uniform_family():
    fid = FamilyId("N6", 3, {"m": 3})
    B = generate_family(fid)
    assert is_period2(B, Period2Spec(6, ONE_CYCLE, 5))


def test_unknown_family():
    with pytest.raises(QuiverError):
        generate_family(FamilyId("N3", 9, {}))
    with pytest.raises(QuiverError):
        generate_family(FamilyId("N7", 1, {}))


def test_parameter_constraints():
    # these displays carry explicit side conditions on the parameters
    with pytest.raises(QuiverError):
        fm.FAMILY_BY_KEY["n5-2c2-1"].matrix(m=0, n=1)
    with pytest.raises(QuiverError):
        fm.FAMILY_BY_KEY["n5-2c2-3"].matrix(m=0, n=0)
    with pytest.raises(QuiverError):
        fm.FAMILY_BY_KEY["n5-k3-5"].matrix(m=0)
    with pytest.raises(QuiverError):
        fm.FAMILY_BY_KEY["n3-k2-1"].matrix(wrong=1)


def test_degenerate_members_flagged_disconnected():
    # zero-parameter members are generated but disconnected
    B = generate_family(FamilyId("N4", 1, {"n": 0}))
    assert not is_connected(B)
    B = generate_family(FamilyId("N6", 1, {"m": 0}))
    assert not is_connected(B)


def test_negation_closure_is_solution_set():
    for family in fm._FAMILIES[:8]:
        for fid, B in fm.iter_instances(family, 1):
            assert is_period2(fm.negate(B), family.spec), str(fid)


def test_verify_theorem_n3():
    report = verify_theorem("N3", 3, search_bound=3)
    assert report.ok, [r.label for r in report.rows if not r.ok]


def test_verify_theorem_passes_jobs_to_every_search(monkeypatch):
    # N3 runs one search per family spec and one for the 2-cycle equation
    seen = []
    real = search_mod.search

    def recording(job):
        seen.append(job.jobs)
        return real(dataclasses.replace(job, jobs=1))

    monkeypatch.setattr(search_mod, "search", recording)
    report = verify_theorem("N3", 1, search_bound=1, jobs=2)
    assert len(seen) == 2 and set(seen) == {2}
    monkeypatch.undo()
    assert report.rows == verify_theorem("N3", 1, search_bound=1).rows


def test_verify_theorem_n4_with_search():
    report = verify_theorem("N4", 2, search_bound=2)
    assert report.ok, [r.label for r in report.rows if not r.ok]


def test_verify_theorem_pairings():
    report = verify_theorem("N5_1cycle", 1)
    pairing_rows = [r for r in report.rows if "relabels" in r.label]
    assert pairing_rows and all(r.ok for r in pairing_rows)
    assert report.ok


def test_verify_theorem_unknown():
    with pytest.raises(QuiverError):
        verify_theorem("N9", 2)


def test_verify_theorem_negative_max_param():
    # a negative bound instantiates no family, which must not read as a pass
    with pytest.raises(QuiverError, match="max_param"):
        verify_theorem("N4", -1)


def test_section_family_tags():
    for tag in ("s81", "s82", "s83", "s84", "s85", "s86"):
        family, pname = fm.section_family(tag)
        assert pname in family.param_names
    with pytest.raises(QuiverError):
        fm.section_family("s99")
