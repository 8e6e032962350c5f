import hashlib
import random
from fractions import Fraction as F

import pytest

from quiverperiod import QuiverError, Seed, run_orbit, somos_reduce
import quiverperiod.families as fm
import quiverperiod.reductions as red

from oracles import somos4_direct


def test_somos_reduce_families():
    assert somos_reduce("s82", 2, steps=30).ok
    assert somos_reduce("s84", 1, steps=30).ok
    assert somos_reduce("s86", 2, steps=30).ok
    with pytest.raises(QuiverError):
        somos_reduce("s81", 1)


def test_somos4_constant_and_sequence_all_ones():
    full = red.iterate_family("s82", 2, 8)
    C = red.BUILTIN_TEMPLATES["s82"].eval_at(full, 0)
    assert C == 2
    assert somos4_direct(C, 2, [1, 1, 1, 1], 6) == full["z"][:10]


def test_cross_family_shape_at_equal_exponent():
    # the two Somos-producing 5-vertex suites reduce to the same 4-term shape
    r82 = red.reduce_somos4("s82", 1, 20)
    r84 = red.reduce_somos4("s84", 1, 20)
    assert r82.ok and r84.ok


def test_reduce_s81_both_sides():
    assert red.reduce_s81(1, 30).ok
    family, _ = fm.section_family("s81")
    B = family.matrix(n=1)
    rng = random.Random(7)
    y0 = tuple(F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(4))
    trace = run_orbit(Seed(B, tuple(F(1) for _ in range(4)), y0), family.spec, 70,
                      keep_states=False)
    assert red.reduce_s81_y(1, trace.seq["A"], trace.seq["B"], 30).ok


def test_reduce_s83_half_pair():
    assert red.reduce_s83(0, 30).ok
    assert red.reduce_s83(1, 6).ok


def test_reduce_s85():
    assert red.reduce_s85(1, 30).ok
    assert red.reduce_s85(2, 6).ok


def test_reduce_s86_higher_exponent():
    assert red.reduce_somos5(3, 10).ok


@pytest.mark.parametrize("tag", red.SECTION_TAGS)
def test_verify_section_quick(tag):
    rep = red.verify_section(tag, seeds=2, horizon=16)
    assert rep.ok, [r.label for r in rep.rows if not r.ok]


# sha256 of repr([(label, ok, detail), ...]) over the rows of
# verify_section(tag, seeds=2, horizon=16, rng=Random(5)) for every tag, then
# of somos_reduce for s82/2, s84/1, s84/3 and s86/2
ROWS_DIGEST = "bd98ed6c3eee00cdb2939f0a752b1dbfd513542f61347593e4a79739020a13ad"


def test_reduction_rows_match_golden_digest():
    rows = []
    for tag in red.SECTION_TAGS:
        rows += red.verify_section(tag, seeds=2, horizon=16, rng=random.Random(5)).rows
    for family, param in (("s82", 2), ("s84", 1), ("s84", 3), ("s86", 2)):
        rows += somos_reduce(family, param).rows
    flat = [(r.label, r.ok, r.detail) for r in rows]
    assert hashlib.sha256(repr(flat).encode()).hexdigest() == ROWS_DIGEST, flat
