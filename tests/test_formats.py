import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverperiod import ExchangeMatrix, ONE_CYCLE, Period2Spec, Seed, run_orbit
from quiverperiod.formats import (
    FormatError,
    quiver_from_json,
    quiver_to_dot,
    quiver_to_json,
    seed_from_json,
    seed_to_json,
    trace_from_json,
    trace_to_csv,
    trace_to_json,
)
import quiverperiod.families as fm

MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


@st.composite
def matrices(draw, max_n=6, bound=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entries[(i, j)] = draw(st.integers(min_value=-bound, max_value=bound))
    return ExchangeMatrix.from_entries(n, entries)


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_quiver_round_trip(B):
    assert quiver_from_json(quiver_to_json(B)) == B


@given(matrices(max_n=4, bound=3), st.data())
@settings(max_examples=40, deadline=None)
def test_seed_round_trip(B, data):
    n = B.n
    frac = st.fractions(
        min_value=F(-20), max_value=F(20), max_denominator=9
    )
    pos = st.fractions(min_value=F(1, 9), max_value=F(20), max_denominator=9)
    x = tuple(data.draw(frac) for _ in range(n))
    y = tuple(data.draw(pos) for _ in range(n))
    seed = Seed(B, x, y)
    assert seed_from_json(seed_to_json(seed)) == seed


def test_quiver_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        quiver_from_json("not json {")
    with pytest.raises(FormatError, match="format"):
        quiver_from_json(json.dumps({"format": "other", "n": 1, "b": [[0]]}))
    with pytest.raises(FormatError, match="skew"):
        quiver_from_json(
            json.dumps(
                {"format": "quiverperiod/quiver-v1", "n": 2, "b": [[0, 1], [1, 0]]}
            )
        )
    with pytest.raises(FormatError, match="integer"):
        quiver_from_json(
            json.dumps(
                {"format": "quiverperiod/quiver-v1", "n": 2, "b": [[0, 1.5], [-1.5, 0]]}
            )
        )
    with pytest.raises(FormatError, match="entries"):
        quiver_from_json(
            json.dumps({"format": "quiverperiod/quiver-v1", "n": 2, "b": [[0], [0]]})
        )


def test_seed_parse_errors():
    base = {
        "format": "quiverperiod/seed-v1",
        "n": 2,
        "b": [[0, 1], [-1, 0]],
        "x": ["1", "1/2"],
        "y": ["1", "3"],
    }
    assert seed_from_json(json.dumps(base)).x == (F(1), F(1, 2))
    bad = dict(base, y=["1", "0"])
    with pytest.raises(FormatError, match="positive"):
        seed_from_json(json.dumps(bad))
    bad = dict(base, x=["1", "a/b"])
    with pytest.raises(FormatError, match="bad rational"):
        seed_from_json(json.dumps(bad))


def test_trace_round_trip_and_csv():
    B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
    spec = Period2Spec(4, ONE_CYCLE, 2)
    trace = run_orbit(Seed.ones(B), spec, 8, keep_states=False)
    text = trace_to_json(trace)
    again = trace_from_json(text)
    assert again.seq["z"] == trace.seq["z"]
    assert again.seq["B"] == trace.seq["B"]
    assert again.spec == spec
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "u,slot,value"
    assert lines[1].startswith("0,z,")
    # y-slots sit at odd times
    assert any(line.startswith("1,y,") for line in lines)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_quiver_n_must_be_an_integer(n):
    with pytest.raises(FormatError, match="field 'n' must be a positive integer"):
        quiver_from_json(json.dumps({"format": "quiverperiod/quiver-v1", "n": n, "b": [[0]]}))


@pytest.mark.parametrize("steps", ["x", -5, True, 2.5, None])
def test_trace_steps_must_be_a_non_negative_integer(steps):
    data = json.loads(trace_to_json(run_orbit(Seed.ones(MARKOV), Period2Spec(3, ONE_CYCLE, 2), 2)))
    assert trace_from_json(json.dumps(data)).steps == 2
    with pytest.raises(FormatError, match="field 'steps' must be a non-negative integer"):
        trace_from_json(json.dumps({**data, "steps": steps}))


def test_dot_export():
    dot = quiver_to_dot(MARKOV)
    assert '1 -> 2 [label="2"]' in dot
    assert '2 -> 3 [label="2"]' in dot
    assert '3 -> 1 [label="2"]' in dot
    assert "->" in dot and dot.startswith("digraph")
    # exactly one edge per positive entry
    assert dot.count("->") == 3
