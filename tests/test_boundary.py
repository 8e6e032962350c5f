"""Every public entry point refuses a malformed exchange matrix, and the
integer fields of Period2Spec and SearchJob, and the count arguments of the
library's iterating entry points, refuse what is not an integer.

Matrices built by mutation, relabeling, negation and the solver skip the
skew-symmetry check, so the check at each entry point is what keeps them valid.
"""

import pytest

import quiverperiod.families as fm
from quiverperiod import (
    ONE_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    Seed,
    SearchJob,
    SystemSpec,
    extract_system,
    initial_window_from_seed,
    iterate_system,
    laurent_check,
    run_orbit,
    template_search,
    verify_section,
    verify_theorem,
)
from quiverperiod.formats import (
    QUIVER_FORMAT,
    SEED_FORMAT,
    TRACE_FORMAT,
    FormatError,
    quiver_from_dict,
    seed_from_dict,
    trace_from_dict,
)

# case: (rows, the entries handed to from_entries, a fragment of the message)
MALFORMED = {
    "non-square": ([[0, 1], [-1]], {(1, 3): 1}, r"square|entries|index"),
    "nonzero-diagonal": ([[1, 0], [0, 0]], {(1, 1): 1}, r"diagonal|index"),
    "not-skew": ([[0, 1], [1, 0]], {(1, 2): 1, (2, 1): 1}, r"skew|index"),
    "float-entry": ([[0, 1.5], [-1.5, 0]], {(1, 2): 1.5}, r"integer"),
    "ragged": ([[0, 1], []], {(2, 1): 1}, r"square|entries|index"),
}


def _system(rows):
    """The n4-k2-1 T-system file with b replaced by rows (kept when rows is None)."""
    family = fm.FAMILY_BY_KEY["n4-k2-1"]
    data = extract_system(family.matrix(n=1), family.spec, "T").to_dict()
    return data if rows is None else {**data, "b": rows}


ENTRY_POINTS = {
    "ExchangeMatrix": lambda rows, _: ExchangeMatrix(tuple(map(tuple, rows))),
    "from_rows": lambda rows, _: ExchangeMatrix.from_rows(rows),
    "from_entries": lambda _, entries: ExchangeMatrix.from_entries(2, entries),
    "quiver": lambda rows, _: quiver_from_dict({"format": QUIVER_FORMAT, "n": 2, "b": rows}),
    "seed": lambda rows, _: seed_from_dict(
        {"format": SEED_FORMAT, "n": 2, "b": rows, "x": ["1", "1"], "y": ["1", "1"]}
    ),
    "trace": lambda rows, _: trace_from_dict(
        {"format": TRACE_FORMAT, "n": 2, "shape": "1-cycle", "k": 2, "b": rows}
    ),
    "system": lambda rows, _: SystemSpec.from_dict(_system(rows)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_refuses_malformed_matrix(entry, case):
    rows, entries, message = MALFORMED[case]
    with pytest.raises((QuiverError, FormatError), match=message):
        ENTRY_POINTS[entry](rows, entries)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_a_valid_matrix(entry):
    # the same builders with well-formed input, so each refusal above is the
    # matrix's doing (the system loader's n is 4, hence its own matrix)
    rows = None if entry == "system" else [[0, 1], [-1, 0]]
    ENTRY_POINTS[entry](rows, {(1, 2): 1})


def test_from_rows_takes_numpy_integers_and_refuses_bools_and_strings():
    np = pytest.importorskip("numpy")
    B = ExchangeMatrix.from_rows(np.array([[0, 2], [-2, 0]], dtype=np.int16))
    assert B == ExchangeMatrix(((0, 2), (-2, 0)))
    assert all(type(x) is int for x in B.flatten())
    for bad in (True, "2", 2.0):
        with pytest.raises(QuiverError, match=r"entry b\[1\]\[2\] must be an integer"):
            ExchangeMatrix.from_rows([[0, bad], [-2, 0]])


SPEC = Period2Spec(5, ONE_CYCLE, 2)

# case: (builder of one bad value, the field it names); a float, even an
# integral one, a bool and a string are refused when built, not later in
# schedule or search
BAD_FIELDS = {
    "spec-k": (lambda x: Period2Spec(5, ONE_CYCLE, x), "k"),
    "spec-n": (lambda x: Period2Spec(x, ONE_CYCLE, 2), "n"),
    "job-bound": (lambda x: SearchJob(SPEC, x), "bound"),
    "job-jobs": (lambda x: SearchJob(SPEC, 2, jobs=x), "jobs"),
}


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_spec_and_job_fields_must_be_integers(case, bad):
    build, name = BAD_FIELDS[case]
    with pytest.raises(QuiverError, match=rf"^{name} must be an integer$"):
        build(bad)


def _count_cases():
    family = fm.FAMILY_BY_KEY["n4-k2-1"]
    B = family.matrix(n=1)
    tsys = SystemSpec.from_dict(_system(None))
    window = initial_window_from_seed(tsys, (1, 2, 3, 4))
    trace = iterate_system(tsys, window, 12)
    return {
        "run_orbit-steps": (lambda x: run_orbit(Seed.initial(B), family.spec, x), "steps"),
        "laurent_check-depth": (lambda x: laurent_check(B, family.spec, x), "depth"),
        "iterate_system-steps": (lambda x: iterate_system(tsys, window, x), "steps"),
        "verify_section-seeds": (lambda x: verify_section("s81", seeds=x, horizon=5), "seeds"),
        "verify_section-horizon": (lambda x: verify_section("s81", seeds=1, horizon=x), "horizon"),
        "verify_theorem-max_param": (lambda x: verify_theorem("N3", x), "max_param"),
        "verify_theorem-search_bound": (
            lambda x: verify_theorem("N3", 0, search_bound=x), "search_bound"
        ),
        "template_search-shift_bound": (lambda x: template_search(trace, x, 1), "shift_bound"),
        "template_search-exp_bound": (lambda x: template_search(trace, 1, x), "exp_bound"),
    }


# case: (call with one bad count, the argument it names); each call runs with
# an integer in its place, so the refusal is the argument's doing
BAD_COUNTS = _count_cases()


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_arguments_must_be_integers(case, bad):
    call, name = BAD_COUNTS[case]
    with pytest.raises(QuiverError, match=rf"^{name} must be an integer$"):
        call(bad)


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_arguments_take_integers(case):
    call, _ = BAD_COUNTS[case]
    call(1)


def test_spec_and_job_take_numpy_integers():
    np = pytest.importorskip("numpy")
    spec = Period2Spec(np.int64(5), ONE_CYCLE, np.int32(2))
    job = SearchJob(spec, np.int16(2), jobs=np.int8(1))
    assert spec == SPEC and type(spec.n) is int and type(spec.k) is int
    assert (job.bound, job.jobs) == (2, 1) and type(job.bound) is int and type(job.jobs) is int
    assert spec.schedule == SPEC.schedule
