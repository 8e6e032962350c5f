"""Every public entry point refuses a malformed exchange matrix, and the
integer fields of Period2Spec and SearchJob, and the count arguments of the
library's iterating entry points, refuse what is not an integer; a count
below its least value is refused with one message shape.

Matrices built by mutation, relabeling, negation and the solver skip the
skew-symmetry check, so the check at each entry point is what keeps them valid.
"""

import pytest

import quiverperiod.families as fm
from quiverperiod import (
    BUILTIN_TEMPLATES,
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    Seed,
    SearchJob,
    SystemSpec,
    check_TZ_condition,
    extract_system,
    initial_window_from_seed,
    iterate_system,
    laurent_check,
    parse_template,
    regression_instances,
    run_orbit,
    somos_reduce,
    template_search,
    verify_periodic,
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
    ones = {s: [1] * 40 for s in "zy"}
    s81 = BUILTIN_TEMPLATES["s81"]
    return {
        "run_orbit-steps": (lambda x: run_orbit(Seed.initial(B), family.spec, x), "steps", 0),
        "laurent_check-depth": (lambda x: laurent_check(B, family.spec, x), "depth", 0),
        "iterate_system-steps": (lambda x: iterate_system(tsys, window, x), "steps", 0),
        "iterate_system-bit_budget": (
            lambda x: iterate_system(tsys, window, 12, bit_budget=x), "bit budget", 1
        ),
        "check_TZ_condition-steps": (lambda x: check_TZ_condition(ones, tsys, x), "steps", 0),
        "verify_periodic-horizon": (lambda x: verify_periodic(trace, s81, x), "horizon", 1),
        "verify_periodic-period": (
            lambda x: verify_periodic(trace, parse_template("z(q)/y(q)", x), 5), "period", 1
        ),
        "verify_section-seeds": (
            lambda x: verify_section("s81", seeds=x, horizon=5), "seeds", 0
        ),
        "verify_section-horizon": (
            lambda x: verify_section("s81", seeds=1, horizon=x), "horizon", 1
        ),
        "verify_theorem-max_param": (lambda x: verify_theorem("N3", x), "max_param", 0),
        "verify_theorem-search_bound": (
            lambda x: verify_theorem("N3", 0, search_bound=x), "search_bound", 1
        ),
        "verify_theorem-jobs": (lambda x: verify_theorem("N3", 0, jobs=x), "jobs", 1),
        "regression_instances-max_param": (regression_instances, "max_param", 0),
        "family-parameter": (
            lambda x: fm.FAMILY_BY_KEY["n5-2c2-1"].matrix(m=0, n=x),
            "family n5-2c2-1: parameter n", 2,
        ),
        "template_search-shift_bound": (
            lambda x: template_search(trace, x, 1), "shift_bound", 0
        ),
        "template_search-exp_bound": (lambda x: template_search(trace, 1, x), "exp_bound", 1),
        "template_search-max_period": (
            lambda x: template_search(trace, 1, 1, x), "max_period", 1
        ),
        "somos_reduce-param": (
            lambda x: somos_reduce("s82", x, 20), "family n5-k2-5: parameter p", 0
        ),
        "somos_reduce-steps": (lambda x: somos_reduce("s82", 1, x), "steps", 6),
    }


# case: (call with one bad count, the argument it names, its least value);
# each call runs with that value in its place, so the refusal is the
# argument's doing
BAD_COUNTS = _count_cases()


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_arguments_must_be_integers(case, bad):
    call, name, _ = BAD_COUNTS[case]
    with pytest.raises(QuiverError, match=rf"^{name} must be an integer$"):
        call(bad)


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_count_arguments_take_integers(case):
    call, _, least = BAD_COUNTS[case]
    call(least)


# every count argument one below its least value, each with the same message
# shape; the SearchJob fields and the s86 reducer's own least values as well
BELOW_LEAST = {
    **BAD_COUNTS,
    "spec-n": (lambda x: Period2Spec(x, ONE_CYCLE, 2), "n", 2),
    "job-bound": (lambda x: SearchJob(SPEC, x), "bound", 1),
    "job-jobs": (lambda x: SearchJob(SPEC, 2, jobs=x), "jobs", 1),
    "somos_reduce-s86-param": (
        lambda x: somos_reduce("s86", x, 20), "family n6-k5-2: parameter n", 1
    ),
    "somos_reduce-s86-steps": (lambda x: somos_reduce("s86", 2, x), "steps", 7),
}


@pytest.mark.parametrize("case", sorted(BELOW_LEAST))
def test_count_below_its_least_value_is_refused(case):
    call, name, least = BELOW_LEAST[case]
    with pytest.raises(QuiverError, match=rf"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_spec_n_is_refused_before_k_is_read(n):
    with pytest.raises(QuiverError, match=rf"^n must be >= 2, got {n}$"):
        Period2Spec(n, TWO_CYCLE, 2)


@pytest.mark.parametrize("n, k", [(2, 3), (5, 1), (5, 6)])
def test_spec_k_out_of_range_keeps_its_message(n, k):
    with pytest.raises(QuiverError, match=rf"^k={k} out of range for n={n}$"):
        Period2Spec(n, ONE_CYCLE, k)


@pytest.mark.parametrize("bad, message", [
    (-1, r"^max_param must be >= 0, got -1$"),
    (1.5, r"^max_param must be an integer$"),
])
def test_iter_instances_refuses_max_param_at_the_call(bad, message):
    # refused when called, before any instance is asked for
    with pytest.raises(QuiverError, match=message):
        fm.iter_instances(fm.FAMILY_BY_KEY["n4-k2-1"], bad)


def test_spec_and_job_take_numpy_integers():
    np = pytest.importorskip("numpy")
    spec = Period2Spec(np.int64(5), ONE_CYCLE, np.int32(2))
    job = SearchJob(spec, np.int16(2), jobs=np.int8(1))
    assert spec == SPEC and type(spec.n) is int and type(spec.k) is int
    assert (job.bound, job.jobs) == (2, 1) and type(job.bound) is int and type(job.jobs) is int
    assert spec.schedule == SPEC.schedule
