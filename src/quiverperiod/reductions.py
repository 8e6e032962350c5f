"""Periodic-quantity verification and system reductions for the shipped
dynamics suites (tags s81..s86), including the Somos-4 and Somos-5 cases.

Each suite pairs a quiver family with its built-in periodic quantity and a
reduced recurrence; the checks here compare the reduced iteration against the
full two-equation system exactly.  Growth of the exact values is governed by
the largest monomial exponent sum, so each suite records the instances that
admit long exact runs; the remaining instances are checked over shorter
horizons with the same exact arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cluster import _lift_all, _plain
from .families import section_family
from .quiver import QuiverError, _integer
from .report import Report, Row
from .systems import (
    BUILTIN_TEMPLATES,
    DEFAULT_BIT_BUDGET,
    BitBudgetError,
    SystemSpec,
    extract_system,
    iterate_system,
    required_window,
    verify_periodic,
)

SECTION_TAGS = ("s81", "s82", "s83", "s84", "s85", "s86")
SOMOS_TAGS = ("s82", "s84", "s86")

# parameter values whose T-systems have monomial exponent sums <= 2, so the
# exact values stay polynomially sized over 50+ steps
TAME_PARAM = {
    "s81": 1,
    "s82": 2,
    "s83": 0,
    "s84": 2,
    "s85": 1,
    "s86": 2,
}


def _tsys_for(tag: str, value: int) -> SystemSpec:
    fam, pname = section_family(tag)
    B = fam.matrix(**{pname: value})
    return extract_system(B, fam.spec, "T")


def _window(sys: SystemSpec, draw) -> dict[str, list]:
    return {name: [draw() for _ in range(cnt)] for name, cnt in required_window(sys).items()}


def iterate_family(
    tag: str, value: int, steps: int, bit_budget: int | None = None
) -> dict[str, list]:
    """The full T-system of suite `tag` at `value` from the all-ones window;
    BitBudgetError if a value passes bit_budget bits before `steps` steps."""
    sys = _tsys_for(tag, value)
    full = iterate_system(sys, _window(sys, lambda: Fraction(1)), steps, bit_budget=bit_budget)
    if (reached := len(full["z"]) - required_window(sys)["z"]) < steps:
        raise BitBudgetError(reached, steps, bit_budget)
    return full


# ---------------------------------------------------------------------------
# reduced recurrences per suite
# ---------------------------------------------------------------------------


def _constants(tag: str, full: dict[str, list]) -> list[Fraction]:
    """The suite's built-in quantity at q = 0 .. period-1."""
    template = BUILTIN_TEMPLATES[tag]
    return [template.eval_at(full, q) for q in range(template.claimed_period)]


def _is_prefix(reduced: list, full) -> bool:
    return reduced == list(full[: len(reduced)])


def _check(tag, value, steps, names, start, stop, step, label, bit_budget=None) -> Row:
    """Iterate suite `tag` at `value` from the all-ones window for `steps`
    steps under bit_budget (iterate_family) and read its constants C; extend
    the first `start` values of the `names` sequences to `stop` values by
    calling step(C, q, *sequences) for q = 0, 1, ..., and compare with the
    full trace.  `label` may use {C}.

    The reduced recurrence runs on S-integers over the base of the seed
    values and C (cluster._SInt), so its exact divisions take no gcd."""
    full = iterate_family(tag, value, steps, bit_budget)
    C = _constants(tag, full)
    *seqs, lifted = _lift_all(*(full[name][:start] for name in names), C)
    for q in range(stop - start):
        step(lifted, q, *seqs)
    ok = all(_is_prefix(list(map(_plain, vals)), full[name]) for name, vals in zip(names, seqs))
    return Row(label.format(C=C[0]), ok)


def reduce_somos4(tag: str, value: int, terms: int, bit_budget: int | None = None) -> Row:
    """s82/s84: the constant turns the pair into
    z(q+4) z(q) = z(q+1) z(q+3) + C z(q+2)^e; `terms` counts compared
    z-values, seed window included."""
    if tag not in ("s82", "s84"):
        raise QuiverError("reduce_somos4 applies to suites s82 and s84")
    terms = _integer(terms, "steps", least=6)

    def step(C, q, z):
        z.append((z[q + 1] * z[q + 3] + C[0] * z[q + 2] ** value) / z[q])

    zwin = required_window(_tsys_for(tag, value))["z"]
    return _check(
        tag, value, terms - zwin, ("z",), 4, terms, step,
        f"{tag} exp={value}: reduced Somos-4 form matches the full system "
        f"for {terms} terms (C={{C}})", bit_budget,
    )


def reduce_somos5(value: int, terms: int, bit_budget: int | None = None) -> Row:
    """s86: y(q+5) y(q) = y(q+3) y(q+2) + C y(q+1)^(n-1) y(q+4)^(n-1);
    `terms` counts compared y-values, seed window included."""
    terms = _integer(terms, "steps", least=7)
    e = value - 1

    def step(C, q, y):
        y.append((y[q + 3] * y[q + 2] + C[0] * y[q + 1] ** e * y[q + 4] ** e) / y[q])

    return _check(
        "s86", value, terms - 4, ("y",), 5, terms, step,
        f"s86 n={value}: reduced Somos-5 form matches the full system "
        f"for {terms} terms (C={{C}})", bit_budget,
    )


def reduce_s81(value: int, steps: int) -> Row:
    """s81: C(q) = y(q)/z(q+1) has period 2 and the system collapses to
    C(q+1) z(q+2) z(q) = C(q)^n z(q+1)^(2n) + 1."""

    def step(C, q, z):
        z.append((C[q % 2] ** value * z[q + 1] ** (2 * value) + 1) / (C[(q + 1) % 2] * z[q]))

    return _check(
        "s81", value, steps, ("z",), 2, steps + 2, step,
        f"s81 n={value}: period-2 quantity reduces the pair to a single "
        f"recurrence matching {steps} terms",
    )


def reduce_s81_y(value: int, A_seq, B_seq, steps: int) -> Row:
    """s81 coefficient side: D(q) = A(q+1)/B(q) has period 2; replacing
    B(q) = A(q+1)/D(q) in the pair leaves the single recurrence
    A(q+2) A(q) = D(q+1) (1+A(q+1))^n (1 + A(q+1)/D(q))^n."""
    D = [A_seq[1] / B_seq[0], A_seq[2] / B_seq[1]]
    A = list(A_seq[:2])
    n = value
    for q in range(steps):
        A.append(D[(q + 1) % 2] * (1 + A[q + 1]) ** n * (1 + A[q + 1] / D[q % 2]) ** n / A[q])
    return Row(
        f"s81 n={value}: coefficient-side period-2 quantity reduces the "
        f"Y-pair, matching {steps} terms",
        _is_prefix(A, A_seq),
    )


def reduce_s83(value: int, steps: int) -> Row:
    """s83: with the constant C the pair becomes
    y(q+3) y(q) = C z(q+2)^2 y(q+1)^n y(q+2)^n + 1,
    C z(q+2) z(q+1) = y(q) y(q+2) + y(q+1)   (z not fully eliminated)."""

    def step(C, q, y, z):
        y.append((C[0] * z[q + 2] ** 2 * y[q + 1] ** value * y[q + 2] ** value + 1) / y[q])
        z.append((y[q + 1] * y[q + 3] + y[q + 2]) / (C[0] * z[q + 2]))

    return _check(
        "s83", value, steps + 1, ("y", "z"), 3, steps + 3, step,
        f"s83 n={value}: half-reduced pair reproduces the full trace "
        f"for {steps} terms (C={{C}})",
    )


def reduce_s85(value: int, steps: int) -> Row:
    """s85: C(q) = (z(q)+1)/(y(q+2) y(q)) has period 2 and eliminates z:
    C(q) y(q+4) y(q+2) y(q) = (C(q+1) y(q+3) y(q+1) - 1)^m y(q+2) + y(q+4) + y(q),
    i.e. substituting z(q) = C(q) y(q+2) y(q) - 1 into the second equation."""

    def step(C, q, y):
        rhs = (C[(q + 1) % 2] * y[q + 3] * y[q + 1] - 1) ** value * y[q + 2] + y[q]
        denom = C[q % 2] * y[q + 2] * y[q] - 1
        y.append(rhs / denom)

    return _check(
        "s85", value, steps, ("y",), 4, steps + 4, step,
        f"s85 m={value}: period-2 quantity eliminates z, matching {steps} terms",
    )


def somos_reduce(family: str, param: int, steps: int = 30, bit_budget: int | None = None) -> Report:
    """Reduce one of the Somos-producing suites and compare with the full
    iteration: s82/s84 reduce to the 4-term form, s86 to the 5-term form.
    BitBudgetError if the full iteration passes bit_budget bits."""
    if family not in SOMOS_TAGS:
        raise QuiverError(f"somos_reduce supports families {', '.join(SOMOS_TAGS)}")
    if family == "s86":
        return Report(family, [reduce_somos5(param, steps, bit_budget)])
    return Report(family, [reduce_somos4(family, param, steps, bit_budget)])


# ---------------------------------------------------------------------------
# per-suite verification drivers
# ---------------------------------------------------------------------------

# each suite's reduction checks; lambdas look the reducers up at call time
_REDUCTIONS = {
    "s81": lambda: [reduce_s81(TAME_PARAM["s81"], 30)],
    "s82": lambda: [reduce_somos4("s82", p, 30) for p in (1, 2, 3)],
    "s83": lambda: [reduce_s83(0, 30), reduce_s83(1, 6)],
    "s84": lambda: [reduce_somos4("s84", l, 30) for l in (1, 2, 3)],
    "s85": lambda: [reduce_s85(1, 30), reduce_s85(2, 6)],
    "s86": lambda: [reduce_somos5(2, 30), reduce_somos5(3, 10)],
}


def verify_section(
    tag: str,
    seeds: int = 10,
    horizon: int = 50,
    rng: random.Random | None = None,
) -> Report:
    """Template periodicity (long exact runs at the tame parameter, bounded
    runs otherwise) plus the suite's reduction checks."""
    if tag not in SECTION_TAGS:
        raise QuiverError(f"unknown section tag {tag!r}")
    seeds, horizon = _integer(seeds, "seeds", least=0), _integer(horizon, "horizon", least=1)
    rng = rng or random.Random(20240 + int(tag[1:]))

    def draw():
        return Fraction(rng.randint(1, 6), rng.randint(1, 6))

    report = Report(tag)
    template = BUILTIN_TEMPLATES[tag]
    need = template.claimed_period + template.max_offset()
    tame = TAME_PARAM[tag]
    sys = _tsys_for(tag, tame)
    for s in range(seeds):
        seqs = iterate_system(sys, _window(sys, draw), horizon + need + 2)
        res = verify_periodic(seqs, template, horizon)
        report.add(
            f"{tag} param={tame} seed {s + 1}: quantity has exact period "
            f"{template.claimed_period} over {horizon} steps",
            res.ok,
            res.detail,
        )
    # heavier parameters: the exact values grow like S^q in the largest
    # monomial exponent sum S, so iterate under a bit budget and verify the
    # quantity as far as that allows
    for value in (tame + 1, tame + 2):
        sys_v = _tsys_for(tag, value)
        seqs = iterate_system(
            sys_v, _window(sys_v, draw), 12 + need, bit_budget=DEFAULT_BIT_BUDGET
        )
        short = len(seqs["z"]) - required_window(sys_v)["z"] - need
        if short < 2:
            report.add(
                f"{tag} param={value}: bit budget too small for a periodic check",
                False,
            )
            continue
        res = verify_periodic(seqs, template, short)
        report.add(
            f"{tag} param={value}: quantity periodic over {short} steps "
            "(growth-bounded horizon)",
            res.ok,
        )
    report.rows.extend(_REDUCTIONS[tag]())
    return report
