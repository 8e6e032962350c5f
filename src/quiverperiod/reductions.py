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

from .families import section_family
from .quiver import QuiverError
from .report import Report, Row
from .systems import (
    BUILTIN_TEMPLATES,
    DEFAULT_BIT_BUDGET,
    SystemSpec,
    extract_system,
    initial_window_from_seed,
    iterate_system,
    required_window,
    verify_periodic,
)

SECTION_TAGS = ("s81", "s82", "s83", "s84", "s85", "s86")

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


def _random_window(sys: SystemSpec, rng: random.Random) -> dict[str, list]:
    need = required_window(sys)
    return {
        name: [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(cnt)]
        for name, cnt in need.items()
    }


def _ones_window(sys: SystemSpec) -> dict[str, list]:
    need = required_window(sys)
    return {name: [Fraction(1)] * cnt for name, cnt in need.items()}


def iterate_family(tag: str, value: int, steps: int, window=None) -> dict[str, list]:
    sys = _tsys_for(tag, value)
    if window is None:
        window = _ones_window(sys)
    return iterate_system(sys, window, steps)


# ---------------------------------------------------------------------------
# reduced recurrences per suite
# ---------------------------------------------------------------------------


def reduce_somos4(tag: str, value: int, terms: int, window=None) -> Row:
    """s82/s84: the constant turns the pair into
    z(q+4) z(q) = z(q+1) z(q+3) + C z(q+2)^e; `terms` counts compared
    z-values, seed window included."""
    if tag not in ("s82", "s84"):
        raise QuiverError("reduce_somos4 applies to suites s82 and s84")
    if terms < 6:
        raise QuiverError("need at least 6 terms")
    template = BUILTIN_TEMPLATES[tag]
    sys = _tsys_for(tag, value)
    zwin = required_window(sys)["z"]
    full = iterate_family(tag, value, terms - zwin, window)
    C = template.eval_at(full, 0)
    z = list(full["z"][:4])
    for q in range(terms - 4):
        z.append((z[q + 1] * z[q + 3] + C * z[q + 2] ** value) / z[q])
    ok = len(full["z"]) >= terms and z[:terms] == full["z"][:terms]
    return Row(
        f"{tag} exp={value}: reduced Somos-4 form matches the full system "
        f"for {terms} terms (C={C})",
        ok,
    )


def reduce_somos5(value: int, terms: int, window=None) -> Row:
    """s86: y(q+5) y(q) = y(q+3) y(q+2) + C y(q+1)^(n-1) y(q+4)^(n-1);
    `terms` counts compared y-values, seed window included."""
    if terms < 7:
        raise QuiverError("need at least 7 terms")
    template = BUILTIN_TEMPLATES["s86"]
    full = iterate_family("s86", value, terms - 4, window)
    C = template.eval_at(full, 0)
    y = list(full["y"][:5])
    e = value - 1
    for q in range(terms - 5):
        y.append((y[q + 3] * y[q + 2] + C * y[q + 1] ** e * y[q + 4] ** e) / y[q])
    ok = len(full["y"]) >= terms and y[:terms] == full["y"][:terms]
    return Row(
        f"s86 n={value}: reduced Somos-5 form matches the full system "
        f"for {terms} terms (C={C})",
        ok,
    )


def reduce_s81(value: int, steps: int, window=None) -> Row:
    """s81: C(q) = y(q)/z(q+1) has period 2 and the system collapses to
    C(q+1) z(q+2) z(q) = C(q)^n z(q+1)^(2n) + 1."""
    full = iterate_family("s81", value, steps, window)
    C0 = full["y"][0] / full["z"][1]
    C1 = full["y"][1] / full["z"][2]
    z = list(full["z"][:2])
    for q in range(steps):
        Cq = C0 if q % 2 == 0 else C1
        Cq1 = C1 if q % 2 == 0 else C0
        z.append((Cq ** value * z[q + 1] ** (2 * value) + 1) / (Cq1 * z[q]))
    ok = z[: steps + 2] == full["z"][: steps + 2]
    return Row(
        f"s81 n={value}: period-2 quantity reduces the pair to a single "
        f"recurrence matching {steps} terms",
        ok,
    )


def reduce_s81_y(value: int, A_seq, B_seq, steps: int) -> Row:
    """s81 coefficient side: D(q) = A(q+1)/B(q) has period 2; replacing
    B(q) = A(q+1)/D(q) in the pair leaves the single recurrence
    A(q+2) A(q) = D(q+1) (1+A(q+1))^n (1 + A(q+1)/D(q))^n."""
    D0 = A_seq[1] / B_seq[0]
    D1 = A_seq[2] / B_seq[1]
    A = list(A_seq[:2])
    n = value
    for q in range(steps):
        Dq = D0 if q % 2 == 0 else D1
        Dq1 = D1 if q % 2 == 0 else D0
        A.append(Dq1 * (1 + A[q + 1]) ** n * (1 + A[q + 1] / Dq) ** n / A[q])
    ok = A[: steps + 2] == list(A_seq[: steps + 2])
    return Row(
        f"s81 n={value}: coefficient-side period-2 quantity reduces the "
        f"Y-pair, matching {steps} terms",
        ok,
    )


def reduce_s83(value: int, steps: int, window=None) -> Row:
    """s83: with the constant C the pair becomes
    y(q+3) y(q) = C z(q+2)^2 y(q+1)^n y(q+2)^n + 1,
    C z(q+2) z(q+1) = y(q) y(q+2) + y(q+1)   (z not fully eliminated)."""
    full = iterate_family("s83", value, steps + 1, window)
    C = BUILTIN_TEMPLATES["s83"].eval_at(full, 0)
    y = list(full["y"][:3])
    z = list(full["z"][:3])
    n = value
    for q in range(steps):
        y.append((C * z[q + 2] ** 2 * y[q + 1] ** n * y[q + 2] ** n + 1) / y[q])
        z.append((y[q + 1] * y[q + 3] + y[q + 2]) / (C * z[q + 2]))
    ok = (
        y[: steps + 3] == full["y"][: steps + 3]
        and z[: steps + 3] == full["z"][: steps + 3]
    )
    return Row(
        f"s83 n={value}: half-reduced pair reproduces the full trace "
        f"for {steps} terms (C={C})",
        ok,
    )


def reduce_s85(value: int, steps: int, window=None) -> Row:
    """s85: C(q) = (z(q)+1)/(y(q+2) y(q)) has period 2 and eliminates z:
    C(q) y(q+4) y(q+2) y(q) = (C(q+1) y(q+3) y(q+1) - 1)^m y(q+2) + y(q+4) + y(q),
    i.e. substituting z(q) = C(q) y(q+2) y(q) - 1 into the second equation."""
    full = iterate_family("s85", value, steps, window)
    tmpl = BUILTIN_TEMPLATES["s85"]
    C0 = tmpl.eval_at(full, 0)
    C1 = tmpl.eval_at(full, 1)
    y = list(full["y"][:4])
    m = value
    for q in range(steps):
        Cq = C0 if q % 2 == 0 else C1
        Cq1 = C1 if q % 2 == 0 else C0
        rhs = (Cq1 * y[q + 3] * y[q + 1] - 1) ** m * y[q + 2] + y[q]
        denom = Cq * y[q + 2] * y[q] - 1
        y.append(rhs / denom)
    ok = y[: steps + 4] == full["y"][: steps + 4]
    return Row(
        f"s85 m={value}: period-2 quantity eliminates z, matching {steps} terms",
        ok,
    )


def somos_reduce(
    family: str, param: int, steps: int = 30, window=None
) -> Report:
    """Reduce one of the Somos-producing suites and compare with the full
    iteration: s82/s84 reduce to the 4-term form, s86 to the 5-term form."""
    if family not in ("s82", "s84", "s86"):
        raise QuiverError("somos_reduce supports families s82, s84, s86")
    report = Report(family)
    if family in ("s82", "s84"):
        report.rows.append(reduce_somos4(family, param, steps, window))
    else:
        report.rows.append(reduce_somos5(param, steps, window))
    return report


# ---------------------------------------------------------------------------
# per-suite verification drivers
# ---------------------------------------------------------------------------


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
    rng = rng or random.Random(20240 + int(tag[1:]))
    report = Report(tag)
    template = BUILTIN_TEMPLATES[tag]
    tame = TAME_PARAM[tag]
    sys = _tsys_for(tag, tame)
    pad = template.max_offset() + template.claimed_period + 2
    for s in range(seeds):
        window = _random_window(sys, rng)
        seqs = iterate_system(sys, window, horizon + pad)
        res = verify_periodic(seqs, template, horizon)
        report.add(
            f"{tag} param={tame} seed {s + 1}: quantity has exact period "
            f"{template.claimed_period} over {horizon} steps",
            res.ok,
            "" if res.ok else f"first failure at q={res.first_failure}",
        )
    # heavier parameters: the exact values grow like S^q in the largest
    # monomial exponent sum S, so iterate under a bit budget and verify the
    # quantity as far as that allows
    fam, pname = section_family(tag)
    for value in (tame + 1, tame + 2):
        lo = fam.param_min.get(pname, 0)
        if value < lo:
            continue
        sys_v = _tsys_for(tag, value)
        window = _random_window(sys_v, rng)
        need = template.claimed_period + template.max_offset()
        seqs = iterate_system(sys_v, window, 12 + need, bit_budget=DEFAULT_BIT_BUDGET)
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
    # reductions
    if tag == "s81":
        report.rows.append(reduce_s81(tame, 30))
    elif tag == "s82":
        for p in (1, 2, 3):
            report.rows.append(reduce_somos4("s82", p, 30))
    elif tag == "s83":
        report.rows.append(reduce_s83(0, 30))
        report.rows.append(reduce_s83(1, 6))
    elif tag == "s84":
        for l in (1, 2, 3):
            report.rows.append(reduce_somos4("s84", l, 30))
    elif tag == "s85":
        report.rows.append(reduce_s85(1, 30))
        report.rows.append(reduce_s85(2, 6))
    elif tag == "s86":
        report.rows.append(reduce_somos5(2, 30))
        report.rows.append(reduce_somos5(3, 10))
    return report
