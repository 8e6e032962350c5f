"""T- and Y-systems of period-2 quivers: mutation points, exponent rules,
closed-form extraction, forward iteration and periodic quantities.

Slot naming: ("z", p) and ("y", p) address the two interleaved sequences of a
system; for Y-kind systems the same slots carry the coefficient sequences
(printed as A and B).  Two independent routes build a system: extract_system
reads the exponents off B(0) and B(1) = mu_1(B) via the closed forms, while
tabulate_system walks the mutation-point windows; the test suite requires them
to agree exactly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .cluster import (
    OrbitTrace,
    _coefficient,
    _lift_all,
    _monomials,
    _plain,
    _quotient,
)
from .quiver import (
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    is_period2,
    mutate,
)

Slot = tuple[str, int]


# ---------------------------------------------------------------------------
# forward mutation points
# ---------------------------------------------------------------------------


def vertex_at(spec: Period2Spec, u: int) -> int:
    """The vertex mutated at time u: nu^r(1) for u = 2r, nu^r(k) for u = 2r+1."""
    r, l = divmod(u, 2)
    orbit = spec.nu_orbit(1 if l == 0 else spec.k)
    return orbit[r % len(orbit)]


def lambdas_at(spec: Period2Spec, i: int, u: int) -> tuple[int, int]:
    """(lambda_plus, lambda_minus) for the point (i, u)."""
    n, k = spec.n, spec.k
    if spec.shape == ONE_CYCLE:
        if u % 2 == 0:
            return 2 * k - 1, 2 * n - 2 * k + 1
        return 2 * n - 2 * k + 1, 2 * k - 1
    gap = 2 * (k - 1) if i <= k - 1 else 2 * (n - k + 1)
    return gap, gap


def _b_at(spec: Period2Spec, B0: ExchangeMatrix, B1: ExchangeMatrix, j: int, i: int, u: int) -> int:
    """b[j][i] at time u, reduced to B(0)/B(1) by orbit periodicity."""
    r, l = divmod(u, 2)
    s = spec.sigma() ** r
    mat = B0 if l == 0 else B1
    return mat.b(s(j), s(i))


def h_exponent(
    j: int, v: int, i: int, u: int,
    spec: Period2Spec, B0: ExchangeMatrix, B1: ExchangeMatrix,
) -> tuple[int, int]:
    """(H+, H-) for the pair of mutation points (j, v) and (i, u).

    Nonzero only when u lies strictly inside (v - lambda_minus(j, v), v); the
    value is the positive (resp. negative) part of b[j][i] at time u.
    """
    if vertex_at(spec, v) != j or vertex_at(spec, u) != i:
        raise QuiverError("not forward mutation points")
    _, lam_minus = lambdas_at(spec, j, v)
    if not v - lam_minus < u < v:
        return 0, 0
    b = _b_at(spec, B0, B1, j, i, u)
    return max(b, 0), max(-b, 0)


def g_exponent(
    j: int, v: int, i: int, u: int,
    spec: Period2Spec, B0: ExchangeMatrix, B1: ExchangeMatrix,
) -> tuple[int, int]:
    """(G+, G-): nonzero when v lies inside (u, u + lambda_plus(i, u)), with
    the sign bracket taken on -b[j][i] at time v."""
    if vertex_at(spec, v) != j or vertex_at(spec, u) != i:
        raise QuiverError("not forward mutation points")
    lam_plus, _ = lambdas_at(spec, i, u)
    if not u < v < u + lam_plus:
        return 0, 0
    b = _b_at(spec, B0, B1, j, i, v)
    return max(-b, 0), max(b, 0)


# ---------------------------------------------------------------------------
# system specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    """One of the two interleaved equations.

    lhs is a product of two slots; iterating forward solves for lhs[1].
    For T-kind systems, plus/minus are the exponent maps of the two monomials
    on the right; for Y-kind, they are the exponents on (1 + S(q+p)) in the
    numerator and (1 + S(q+p)^-1) in the denominator.
    """

    lhs: tuple[Slot, Slot]
    plus: dict[Slot, int] = field(hash=False, default_factory=dict)
    minus: dict[Slot, int] = field(hash=False, default_factory=dict)

    def factors(self) -> list[tuple[Slot, int]]:
        """(slot, exponent) pairs: plus as it is, then minus negated."""
        return [*self.plus.items(), *((slot, -e) for slot, e in self.minus.items())]


@dataclass(frozen=True)
class SystemSpec:
    kind: str  # "T", "Y" or "TZ"
    spec: Period2Spec
    B0: ExchangeMatrix
    eq1: EquationSpec
    eq2: EquationSpec

    def __post_init__(self):
        if self.kind not in ("T", "Y", "TZ"):
            raise QuiverError(f"unknown system kind {self.kind!r}")
        if self.B0.n != self.spec.n:
            raise QuiverError(f"b is {self.B0.n}x{self.B0.n} but n is {self.spec.n}")
        for eq in (self.eq1, self.eq2):
            if len(eq.lhs) != 2:
                raise QuiverError(f"lhs {list(eq.lhs)!r} must have exactly two slots")
            # offsets and exponents are plain ints: type() also rules out bool
            for seq, off in (*eq.lhs, *eq.plus, *eq.minus):
                if seq not in ("z", "y") or type(off) is not int or off < 0:
                    raise QuiverError(f"bad slot {(seq, off)!r}")
            for table in (eq.plus, eq.minus):
                for slot, e in table.items():
                    if type(e) is not int or e < 0:
                        raise QuiverError(f"bad exponent {e!r} at {slot}")

    def equations(self) -> tuple[EquationSpec, EquationSpec]:
        return self.eq1, self.eq2

    # -- rendering ---------------------------------------------------------
    def _slot_name(self, slot: Slot) -> str:
        seq, off = slot
        if self.kind == "Y":
            seq = {"z": "A", "y": "B"}[seq]
        arg = "q" if off == 0 else f"q+{off}"
        return f"{seq}({arg})"

    def _monomial(self, table: dict[Slot, int], wrap: str | None = None) -> str:
        if not table:
            return "1"
        parts = []
        for slot in sorted(table):
            e = table[slot]
            name = self._slot_name(slot)
            if wrap == "plus":
                name = f"(1+{name})"
            elif wrap == "minus":
                name = f"(1+{name}^-1)"
            parts.append(name + (f"^{e}" if e != 1 else ""))
        return "*".join(parts)

    def text(self) -> str:
        lines = []
        for label, eq in (("eq1", self.eq1), ("eq2", self.eq2)):
            lhs = "*".join(self._slot_name(s) for s in eq.lhs)
            if self.kind in ("T", "TZ"):
                rhs = f"{self._monomial(eq.plus)} + {self._monomial(eq.minus)}"
                if self.kind == "TZ":
                    zname = "Zz" if label == "eq1" else "Zy"
                    rhs = f"{zname}(q)*({rhs})"
            else:
                rhs = f"{self._monomial(eq.plus, 'plus')} / {self._monomial(eq.minus, 'minus')}"
            lines.append(f"{label}: {lhs} = {rhs}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        def enc(eq):
            return {
                "lhs": [[s, o] for s, o in eq.lhs],
                "plus": [[s, o, e] for (s, o), e in sorted(eq.plus.items())],
                "minus": [[s, o, e] for (s, o), e in sorted(eq.minus.items())],
            }

        return {
            "format": "quiverperiod/system-v1",
            "kind": self.kind,
            "n": self.spec.n,
            "shape": self.spec.shape,
            "k": self.spec.k,
            "b": [list(r) for r in self.B0.rows],
            "eq1": enc(self.eq1),
            "eq2": enc(self.eq2),
        }

    @staticmethod
    def from_dict(data: dict) -> "SystemSpec":
        if data.get("format") != "quiverperiod/system-v1":
            raise QuiverError("not a quiverperiod/system-v1 object")

        def dec(obj):
            return EquationSpec(
                lhs=tuple((s, o) for s, o in obj["lhs"]),
                plus={(s, o): e for s, o, e in obj["plus"]},
                minus={(s, o): e for s, o, e in obj["minus"]},
            )

        spec = Period2Spec(data["n"], data["shape"], data["k"])
        return SystemSpec(
            data["kind"],
            spec,
            ExchangeMatrix.from_rows(data["b"]),
            dec(data["eq1"]),
            dec(data["eq2"]),
        )


def _checked(B: ExchangeMatrix, spec: Period2Spec, kind: str) -> tuple[str, ExchangeMatrix]:
    """The upper-cased kind and B(1) = mu_1(B), once kind and B are checked."""
    kind = kind.upper()
    if kind not in ("T", "Y", "TZ"):
        raise QuiverError(f"unknown system kind {kind!r}")
    if not is_period2(B, spec):
        raise QuiverError("matrix does not satisfy the period-2 equation")
    return kind, mutate(B, 1)


def extract_system(B: ExchangeMatrix, spec: Period2Spec, kind: str) -> SystemSpec:
    """Closed-form system: exponents read directly off B(0) and B(1) = mu_1(B).

    Equation idx (0 or 1) has slots p of sequence l (0 for z, 1 for y) from
    1 (z) or idx (y) up to a last offset set by kind and shape.  With the
    anchors (B(0), 1) and (B(1), k), a T-kind slot carries b[v][a] of the
    anchor of equation idx at v = vertex_at(spec, 2p + l), the vertex mutated
    at the slot's time; a Y-kind slot carries -b[a][v] of the anchor of
    sequence l at v = vertex_at(spec, idx - 2p).  Positive values go to plus,
    negative ones to minus.
    """
    kind, B1 = _checked(B, spec, kind)
    k, m = spec.k, spec.n - spec.k
    # the last z and y offsets of each equation; z starts at 1, y at idx
    last = {
        ("T", ONE_CYCLE): ((m, k - 2), (m, k - 1)),
        ("T", TWO_CYCLE): ((k - 2, m), (k - 1, m)),
        ("Y", ONE_CYCLE): ((k - 1, k - 2), (m, m)),
        ("Y", TWO_CYCLE): ((k - 2, k - 2), (m + 1, m)),
    }["Y" if kind == "Y" else "T", spec.shape]
    produced = ("y", "z") if spec.shape == ONE_CYCLE else ("z", "y")
    anchors = ((B, 1), (B1, k))
    eqs = []
    for idx, (seq0, out, off) in enumerate(zip(("z", "y"), produced, (k - 1, m + 1))):
        plus: dict[Slot, int] = {}
        minus: dict[Slot, int] = {}
        for l, seq in enumerate(("z", "y")):
            for p in range(1 if l == 0 else idx, last[idx][l] + 1):
                if kind == "Y":
                    mat, a = anchors[l]
                    b = -mat.b(a, vertex_at(spec, idx - 2 * p))
                else:
                    mat, a = anchors[idx]
                    b = mat.b(vertex_at(spec, 2 * p + l), a)
                if b > 0:
                    plus[seq, p] = b
                elif b < 0:
                    minus[seq, p] = -b
        eqs.append(EquationSpec(((seq0, 0), (out, off)), plus, minus))
    return SystemSpec(kind, spec, B, *eqs)


def _slot(u: int) -> Slot:
    """The slot of time u: ("z", r) for u = 2r, ("y", r) for u = 2r+1."""
    r, l = divmod(u, 2)
    return ("z" if l == 0 else "y", r)


def tabulate_system(B: ExchangeMatrix, spec: Period2Spec, kind: str) -> SystemSpec:
    """First-principles system: walk the mutation-point windows and collect
    H (T-kind) or G (Y-kind) exponents.  Independent of extract_system."""
    kind, B1 = _checked(B, spec, kind)
    n = spec.n
    expo = h_exponent if kind in ("T", "TZ") else g_exponent

    def build(u: int) -> EquationSpec:
        i = vertex_at(spec, u)
        lam_plus, _ = lambdas_at(spec, i, u)
        plus: dict[Slot, int] = {}
        minus: dict[Slot, int] = {}
        for v in range(u - 4 * n, u + 4 * n + 1):
            if v == u:
                continue
            j = vertex_at(spec, v)
            hp, hm = expo(j, v, i, u, spec, B, B1)
            slot = _slot(v)
            if hp:
                plus[slot] = plus.get(slot, 0) + hp
            if hm:
                minus[slot] = minus.get(slot, 0) + hm
        return EquationSpec((_slot(u), _slot(u + lam_plus)), plus, minus)

    return SystemSpec(kind, spec, B, build(0), build(1))


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def required_window(sys: SystemSpec) -> dict[str, int]:
    """Initial values needed per sequence: indices 0 .. (producer offset - 1)."""
    out = {}
    for eq in sys.equations():
        seq, off = eq.lhs[1]
        out[seq] = off
    return out


def initial_window_from_seed(sys: SystemSpec, x0: Sequence) -> dict[str, list]:
    """The window whose iteration matches run_orbit from cluster values x0:
    z(q) = x0 at nu^q(1), y(q) = x0 at nu^q(k), the vertices mutated at
    times 2q and 2q+1."""
    need = required_window(sys)
    return {
        seq: [Fraction(x0[vertex_at(sys.spec, 2 * q + l) - 1]) for q in range(need.get(seq, 0))]
        for l, seq in enumerate(("z", "y"))
    }


def _check_slots(sys: SystemSpec, need: dict[str, int]) -> None:
    """Raise unless every slot an equation reads exists when it runs.

    The two equations must produce different sequences.  At step q each
    sequence holds its window plus q produced values, so eq1 may read only
    offsets below the window size; eq2 may also read the value eq1 has just
    produced.
    """
    out1 = sys.eq1.lhs[1]
    if out1[0] == sys.eq2.lhs[1][0]:
        raise QuiverError(f"both equations produce the {out1[0]!r} sequence")
    for idx, eq in enumerate(sys.equations()):
        for slot in (eq.lhs[0], *eq.plus, *eq.minus):
            seq, off = slot
            if off >= need[seq] and not (idx == 1 and slot == out1):
                raise QuiverError(
                    f"eq{idx + 1} reads {sys._slot_name(slot)} before it is produced"
                )


def _at(seqs: dict[str, Sequence], factors: Iterable[tuple[Slot, int]], q: int) -> list:
    """The (value, exponent) pairs of the factors read at step q."""
    return [(seqs[seq][q + off], e) for (seq, off), e in factors]


# bits allowed to a numerator or denominator by callers that bound an
# iteration whose exact values grow exponentially (verify_section, tsys iterate)
DEFAULT_BIT_BUDGET = 600_000


def iterate_system(
    sys: SystemSpec,
    initial: dict[str, Sequence],
    steps: int,
    Z: dict[str, Sequence] | None = None,
    bit_budget: int | None = None,
) -> dict[str, list]:
    """Forward-evaluate the two interleaved equations exactly.

    initial provides the z- and y-windows (sizes must match required_window).
    A system that reads a slot ahead of its production raises QuiverError
    before any arithmetic.
    For TZ-kind systems, Z["z"] and Z["y"] multiply the right-hand sides of
    eq1 and eq2.  With bit_budget set, the iteration stops after the first
    step that produces a value whose numerator or denominator has more than
    bit_budget bits; the number of steps taken is then
    len(result["z"]) - required_window(sys)["z"].  Returns the extended
    sequences as Fractions; a T-kind system runs on S-integers (cluster._SInt).
    """
    if steps < 0:
        raise QuiverError("steps must be >= 0")
    if bit_budget is not None and bit_budget < 1:
        raise QuiverError(f"bit budget must be >= 1, got {bit_budget}")
    need = required_window(sys)
    _check_slots(sys, need)
    seqs: dict[str, list] = {}
    for name in ("z", "y"):
        want = need.get(name, 0)
        got = list(initial.get(name, ()))
        if len(got) != want:
            raise QuiverError(
                f"initial window for {name!r} must have exactly {want} values, got {len(got)}"
            )
        seqs[name] = [Fraction(v) for v in got]
    if sys.kind == "TZ":
        if Z is None:
            Z = {"z": [1] * steps, "y": [1] * steps}
        for name in ("z", "y"):
            if len(Z.get(name, ())) < steps:
                raise QuiverError(f"Z[{name!r}] must provide at least {steps} values")
    elif Z is not None:
        raise QuiverError("Z sequences are only accepted for TZ-kind systems")
    one = Fraction(1)
    if sys.kind == "T":
        *lifted, (one,) = _lift_all(*seqs.values(), [one])
        seqs = dict(zip(seqs, lifted))
    factors = [eq.factors() for eq in sys.equations()]

    def bits(v: Fraction) -> int:
        return max(v.numerator.bit_length(), v.denominator.bit_length())

    for q in range(steps):
        for idx, eq in enumerate(sys.equations()):
            seq, off = eq.lhs[0]
            divisor = seqs[seq][q + off]
            if divisor == 0:
                raise ZeroDivisionError(
                    f"zero divisor at q={q} (non-generic initial data)"
                )
            pairs = _at(seqs, factors[idx], q)
            if sys.kind == "Y":
                val = _coefficient(one, pairs)
            else:
                m_in, m_out = _monomials(one, pairs)
                val = m_in + m_out
            if sys.kind == "TZ":
                val *= Fraction(Z["z" if idx == 0 else "y"][q])
            val /= divisor
            seqs[eq.lhs[1][0]].append(val)
        if bit_budget is not None and max(bits(seqs["z"][-1]), bits(seqs["y"][-1])) > bit_budget:
            break
    return {name: [_plain(v) for v in vals] for name, vals in seqs.items()}


# ---------------------------------------------------------------------------
# periodic quantities
# ---------------------------------------------------------------------------

Monomial = tuple[int, tuple[tuple[Slot, int], ...]]  # (coefficient, ((slot, exp), ...))


@dataclass(frozen=True)
class PeriodicQuantityTemplate:
    """Rational expression in window slots with a claimed exact period."""

    name: str
    num: tuple[Monomial, ...]
    den: tuple[Monomial, ...]
    claimed_period: int  # 1 means constant

    def eval_at(self, seqs: dict[str, Sequence], q: int) -> Fraction:
        def side(monomials):
            return sum(
                (c * _quotient(*_monomials(1, _at(seqs, factors, q))) for c, factors in monomials),
                Fraction(0),
            )

        den = side(self.den)
        if den == 0:
            raise ZeroDivisionError(f"template {self.name} denominator vanished at q={q}")
        return side(self.num) / den

    def slots(self) -> list[Slot]:
        """The slot of every factor, numerator first."""
        return [slot for side in (self.num, self.den) for _, fs in side for slot, _e in fs]

    def max_offset(self) -> int:
        return max((0, *(off for _, off in self.slots())))

    def text(self) -> str:
        def fmt(monomials):
            parts = []
            for coeff, factors in monomials:
                bits = []
                for (seq, off), e in factors:
                    name = f"{seq}(q+{off})" if off else f"{seq}(q)"
                    bits.append(name + (f"^{e}" if e != 1 else ""))
                if not bits:
                    parts.append(str(coeff))
                elif coeff == 1:
                    parts.append("*".join(bits))
                else:
                    parts.append(f"{coeff}*" + "*".join(bits))
            return " + ".join(parts)

        return f"({fmt(self.num)}) / ({fmt(self.den)})"


def _mono(coeff: int, *factors: tuple[str, int, int]) -> Monomial:
    return (coeff, tuple(sorted(((seq, off), e) for seq, off, e in factors)))


BUILTIN_TEMPLATES: dict[str, PeriodicQuantityTemplate] = {
    "s81": PeriodicQuantityTemplate(
        "s81", (_mono(1, ("y", 0, 1)),), (_mono(1, ("z", 1, 1)),), 2
    ),
    "s82": PeriodicQuantityTemplate(
        "s82", (_mono(1, ("z", 0, 1)), _mono(1, ("z", 3, 1))), (_mono(1, ("y", 0, 1)),), 1
    ),
    "s83": PeriodicQuantityTemplate(
        "s83",
        (_mono(1, ("y", 0, 1), ("y", 2, 1)), _mono(1, ("y", 1, 1))),
        (_mono(1, ("z", 1, 1), ("z", 2, 1)),),
        1,
    ),
    "s84": PeriodicQuantityTemplate(
        "s84", (_mono(1, ("z", 0, 1)), _mono(1, ("z", 3, 1))), (_mono(1, ("y", 1, 1)),), 1
    ),
    "s85": PeriodicQuantityTemplate(
        "s85", (_mono(1, ("z", 0, 1)), _mono(1)), (_mono(1, ("y", 0, 1), ("y", 2, 1)),), 2
    ),
    "s86": PeriodicQuantityTemplate(
        "s86",
        (_mono(1, ("y", 0, 1), ("y", 1, 1)), _mono(1, ("y", 3, 1), ("y", 4, 1))),
        (_mono(1, ("z", 1, 1)),),
        1,
    ),
}


_FACTOR = r"([zyAB])\(q(?:\+(\d+))?\)(?:\^(-?\d+))?"
_TERM_RE = re.compile(rf"(?:(\d+)\*?)?((?:{_FACTOR}\*?)*)")


def _split(s: str, sep: str) -> list[str]:
    """s cut at each sep outside parentheses."""
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in s)
    cuts = [i for i, (ch, d) in enumerate(zip(s, depths)) if ch == sep and d == 0]
    return [s[a + 1 : b] for a, b in zip([-1, *cuts], [*cuts, len(s)])]


def _unwrap(s: str) -> str:
    """s without the parentheses that enclose all of it."""
    # they enclose s unless the first "(" closes before the last character
    while s[:1] == "(" and s[-1:] == ")" and len(_split(s, ")")[0]) >= len(s) - 1:
        s = s[1:-1]
    return s


def parse_template(text: str, claimed_period: int = 1, name: str = "custom") -> PeriodicQuantityTemplate:
    """Parse expressions like "(z(q)+z(q+3))/y(q+1)" or "y(q)/z(q+1)".

    Terms are sums of products of slot powers (A/B are aliases for z/y);
    an integer literal term is a constant monomial.
    """
    text = text.replace(" ", "")
    num_text, *rest = _split(text, "/")
    if not rest and "/" in text:
        raise QuiverError(f"cannot split numerator/denominator in {text!r}")
    den_text = "/".join(rest) if rest else "1"

    def parse_side(s) -> tuple[Monomial, ...]:
        monomials = []
        for term in _split(_unwrap(s), "+"):
            term = _unwrap(term)
            if not term or term.endswith("*"):
                raise QuiverError(f"empty term or factor in template {text!r}")
            m = _TERM_RE.fullmatch(term)
            if not m:
                raise QuiverError(f"cannot parse template term {term!r}")
            factors = [
                ({"A": "z", "B": "y"}.get(seq, seq), int(off or 0), int(e or 1))
                for seq, off, e in re.findall(_FACTOR, m.group(2))
            ]
            monomials.append(_mono(int(m.group(1) or 1), *factors))
        return tuple(monomials)

    return PeriodicQuantityTemplate(name, parse_side(num_text), parse_side(den_text), claimed_period)


@dataclass
class PeriodicReport:
    ok: bool
    first_failure: int | None = None


def verify_periodic(
    seqs: dict[str, Sequence] | OrbitTrace,
    template: PeriodicQuantityTemplate,
    horizon: int,
) -> PeriodicReport:
    """Exact check of value(q + period) == value(q) for q = 0 .. horizon-1."""
    if isinstance(seqs, OrbitTrace):
        seqs = seqs.seq
    period = template.claimed_period
    if min(horizon, period) < 1:
        raise QuiverError(f"horizon ({horizon}) and period ({period}) must be >= 1")
    need = horizon + period + template.max_offset()
    used = {seq for seq, _ in template.slots()}
    for name in ("z", "y"):
        if name in used and len(seqs[name]) < need:
            raise QuiverError(
                f"trace too short: template needs {need} values of {name!r}, "
                f"have {len(seqs[name])}"
            )
    values = [template.eval_at(seqs, q) for q in range(horizon + period)]
    first_failure = next((q for q in range(horizon) if values[q + period] != values[q]), None)
    return PeriodicReport(first_failure is None, first_failure)


# template_search screens candidates modulo this prime; nothing is reported on
# the screen alone, every hit is re-checked with exact rationals
_SCREEN_PRIME = 2**61 - 1


def template_search(
    trace: OrbitTrace | dict[str, Sequence],
    shift_bound: int,
    exp_bound: int,
    max_period: int = 4,
    extension: dict[str, Sequence] | None = None,
) -> list[PeriodicQuantityTemplate]:
    """All templates (m1 + m2)/m3 or m1/m2 over the bounded slot window that
    are exactly periodic with period <= max_period along the trace.

    Monomials are products of at most two slot powers (or the constant 1).
    Hits are re-verified on `extension` (a longer, independently generated
    trace) when provided; results are empirical observations, not proofs.

    num/d has period p exactly when num(q+p)*d(q) - num(q)*d(q+p) vanishes,
    which is linear in num.  So for each denominator d and period p the rows
    r_i of that residue for every monomial m_i are folded into one key each
    and hashed once, and (m_i + m_j)/d is a candidate when the keys of r_i
    and r_j cancel (m_i/d when the key of r_i is 0).  The keys are reduced
    modulo _SCREEN_PRIME, which can merge values but never separate equal
    ones, so no template is missed; every candidate is then re-checked with
    Fractions, from its smallest screened period up.  A trace value whose
    denominator the prime divides keeps the keys exact instead.
    """
    if shift_bound < 0 or exp_bound < 1 or max_period < 1:
        raise QuiverError(
            "template search needs shift_bound >= 0, exp_bound >= 1 and max_period >= 1, "
            f"got {shift_bound}, {exp_bound} and {max_period}"
        )
    seqs = trace.seq if isinstance(trace, OrbitTrace) else trace
    slots = [(s, off) for s in ("z", "y") for off in range(shift_bound + 1)]
    monomials: list[Monomial] = [_mono(1)]
    for idx, slot in enumerate(slots):
        for e in range(1, exp_bound + 1):
            monomials.append(_mono(1, (slot[0], slot[1], e)))
        for jdx in range(idx + 1, len(slots)):
            other = slots[jdx]
            for e1 in range(1, exp_bound + 1):
                for e2 in range(1, exp_bound + 1):
                    monomials.append(
                        _mono(1, (slot[0], slot[1], e1), (other[0], other[1], e2))
                    )
    usable = min(len(seqs["z"]), len(seqs["y"])) - shift_bound - max_period
    if usable < 3:
        raise QuiverError("trace too short for template search")
    if extension is not None:
        need = shift_bound + max_period + 2
        have = min(len(extension["z"]), len(extension["y"]))
        if have < need:
            raise QuiverError(
                f"extension too short for template search: need {need} values "
                f"of z and y, have {have}"
            )

    window = {s: seqs[s][: usable + shift_bound] for s in ("z", "y")}
    prime = _SCREEN_PRIME
    if any(v.denominator % prime == 0 for vals in window.values() for v in vals):
        norm, red = operator.pos, window
    else:
        norm = prime.__rmod__
        red = {
            s: [v.numerator * pow(v.denominator, -1, prime) % prime for v in vals]
            for s, vals in window.items()
        }
    screen = [
        [
            norm(c * _monomials(1, _at(red, factors, q))[0])
            for q in range(usable)
        ]
        for c, factors in monomials
    ]
    # the zero test stays exact: a monomial vanishes where one of its slots does
    nonzero = [
        all(v != 0 for (s, off), _ in factors for v in window[s][off : off + usable])
        for _, factors in monomials
    ]

    # the row r_i(q) = m_i(q+p)*d(q) - m_i(q)*d(q+p) of each monomial is folded
    # into one key sum_q w_q*r_i(q) = sum_k m_i(k)*fold[k] with fixed weights;
    # the fold is linear, so rows that cancel give keys that cancel, and keys
    # that cancel by chance fail the exact re-check
    weights = [pow(3, q + 1, prime) for q in range(usable)]
    periods: dict[tuple[int, int, int], list[int]] = {}
    for p in range(1, max_period + 1):
        for di, dv in enumerate(screen):
            if not nonzero[di]:
                continue
            fold = [0] * usable
            for q in range(usable - p):
                fold[q + p] += weights[q] * dv[q]
                fold[q] -= weights[q] * dv[q + p]
            fold = list(map(norm, fold))
            index: dict[int | Fraction, list[int]] = {}
            for i, v in enumerate(screen):
                index.setdefault(norm(sum(map(operator.mul, v, fold))), []).append(i)
            for key, group in index.items():
                partners = index.get(norm(-key), ())
                for i in group:
                    if not key and i != di:
                        periods.setdefault((i, i, di), []).append(p)
                    for j in partners[bisect.bisect_right(partners, i) :]:
                        periods.setdefault((i, j, di), []).append(p)

    @functools.cache
    def exact(i: int) -> list:
        c, factors = monomials[i]
        return [c * _quotient(*_monomials(1, _at(seqs, factors, q))) for q in range(usable)]

    found = []
    for ni, nj, di in sorted(periods):
        num_vals = exact(ni) if ni == nj else [a + b for a, b in zip(exact(ni), exact(nj))]
        vals = [a / b for a, b in zip(num_vals, exact(di))]
        for period in periods[ni, nj, di]:
            if all(vals[q + period] == vals[q] for q in range(usable - period)):
                num = (monomials[ni],) if ni == nj else (monomials[ni], monomials[nj])
                tmpl = PeriodicQuantityTemplate(
                    f"found-p{period}", num, (monomials[di],), period
                )
                if extension is not None:
                    ext_h = have - shift_bound - period - 1
                    if not verify_periodic(extension, tmpl, ext_h).ok:
                        break
                found.append(tmpl)
                break
    return found


# ---------------------------------------------------------------------------
# T_Z systems
# ---------------------------------------------------------------------------


def tz_condition_holds(sys: SystemSpec, Z: dict[str, Sequence], steps: int) -> bool:
    """The multiplicative constraint: for each equation and every q, the
    product of Z over its slots with exponents (plus - minus) equals 1."""
    for eq in sys.equations():
        factors = eq.factors()
        max_off = max((off for (_, off), _e in factors), default=0)
        for q in range(steps - max_off):
            if _quotient(*_monomials(1, _at(Z, factors, q))) != 1:
                return False
    return True


def check_TZ_condition(
    Z: dict[str, Sequence],
    sys: SystemSpec,
    initial: dict[str, Sequence] | None = None,
    steps: int = 12,
) -> bool:
    """Whether the monomial substitution into the Y-system solves it.

    Evaluates the product condition on the Z sequences and cross-checks it by
    iterating the TZ system, forming the plus/minus monomial ratio for each
    equation, and plugging the result into the extracted Y-system for `steps`
    values of q.  The two verdicts must agree (they do, by construction of the
    systems); disagreement raises.
    """
    if sys.kind not in ("T", "TZ"):
        raise QuiverError("check_TZ_condition needs a T- or TZ-kind system")
    tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
    need = required_window(tz)
    if initial is None:
        initial = {name: [Fraction(1)] * cnt for name, cnt in need.items()}
    # random Z breaks the exchange cancellations, so value sizes blow up
    # quickly: keep the iterated window as tight as the checks allow
    run = steps + 2 * sys.spec.n + 2
    seqs = iterate_system(tz, initial, run, Z=Z)

    def bar_sequence(eq: EquationSpec, count: int) -> list[Fraction]:
        factors = eq.factors()
        return [_quotient(*_monomials(1, _at(seqs, factors, q))) for q in range(count)]

    count = steps + sys.spec.n + 1
    bars = {"z": bar_sequence(tz.eq1, count), "y": bar_sequence(tz.eq2, count)}
    ysys = extract_system(sys.B0, sys.spec, "Y")
    solves = True
    for eq in ysys.equations():
        (s0, o0), (s1, o1) = eq.lhs
        factors = eq.factors()
        for q in range(steps):
            rhs = _coefficient(Fraction(1), _at(bars, factors, q))
            if bars[s0][q + o0] * bars[s1][q + o1] != rhs:
                solves = False
                break
        if not solves:
            break
    cond = tz_condition_holds(sys, Z, steps + sys.spec.n + 1)
    if cond != solves:
        raise QuiverError(
            "internal inconsistency: Z-product condition and direct substitution disagree"
        )
    return solves
