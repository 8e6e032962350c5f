"""Exact cluster dynamics: rational and Laurent-polynomial seed mutation.

Cluster values are either fractions.Fraction (numeric orbits) or sparse
Laurent polynomials in the initial cluster (symbolic orbits).  Coefficient
values (the y-variables) are always positive fractions.

Exponent vectors are packed into single integers (64 bits per variable with a
large positive bias), so multiplying monomials is one integer addition; all
packing is internal to this module.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

from .quiver import (
    ExchangeMatrix,
    Period2Spec,
    Permutation,
    QuiverError,
    is_period2,
    _mutate_row,
    mutate,
    permute,
)


class NonLaurentError(ArithmeticError):
    """A cluster exchange produced a value outside the Laurent ring."""


_LIMB = 64
_BIAS = 1 << 32


def _pack(exps: Sequence[int]) -> int:
    p = 0
    for i, e in enumerate(exps):
        p |= (e + _BIAS) << (_LIMB * i)
    return p


def _unpack(p: int, nvars: int) -> tuple[int, ...]:
    mask = (1 << _LIMB) - 1
    return tuple(((p >> (_LIMB * i)) & mask) - _BIAS for i in range(nvars))


def _pack_zero(nvars: int) -> int:
    return _pack((0,) * nvars)


def _drop_zeros(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    for e in [e for e, c in terms.items() if not c or type(c) is Fraction and c.denominator == 1]:
        if c := terms[e]:
            terms[e] = int(c)
        else:
            del terms[e]
    return terms


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """Sparse polynomial with integer exponent vectors, possibly negative.

    The canonical form never stores a zero coefficient; equality and hashing
    follow the term dictionary.
    """

    __slots__ = ("nvars", "_terms", "_zero")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], object] | None = None):
        self.nvars = nvars
        self._zero = _pack_zero(nvars)
        packed = {}
        for exps, c in (terms or {}).items():
            if c != 0:
                packed[_pack(exps)] = _norm_coeff(c)
        self._terms = packed

    @classmethod
    def _raw(cls, nvars: int, packed: dict[int, object]) -> "LaurentPoly":
        self = cls.__new__(cls)
        self.nvars = nvars
        self._zero = _pack_zero(nvars)
        self._terms = packed
        return self

    @property
    def terms(self) -> dict[tuple[int, ...], object]:
        """Exponent-tuple view of the terms (unpacked copy)."""
        return {_unpack(p, self.nvars): c for p, c in self._terms.items()}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def constant(nvars: int, c) -> "LaurentPoly":
        return LaurentPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, i: int, power: int = 1) -> "LaurentPoly":
        """x_i^power, i in 1..nvars."""
        if not 1 <= i <= nvars:
            raise QuiverError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = power
        return LaurentPoly(nvars, {tuple(exps): 1})

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, {})

    @staticmethod
    def one(nvars: int) -> "LaurentPoly":
        return LaurentPoly.constant(nvars, 1)

    # -- ring structure ----------------------------------------------------
    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise QuiverError("variable count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return LaurentPoly._raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        zero = self._zero
        small_items = [(e - zero, c) for e, c in small.items()]
        terms: dict[int, object] = {}
        get = terms.get
        for e1, c1 in big.items():
            for e2, c2 in small_items:
                e = e1 + e2
                terms[e] = get(e, 0) + c1 * c2
        return LaurentPoly._raw(self.nvars, _drop_zeros(terms))

    __rmul__ = __mul__

    def _square(self) -> "LaurentPoly":
        """self * self, forming each unordered pair of terms once."""
        items = list(self._terms.items())
        zero = self._zero
        terms: dict[int, object] = {}
        get = terms.get
        for i, (e1, c1) in enumerate(items):
            e1z = e1 - zero
            e = e1z + e1
            terms[e] = get(e, 0) + c1 * c1
            c1x2 = 2 * c1
            for e2, c2 in items[i + 1:]:
                e = e1z + e2
                terms[e] = get(e, 0) + c1x2 * c2
        return LaurentPoly._raw(self.nvars, _drop_zeros(terms))

    def __pow__(self, exp: int):
        if exp < 0:
            raise QuiverError("negative powers only via division")
        result = None
        base = self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if exp:
                base = base._square()
        return LaurentPoly.one(self.nvars) if result is None else result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.nvars, other)
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def term_count(self) -> int:
        return len(self._terms)

    def has_integer_coefficients(self) -> bool:
        return all(isinstance(c, int) for c in self._terms.values())

    def eval(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise QuiverError("value count mismatch")
        terms = self.terms.items()
        one = Fraction(1)
        return sum((c * _quotient(*_monomials(one, zip(values, e))) for e, c in terms), Fraction(0))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            factors = [
                f"x{i + 1}" + (f"^{p}" if p != 1 else "")
                for i, p in enumerate(e)
                if p
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

    # -- division ----------------------------------------------------------
    def monomial_div(self, q: "LaurentPoly") -> "LaurentPoly":
        """Divide by a single-term polynomial (always exact in the Laurent ring)."""
        q = self._coerce(q)
        if not q.is_monomial():
            raise QuiverError("divisor is not a monomial")
        (qe, qc), = q._terms.items()
        shift = qe - self._zero
        terms = {}
        for e, c in self._terms.items():
            terms[e - shift] = _norm_coeff(Fraction(c, 1) / qc) if qc != 1 else c
        return LaurentPoly._raw(self.nvars, terms)

    def _min_exponents(self) -> int:
        """Packed componentwise minimum over all exponent vectors."""
        mask = (1 << _LIMB) - 1
        return sum(
            min(map((mask << (_LIMB * i)).__and__, self._terms))
            for i in range(self.nvars)
        )

    def divide(self, divisor: "LaurentPoly") -> "LaurentPoly | None":
        """Exact quotient self / divisor in the Laurent ring, or None.

        Both operands are shifted so per-variable minimum exponents are 0;
        the shifted divisor then shares no monomial factor, so Laurent
        divisibility reduces to ordinary exact division by leading-term
        elimination in a graded monomial order.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.nvars)
        if divisor.is_monomial():
            return self.monomial_div(divisor)
        nvars = self.nvars
        zero = self._zero
        p_min = self._min_exponents()
        d_min = divisor._min_exponents()
        p_terms = {e - p_min + zero: c for e, c in self._terms.items()}
        d_terms = {e - d_min + zero: c for e, c in divisor._terms.items()}
        quo = _exact_div(p_terms, d_terms, nvars, zero)
        if quo is None:
            return None
        # quo keys carry the bias; adding the relative shift keeps them biased
        shift = p_min - d_min
        return LaurentPoly._raw(
            nvars, {e + shift: _norm_coeff(c) for e, c in quo.items()}
        )


def _exact_div(p_terms: dict, d_terms: dict, nvars: int, zero: int):
    """Exact division of nonneg-exponent packed-term polynomials.

    Returns the quotient dict, or None when the division is not exact.  Each
    key gets an extra top limb holding its total degree, so keys stay additive
    and plain int comparison is a graded order (x_n most significant); the
    leading term is tracked with a lazily cleaned heap of negated keys.
    A coefficient that divides exactly stays an integer; one that does not
    becomes a Fraction.
    """
    top = _LIMB * nvars
    # 2**64 = 1 modulo 2**64 - 1, so the remainder is the sum of the limbs
    bias_sum = nvars * _BIAS
    limb_sum = (1 << _LIMB) - 1

    def graded(terms):
        return {e + ((e % limb_sum - bias_sum) << top): c for e, c in terms.items()}

    d_terms = graded(d_terms)
    d_lead = max(d_terms)
    d_lead_c = d_terms[d_lead]
    d_tail = [(e - d_lead, c) for e, c in d_terms.items() if e != d_lead]
    rem = graded(p_terms)
    heap = [-e for e in rem]
    heapq.heapify(heap)
    low = (1 << top) - 1
    quo: dict = {}
    while rem:
        r_lead_c = 0
        while not r_lead_c:
            r_lead = -heapq.heappop(heap)
            r_lead_c = rem.pop(r_lead, 0)
        diff = r_lead - d_lead + zero
        # a negative component leaves its limb below the bias bit
        if diff & zero != zero:
            return None
        coeff, mod = divmod(r_lead_c, d_lead_c)
        if mod:
            coeff = Fraction(r_lead_c) / d_lead_c
        quo[diff & low] = coeff
        for e, c in d_tail:
            k2 = r_lead + e
            v = rem.get(k2)
            if v is None:
                rem[k2] = -coeff * c
                heapq.heappush(heap, -k2)
            else:
                v -= coeff * c
                if v:
                    rem[k2] = v
                else:
                    del rem[k2]
    return quo


# trial division below 2**16 factors every entry below 2**32 completely, in at
# most 2**16 steps; a larger entry keeps its unfactored rest as one element
_TRIAL = 1 << 16


class _SBase:
    """The fixed coprime base S of one run's values: the primes below _TRIAL
    of its numerators and denominators, and each one's cofactor > 1 unless it
    shares a factor with another of them.  It never changes once built."""

    def __init__(self, values):
        found = set()
        for x in (abs(p) for v in values for p in (v.numerator, v.denominator)):
            d = 2
            while d < _TRIAL and d * d <= x:
                if x % d:
                    d += 1
                else:
                    x //= d
                    found.add(d)
            if x > 1:
                found.add(x)
        self.elems = sorted(b for b in found if all(gcd(b, c) == 1 for c in found - {b}))

    def lift(self, v) -> "_SInt | None":
        """The int or Fraction v as an S-integer, or None outside Z[1/S]."""
        den = self.strip(v.denominator, [0] * len(self.elems))
        num = den and den[0] == 1 and self.strip(v.numerator, [-e for e in den[1]])
        return _SInt(self, *num, v) if num else None

    def strip(self, n: int, exps: list) -> tuple[int, list] | None:
        """n divided by the elements, counted into exps, or None when what is
        left shares a factor with an element (only a cofactor can)."""
        for i, b in enumerate(self.elems if n else ()):
            while not (r := n % b):
                n, exps[i] = n // b, exps[i] + 1
            if gcd(r, b) != 1:
                return None
        return n, exps


@numbers.Rational.register
class _SInt:
    """n * prod(b ** e for b, e in zip(S, exps)), n coprime to S = base.elems:
    a unique form (zero has exps 0), so no operation takes a gcd.  Results
    outside Z[1/S] are Fractions.  Fraction(v) takes the pair as is."""

    __slots__ = ("base", "n", "exps", "src", "_pair")  # src: v lifted

    def __init__(self, base: _SBase, n: int, exps, src=None):
        self.base, self.n, self.src, self._pair = base, n, src, None
        self.exps = tuple(exps) if n else (0,) * len(exps)

    def _coerce(self, other) -> "_SInt | None":
        if isinstance(other, _SInt) and other.base is self.base:
            return other
        return self.base.lift(other) if isinstance(other, (int, Fraction)) else None

    def _fraction(self) -> tuple[int, int]:
        if self._pair is None:
            pairs = list(zip(self.base.elems, self.exps))
            self._pair = (self.n * prod(b ** e for b, e in pairs if e > 0),
                          prod(b ** -e for b, e in pairs if e < 0))
        return self._pair

    numerator = property(lambda self: self._fraction()[0])
    denominator = property(lambda self: self._fraction()[1])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return Fraction(self) * _plain(other)
        return _SInt(self.base, self.n * o.n, [a + b for a, b in zip(self.exps, o.exps)])

    __rmul__ = __mul__

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            elems, low = self.base.elems, list(map(min, self.exps, o.exps))
            fa = prod(b ** (e - m) for b, e, m in zip(elems, self.exps, low))
            fb = prod(b ** (e - m) for b, e, m in zip(elems, o.exps, low))
            if (s := self.base.strip(self.n * fa + o.n * fb, low)) is not None:
                return _SInt(self.base, *s)
        return Fraction(self) + _plain(other)

    __radd__ = __add__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is not None and o.n:
            q, r = divmod(self.n, o.n)
            if not r:
                return _SInt(self.base, q, [a - b for a, b in zip(self.exps, o.exps)])
        return Fraction(self) / _plain(other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return other / Fraction(self) if o is None else o / self

    def __pow__(self, k):
        if isinstance(k, int) and k >= 0:
            return _SInt(self.base, self.n ** k, [e * k for e in self.exps])
        return Fraction(self) ** k

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return Fraction(self) == _plain(other)
        return self.n == o.n and self.exps == o.exps


def _lift_all(*groups: Sequence) -> list[list]:
    """Each group of ints and Fractions as S-integers over one common base;
    a value outside Z[1/S] stays as it is."""
    base = _SBase(v for g in groups for v in g)
    return [[v if (s := base.lift(v)) is None else s for v in g] for g in groups]


def _plain(v):
    """The int or Fraction an S-integer stands for; other values unchanged."""
    if not isinstance(v, _SInt):
        return v
    return Fraction(v) if v.src is None else v.src


@dataclass(frozen=True)
class Seed:
    """Exchange matrix with cluster values x and coefficient values y."""

    B: ExchangeMatrix
    x: tuple
    y: tuple

    def __post_init__(self):
        n = self.B.n
        if len(self.x) != n or len(self.y) != n:
            raise QuiverError("cluster sizes must equal the vertex count")
        for v in self.y:
            if not isinstance(v, (int, Fraction)):
                raise QuiverError("y-values must be rational")
            if v <= 0:
                raise QuiverError("y-values must be strictly positive")

    @property
    def symbolic(self) -> bool:
        return any(isinstance(v, LaurentPoly) for v in self.x)

    @staticmethod
    def ones(B: ExchangeMatrix) -> "Seed":
        n = B.n
        return Seed(B, tuple(Fraction(1) for _ in range(n)), tuple(Fraction(1) for _ in range(n)))

    @staticmethod
    def initial(B: ExchangeMatrix) -> "Seed":
        """Symbolic seed: x_i is the i-th initial cluster variable."""
        n = B.n
        return Seed(
            B,
            tuple(LaurentPoly.variable(n, i) for i in range(1, n + 1)),
            tuple(Fraction(1) for _ in range(n)),
        )


def _monomials(one, pairs):
    """The two exchange monomials of (value, exponent) pairs: the product of
    v ** w over w > 0 and the product of v ** -w over w < 0."""
    m_in = m_out = one
    for v, w in pairs:
        if w > 0:
            m_in = m_in * v ** w
        elif w < 0:
            m_out = m_out * v ** -w
    return m_in, m_out


def _coefficient(one, pairs):
    """The direct coefficient rule over a list of (value, exponent) pairs: the
    product of (1 + v) ** w over w > 0 divided by the product of
    (1 + 1/v) ** -w over w < 0."""
    if any(w < 0 and v == 0 for v, w in pairs):
        raise ZeroDivisionError("zero value in Y-system denominator")
    m_in, m_out = _monomials(one, [(1 + v if w > 0 else 1 + 1 / v, w) for v, w in pairs if w])
    return m_in / m_out


def _exchange(one, pairs, old):
    """The exchange relation: (m_in + m_out) / old for the monomials of pairs.
    A Laurent-polynomial quotient must be exact (NonLaurentError otherwise)."""
    if old == 0:
        raise ZeroDivisionError("cluster value x_k is zero")
    m_in, m_out = _monomials(one, pairs)
    total = m_in + m_out
    if not isinstance(total, LaurentPoly):
        return total / old
    if (new := total.divide(old)) is None:
        raise NonLaurentError("an exchange left the Laurent ring: from an initial seed, a bug")
    return new


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at vertex k: exchange relation for x_k, coefficient
    update for every y, matrix mutation for B.  This is the direct rule that
    run_orbit is checked against; no orbit in this package calls it.

    In symbolic mode the exchange quotient must be a Laurent polynomial,
    which the Laurent phenomenon guarantees from an initial seed; otherwise
    NonLaurentError is raised.
    """
    B = seed.B
    n = B.n
    if not 1 <= k <= n:
        raise QuiverError(f"vertex {k} out of range 1..{n}")
    x = list(seed.x)
    col = [row[k - 1] for row in B.rows]
    one = LaurentPoly.one(n) if seed.symbolic else Fraction(1)
    x[k - 1] = _exchange(one, zip(x, col), x[k - 1])

    yk, one_y = Fraction(seed.y[k - 1]), Fraction(1)
    # a slot with b_jk = 0 keeps its value object: perfbench's tracer tells
    # the touched slots by identity
    y = [Fraction(v) * _coefficient(one_y, [(yk, w)]) if w else v for v, w in zip(seed.y, col)]
    y[k - 1] = 1 / yk
    return Seed(mutate(B, k), tuple(x), tuple(y))


def _relabel(values: Sequence, s: Permutation) -> list:
    """values moved to the relabeled vertices: slot s(i) takes values[i]."""
    out = [None] * len(values)
    for i, v in enumerate(values, start=1):
        out[s(i) - 1] = v
    return out


@dataclass
class OrbitTrace:
    """Mutation-orbit record with the slot sequences of the induced systems.

    seq holds z(q), y(q) (cluster values replaced at steps 2q and 2q+1) and
    A(q), B(q) (the matching coefficient values).  states[u] is the seed just
    before step u, in coordinates relabeled so the next even mutation is at
    vertex 1; accessors translate back to fixed vertex labels.
    """

    spec: Period2Spec
    B0: ExchangeMatrix
    steps: int
    seq: dict[str, list] = field(default_factory=dict)
    states: list[Seed] | None = None

    def _translate(self, i: int, u: int) -> int:
        r = u // 2
        return (self.spec.sigma() ** r)(i)

    def x_at(self, i: int, u: int):
        return self.states[u].x[self._translate(i, u) - 1]

    def b_at(self, u: int) -> ExchangeMatrix:
        r = u // 2
        return permute(self.states[u].B, self.spec.sigma() ** (-r))


def _quotient(num, den) -> Fraction:
    """num / den as a Fraction.  Two S-integers cancel their S-parts first,
    so the only gcd is the one Fraction(num, den) normalises with."""
    if not (isinstance(num, _SInt) and isinstance(den, _SInt)):
        return Fraction(num) / Fraction(den)
    pairs = list(zip(num.base.elems, num.exps, den.exps))
    return Fraction(num.n * prod(b ** (e - d) for b, e, d in pairs if e > d),
                    den.n * prod(b ** (d - e) for b, e, d in pairs if d > e))


def run_orbit(
    s0: Seed,
    spec: Period2Spec,
    steps: int,
    keep_states: bool = True,
) -> OrbitTrace:
    """Alternate mutations at (the images of) vertices 1 and k.

    The schedule mutates at 1, then at k, then relabels by sigma and repeats,
    which tracks the mutation points of the periodic orbit; the recorded z/y
    (and A/B) sequences are the values replaced at each step.

    Coefficients follow the separation formula y_j = prod y0_i ** c_ij *
    prod F_i ** b_ij (Fomin-Zelevinsky, Cluster algebras IV, Props. 3.13 and
    5.1): the F-values, S-integers over the base of y0, take the x exchange
    with C (I at the start, mutated as the rows of [B; C]) weighting y0, and
    a y is formed, with one gcd, only when read.
    """
    if steps < 0:
        raise QuiverError("steps must be >= 0")
    if not is_period2(s0.B, spec):
        raise QuiverError("seed matrix does not satisfy the period-2 equation")
    sigma, n, k = spec.sigma(), spec.n, spec.k
    seq: dict[str, list] = {"z": [], "y": [], "A": [], "B": []}
    states = [s0] if keep_states else None
    numeric = all(isinstance(v, (int, Fraction)) for v in s0.x)
    x = _lift_all(s0.x)[0] if numeric else list(s0.x)
    one_x = LaurentPoly.one(n) if s0.symbolic else Fraction(1)
    y0, (one,) = _lift_all(s0.y, [1])
    F, C, B = [one] * n, [[int(i == j) for j in range(n)] for i in range(n)], s0.B
    ys = list(s0.y)  # each slot's last y, None from a mutation touching it to its next read

    def y_at(j: int):
        if ys[j] is None:
            ys[j] = _quotient(*_monomials(one, zip(y0 + F, (r[j] for r in C + list(B.rows)))))
        return ys[j]

    for u in range(steps):
        k0 = 0 if u % 2 == 0 else k - 1
        seq["zy"[u % 2]].append(x[k0])  # z and A at even steps, y and B at odd
        seq["AB"[u % 2]].append(y_at(k0))
        col = [row[k0] for row in B.rows]
        x[k0] = _exchange(one_x, zip(x, col), x[k0])
        F[k0] = _exchange(one, zip(y0 + F, [r[k0] for r in C] + col), F[k0])
        ys = [None if w or j == k0 else v for j, (v, w) in enumerate(zip(ys, col))]
        C = [_mutate_row(r, B.rows[k0], k0) for r in C]
        B = mutate(B, k0 + 1)
        if u % 2:
            x, F, ys, *C = (_relabel(v, sigma) for v in (x, F, ys, *C))
            B = permute(B, sigma)
        if keep_states:
            states.append(Seed(B, tuple(map(_plain, x)), tuple(map(y_at, range(n)))))
    seq["z"], seq["y"] = (list(map(_plain, seq[name])) for name in "zy")
    return OrbitTrace(spec, s0.B, steps, seq, states)


@dataclass
class LaurentReport:
    """The new cluster value of each step of a symbolic orbit.  Every value is
    a Laurent polynomial (a non-Laurent exchange raises NonLaurentError), so
    laurent is all True; integral flags integer coefficients."""

    depth: int
    values: list

    @property
    def laurent(self) -> list[bool]:
        return [True] * len(self.values)

    @property
    def integral(self) -> list[bool]:
        return [value.has_integer_coefficients() for value in self.values]

    @property
    def all_laurent(self) -> bool:
        return all(self.integral)


def laurent_check(B: ExchangeMatrix, spec: Period2Spec, depth: int) -> LaurentReport:
    """Run the symbolic orbit of run_orbit from the initial seed of B and
    report the new variable of every step: at vertex 1 after an even step,
    at sigma(k) after an odd one (the relabeling by sigma ends it)."""
    states = run_orbit(Seed.initial(B), spec, depth).states
    odd = spec.sigma()(spec.k) - 1
    return LaurentReport(depth, [s.x[odd if u % 2 else 0] for u, s in enumerate(states[1:])])
