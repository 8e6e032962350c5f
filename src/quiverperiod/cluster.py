"""Exact cluster dynamics: rational and Laurent-polynomial seed mutation.

Cluster values are either fractions.Fraction (numeric orbits) or sparse
Laurent polynomials in the initial cluster (symbolic orbits).  Coefficient
values (the y-variables) are always positive fractions.

Exponent vectors are packed into single integers (64 bits per variable with a
large positive bias), so multiplying monomials is one integer addition; all
packing is internal to this module.

A symbolic orbit does not multiply Laurent polynomials in the x-variables.
It carries each cluster variable as x_i = x^g_i F_i(yhat), yhat_j = prod_a
x_a^b0_aj (Fomin-Zelevinsky, Cluster algebras IV, Cor. 6.3): a g-vector and
an F-polynomial, which follow their own exchange rules.  F-polynomials have
nonnegative coefficients (Lee-Schiffler, Ann. of Math. 2015), each at most
F(1), so along one variable a whole fiber of terms packs into one integer
(Kronecker substitution) and a product of fibers is one integer product.
_orbit is the one loop along an orbit: run_orbit records its seeds, and
laurent_check reads only its x-values (no y is formed, no Seed built).
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, pairwise, repeat
from math import gcd, isqrt, prod
from operator import mul
from struct import unpack
from typing import Sequence

from .quiver import (
    ExchangeMatrix,
    Period2Error,
    Period2Spec,
    QuiverError,
    is_period2,
    _integer,
    _mutate_row,
    mutate,
)


class NonLaurentError(ArithmeticError):
    """A cluster exchange produced a value outside the Laurent ring."""


_LIMB = 64
_BIAS = 1 << 32
_MASK = (1 << _LIMB) - 1


def _pack(exps: Sequence[int]) -> int:
    p = 0
    for i, e in enumerate(exps):
        p |= (e + _BIAS) << (_LIMB * i)
    return p


def _unpack(p: int, nvars: int) -> tuple[int, ...]:
    return tuple(((p >> (_LIMB * i)) & _MASK) - _BIAS for i in range(nvars))


def _pack_zero(nvars: int) -> int:
    return _BIAS * (((1 << (_LIMB * nvars)) - 1) // _MASK)


def _drop_zeros(terms: dict) -> dict:
    """Drop zero coefficients and turn integral Fractions into ints."""
    for e in [e for e, c in terms.items() if not c or type(c) is Fraction and c.denominator == 1]:
        if c := terms[e]:
            terms[e] = int(c)
        else:
            del terms[e]
    return terms


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
            if len(exps) != nvars or not all(-_BIAS <= e < _BIAS for e in exps):
                raise QuiverError(
                    f"exponent vector {exps} is not {nvars} exponents in [-2^32, 2^32)"
                )
            packed[_pack(exps)] = c
        self._terms = _drop_zeros(packed)

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
    def variable(nvars: int, i: int) -> "LaurentPoly":
        """x_i, i in 1..nvars."""
        if not 1 <= i <= nvars:
            raise QuiverError(f"variable index {i} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[i - 1] = 1
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
        return sum((c * _quotient(one, zip(values, e)) for e, c in terms), Fraction(0))

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
        terms = {e - shift: Fraction(c, 1) / qc if qc != 1 else c for e, c in self._terms.items()}
        return LaurentPoly._raw(self.nvars, _drop_zeros(terms))

    def _min_exponents(self) -> int:
        """Packed componentwise minimum over all exponent vectors."""
        return sum(
            min(map((_MASK << (_LIMB * i)).__and__, self._terms))
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
        return LaurentPoly._raw(nvars, _drop_zeros({e + shift: c for e, c in quo.items()}))


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


# trial division by the 6,542 primes below 2**16 factors every entry below
# 2**32 completely; a larger entry keeps its unfactored rest as one element.
# Only an entry that outlasts the primes below 2**8 needs the larger table.
_TRIAL = 1 << 16
_PRIMES: dict[int, tuple[int, ...]] = {}  # the primes below each key, sieved on first use


def _primes(hi: int) -> tuple[int, ...]:
    if hi not in _PRIMES:
        sieve = bytearray([1]) * hi
        for p in range(2, isqrt(hi - 1) + 1):
            sieve[p * p :: p] = bytes(len(range(p * p, hi, p)))
        _PRIMES[hi] = tuple(p for p in range(2, hi) if sieve[p])
    return _PRIMES[hi]


class _SBase:
    """The fixed coprime base S of one run's values: the primes below _TRIAL
    of its numerators and denominators, and each one's cofactor > 1 unless it
    shares a factor with another of them.  It never changes once built."""

    def __init__(self, values):
        found = set()
        for x in (abs(p) for v in values for p in (v.numerator, v.denominator)):
            for d in (d for hi in (1 << 8, _TRIAL) for d in _primes(hi)):
                if d * d > x:
                    break
                while not x % d:
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


_DIV_LIMIT = 4000  # bits of divisor or quotient below which divmod is faster


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0, b > 0; once divisor and quotient pass _DIV_LIMIT
    bits (CPython 3.11's divmod is O(q*d)), Burnikel and Ziegler's "Fast Recursive
    Division" (MPI-I-98-1-022, 1998), fed the dividend in divisor-sized chunks."""
    n = b.bit_length()
    if n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    mask, q, r = (1 << n) - 1, 0, 0
    for i in reversed(range((a.bit_length() + n - 1) // n)):
        qi, r = _div2n1n(r << n | (a >> i * n) & mask, b, n)
        q = q << n | qi
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n."""
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    pad = n & 1
    a, b, h = a << pad, b << pad, (n + pad) >> 1
    mask = (1 << h) - 1
    q1, r = _div3n2n(a >> 2 * h, (a >> h) & mask, b, b >> h, b & mask, h)
    q2, r = _div3n2n(r, a & mask, b, b >> h, b & mask, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 * 2**h + a3, b) for b = b1 * 2**h + b2 of 2h bits, a12 < b
    and a3 < 2**h: the quotient of the top halves, corrected at most twice."""
    q, r = ((1 << h) - 1, a12 - (b1 << h) + b1) if a12 >> h == b1 else _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q, r = q - 1, r + b
    return q, r


class _SInt:
    """n * prod(b ** e for b, e in zip(S, exps)), n coprime to S = base.elems:
    a unique form (zero has exps 0), so no operation takes a gcd.  Results
    outside Z[1/S] are Fractions.  It is no numbers.Rational: it has +, -, *,
    /, ** by an int >= 0 and ==, any other operator raises TypeError, and
    _plain is its one way out."""

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
            return Fraction(_plain(self)) * _plain(other)
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
        return Fraction(_plain(self)) + _plain(other)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return Fraction(_plain(self)) - _plain(other)
        return self + _SInt(o.base, -o.n, o.exps)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is not None and o.n:
            q, r = _divmod(abs(self.n), abs(o.n))
            if not r:
                q = q if (self.n < 0) == (o.n < 0) else -q
                return _SInt(self.base, q, [a - b for a, b in zip(self.exps, o.exps)])
        return Fraction(_plain(self)) / _plain(other)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return other / Fraction(_plain(self)) if o is None else o / self

    def __pow__(self, k):
        if isinstance(k, int) and k >= 0:
            return _SInt(self.base, self.n ** k, [e * k for e in self.exps])
        return Fraction(_plain(self)) ** k

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return _plain(self) == _plain(other)
        return self.n == o.n and self.exps == o.exps

    def __bool__(self):
        raise TypeError("an S-integer has no truth value; compare it with 0")


def _lift_all(*groups: Sequence) -> list[list]:
    """Each group of ints and Fractions as S-integers over one common base;
    a value outside Z[1/S] stays as it is."""
    base = _SBase(v for g in groups for v in g)
    return [[v if (s := base.lift(v)) is None else s for v in g] for g in groups]


def _plain(v):
    """The int or Fraction an S-integer stands for; other values unchanged."""
    if not isinstance(v, _SInt):
        return v
    return Fraction(_Reduced(*v._fraction())) if v.src is None else v.src


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
        if not all(type(v) is int or isinstance(v, (Fraction, LaurentPoly)) for v in self.x):
            raise QuiverError("x-values must be rational or Laurent polynomials")
        for v in self.y:
            if not (type(v) is int or isinstance(v, Fraction)):
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


@dataclass
class OrbitTrace:
    """Mutation-orbit record with the slot sequences of the induced systems.

    seq holds z(q), y(q) (cluster values replaced at steps 2q and 2q+1) and
    A(q), B(q) (the matching coefficient values).  states[u] is the seed just
    before step u in the quiver's own vertex labels: states[u].B is B(u) and
    states[u].x[i - 1] is x_i(u).
    """

    spec: Period2Spec
    B0: ExchangeMatrix
    steps: int
    seq: dict[str, list] = field(default_factory=dict)
    states: list[Seed] | None = None


@numbers.Rational.register
class _Reduced:
    """A fraction already in lowest terms with a positive denominator, which
    Fraction(v) takes as it is: a reduced quotient, or the pair of an S-integer."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


def _quotient(one, pairs) -> Fraction:
    """The product of v ** w over the (value, exponent) pairs as a Fraction.

    Two S-integer monomials cancel their S-parts first.  If every factor is an
    S-integer, the numerator is nonzero, the denominator positive, and each
    unit of a w > 0 factor coprime to each unit of a w < 0 factor, the pair is
    already reduced: the S-parts sit on distinct, pairwise coprime elements,
    and units are coprime to S.  Then no gcd of the product is taken; the
    pairwise unit gcds are smaller, and below _DIV_LIMIT bits the one gcd of
    Fraction(num, den) costs less than the check."""
    pairs = list(pairs)
    num, den = _monomials(one, pairs)
    if not (isinstance(num, _SInt) and isinstance(den, _SInt)):
        return Fraction(_plain(num)) / Fraction(_plain(den))
    elems = list(zip(num.base.elems, num.exps, den.exps))
    top = num.n * prod(b ** (e - d) for b, e, d in elems if e > d)
    bottom = den.n * prod(b ** (d - e) for b, e, d in elems if d > e)
    if (top and den.n > 0 and max(top.bit_length(), bottom.bit_length()) > _DIV_LIMIT
            and all(type(v) is _SInt and v.base is num.base for v, w in pairs if w)
            and all(gcd(u.n, v.n) == 1 for u, w in pairs if w > 0 for v, x in pairs if x < 0)):
        return Fraction(_Reduced(top, bottom))
    return Fraction(top, bottom)


def _delta(v: Sequence[int]) -> int:
    """The packed shift by the exponent vector v (no bias): adding it to a
    packed key adds v, as long as every limb stays in range."""
    return sum(e << (_LIMB * i) for i, e in enumerate(v))


def _split(B: ExchangeMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """B = H P with the r columns of H and the r rows of P returned, for the
    rank r of B, and P an integer matrix onto Z^r whose kernel is B's:
    integer column operations (Euclid's, row by row) make B V = [H | 0] for a
    unimodular V, and P is the first r rows of V^-1, kept by the inverse row
    operations."""
    n = B.n
    cols = [list(col) for col in zip(*B.rows)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for row in range(n):
        while len(live := [i for i in range(r, n) if cols[i][row]]) > 1:
            p = min(live, key=lambda i: abs(cols[i][row]))
            for i in live:
                if i != p:
                    q = cols[i][row] // cols[p][row]
                    cols[i] = [a - q * b for a, b in zip(cols[i], cols[p])]
                    inv[p] = [a + q * b for a, b in zip(inv[p], inv[i])]
        if live:
            cols[r], cols[live[0]] = cols[live[0]], cols[r]
            inv[r], inv[live[0]] = inv[live[0]], inv[r]
            r += 1
    return cols[:r], inv[:r]


def _spans(terms: dict, nvars: int) -> list[int]:
    """Max minus min exponent of the packed keys of terms, per variable."""
    out = []
    for i in range(nvars):
        limb = list(map((_MASK << (_LIMB * i)).__and__, terms))
        out.append((max(limb) - min(limb)) >> (_LIMB * i))
    return out


def _fold(terms: dict, nvars: int, shift: int, s: int) -> tuple[int, LaurentPoly]:
    """(low, poly) for the polynomial `terms`: low is its least exponent of
    the variable at bit `shift` of the keys, and poly has one term per fiber
    along that variable, keyed by the other exponents, whose coefficient packs
    the fiber's terms c x^e as the sum of c * 2^(s * (e - low))."""
    mask = _MASK << shift
    low = min(map(mask.__and__, terms))
    fibers: dict[int, int] = {}
    for key, c in terms.items():
        e = key & mask
        outer = key - e + (_BIAS << shift)
        fibers[outer] = fibers.get(outer, 0) + (c << (s * ((e - low) >> shift)))
    return (low >> shift) - _BIAS, LaurentPoly._raw(nvars, fibers)


def _slots(v, s: int):
    """The s-bit slots of the packed F-fiber v, least first (bytes for s = 8)."""
    if type(v) is not int or v < 0:
        raise NonLaurentError("an F-polynomial left the positive integers: a bug")
    w, slots = s // 8, -(-v.bit_length() // s)
    cs = v.to_bytes(slots * w, "little")
    return cs if w == 1 else list(map(int.from_bytes, unpack(f"{w}s" * slots, cs), repeat("little")))


class _Separation:
    """The cluster variables of a symbolic orbit from Seed.initial(B0), as
    x_i = x^g_i F_i(yhat) with yhat_j = prod_a x_a^b0_aj (Fomin-Zelevinsky,
    Cluster algebras IV, Cor. 6.3).

    g_i and F_i start at e_i and 1 and follow (6.13) and Prop. 5.1 there,
    with the c-vectors of run_orbit.  g_i is a packed exponent difference and
    F_i a polynomial in variables z, with z = y until the first exchange
    whose F has more terms than its x: B0 is singular, and F-terms a kernel
    vector apart meet in x.  Then every F moves to z = P y for B0 = H P
    (_split), where distinct z-exponents have distinct x-exponents H z.
    Moving from the start is slower.  F_i stays as its exchange's quotient
    fibers (low, j, s, quo) until another fold, or the move, expands it once.
    """

    def __init__(self, B0: ExchangeMatrix):
        n = self.n = B0.n
        self.B0, self.HP = B0, _split(B0)
        self.b0 = [_delta(col) for col in zip(*B0.rows)]
        self.h = self.b0  # the x-exponent of each z
        self.injective = len(self.HP[0]) == n  # distinct z-keys, distinct x-keys
        self.P: list[list[int]] | None = None  # once the F have moved
        self.g = [1 << (_LIMB * i) for i in range(n)]
        self.F: list = [{_pack_zero(n): 1} for _ in range(n)]
        self.span = [[0] * n for _ in range(n)]

    def _terms(self, i: int) -> dict[int, int]:
        """F_i as a dict of packed z-exponents, expanded in place once."""
        if type(self.F[i]) is tuple:
            low, j, s, quo = self.F[i]
            unit = 1 << (_LIMB * j)
            self.F[i] = {key: c for outer, v in quo._terms.items()
                         for key, c in zip(count(outer + low * unit, unit), _slots(v, s)) if c}
        return self.F[i]

    def _folded(self, i: int, j: int, s: int) -> tuple[int, LaurentPoly]:
        """F_i folded along z_j in s-bit slots, as _fold gives it."""
        if type(F := self.F[i]) is tuple and F[1:3] == (j, s):
            return F[0], F[3]
        return _fold(self._terms(i), self.n, _LIMB * j, s)

    def _y(self, i: int, shift: int) -> tuple[int, LaurentPoly]:
        """y_i = z^(P e_i) folded along the z at bit `shift` of the keys."""
        m = [int(a == i) for a in range(self.n)]
        if self.P is not None:
            m = [row[i] for row in self.P] + [0] * (self.n - len(self.P))
        e = m[shift // _LIMB]
        return e, LaurentPoly._raw(self.n, {_pack(m) - (e << shift): 1})

    def _collapse(self):
        n, (H, P) = self.n, self.HP
        if any(sum(c[a] * r[b] for c, r in zip(H, P)) != self.B0.rows[a][b]
               for a in range(n) for b in range(n)):
            raise ArithmeticError("B0 != H P: a bug")
        self.P, self.injective = P, True
        self.h = [_delta(col) for col in H] + [0] * (n - len(H))
        images = [_delta([row[j] for row in P]) for j in range(n)]  # the z-exponent of y_j
        base, limbs = _pack_zero(n) - _BIAS * sum(images), range(0, _LIMB * n, _LIMB)
        for i in range(n):
            out: dict[int, int] = {}
            for key, c in self._terms(i).items():
                key = base + sum(map(mul, map(_MASK.__and__, map(key.__rshift__, limbs)), images))
                out[key] = out.get(key, 0) + c
            self.F[i], self.span[i] = out, _spans(out, n)

    def exchange(self, k: int, col: list[int], ccol: list[int], f1: int) -> LaurentPoly:
        """The new x_k of the mutation at k (0-based), for the columns b_k and
        c_k before it and f1 = F'_k(1), the numeric F-value from y0 = 1.

        The exchange runs on the fibers along the z_j of largest span, packed
        in slots of whole bytes >= bits(f1).  Each F-coefficient lies in
        [0, f1] (positivity: Lee-Schiffler, Ann. of Math. 2015), so the
        quotient's slots unpack exactly; products and divisions only form
        exact integer evaluations at z_j = 2^s."""
        n, g = self.n, self.g
        g[k] = (sum(b * g[i] for i, b in enumerate(col) if b > 0) - g[k]
                - sum(c * b for c, b in zip(ccol, self.b0) if c > 0))
        j = max(range(n), key=lambda j: sum(abs(b) * self.span[i][j] for i, b in enumerate(col)))
        shift, s = _LIMB * j, 8 * ((f1.bit_length() + 7) // 8)
        # the F-value exchange of run_orbit on y_1..y_n, F_1..F_n, folded along
        # z_j: each as (least exponent of z_j, packed polynomial)
        weights = ccol + col
        folded = {i: self._folded(i - n, j, s) if i >= n else self._y(i, shift)
                  for i, w in enumerate(weights) if w or i == n + k}
        m_in, m_out = _monomials(LaurentPoly._raw(n, {_pack_zero(n): 1}),
                                 [(folded[i][1], w) for i, w in enumerate(weights) if w])
        lo_in, lo_out = (sum(abs(w) * folded[i][0] for i, w in enumerate(weights) if w * sign > 0)
                         for sign in (1, -1))
        low, (dlow, den) = min(lo_in, lo_out), folded[n + k]
        quo = (m_in * (1 << s * (lo_in - low)) + m_out * (1 << s * (lo_out - low))).divide(den)
        if quo is None:
            raise NonLaurentError("an exchange left the Laurent ring: from an initial seed, a bug")
        x, terms, self.span[k] = self._unfold(quo, low - dlow, j, s, f1, _pack_zero(n) + g[k])
        self.F[k] = (low - dlow, j, s, quo)
        if self.P is None and terms > len(x):
            self._collapse()
        return LaurentPoly._raw(n, x)

    def _unfold(self, quo: LaurentPoly, low: int, j: int, s: int, f1: int, gkey: int):
        """The x-terms, the F-term count and the per-variable F-spans of the
        folded quotient, whose fibers start at z_j^low; a step along a fiber
        moves an x-key by h_j, the image of z_j."""
        h, hj, limbs = self.h, self.h[j], range(0, _LIMB * self.n, _LIMB)
        base = gkey + low * hj - _BIAS * sum(h)
        x, total, terms, top = {}, 0, 0, 0
        for outer, v in quo._terms.items():
            cs = _slots(v, s)
            total, terms, top = total + sum(cs), terms + len(cs) - cs.count(0), max(top, len(cs))
            xkey = base + sum(map(mul, map(_MASK.__and__, map(outer.__rshift__, limbs)), h))
            if self.injective and hj:  # hj = 0 only for a z_j fixed at 0
                x.update(compress(zip(range(xkey, xkey + len(cs) * hj, hj), cs), cs))
                continue
            for c in cs:
                if c:
                    x[xkey] = x.get(xkey, 0) + c
                xkey += hj
        if total != f1 or sum(x.values()) != f1:
            raise NonLaurentError("coefficients do not sum to F(1): a bug")
        span = _spans(quo._terms, self.n)
        span[j] = top - 1  # the least exponent of z_j is low, which some fiber meets
        return x, terms, span


def _orbit(s0: Seed, spec: Period2Spec, steps: int):
    """The loop of run_orbit, checked at the call: (k, B, x, y_at) before each
    step and after the last, for k = spec.vertex_at(u) - 1, the live list x
    (S-integers for numbers) and y_at(j), the y at j formed when first read."""
    steps = _integer(steps, "steps", least=0)
    if not is_period2(s0.B, spec):
        raise Period2Error("seed matrix does not satisfy the period-2 equation")
    if s0.symbolic and s0 != Seed.initial(s0.B):
        raise QuiverError("a symbolic orbit starts from Seed.initial(B)")
    n = spec.n
    sep = _Separation(s0.B) if s0.symbolic else None
    x = list(s0.x) if sep else _lift_all(s0.x)[0]
    y0, (one,) = _lift_all(s0.y, [1])
    F, C, B = [one] * n, [[int(i == j) for j in range(n)] for i in range(n)], s0.B
    ys = list(s0.y)  # each slot's last y, None from a mutation touching it to its next read

    def y_at(j: int):
        if ys[j] is None:
            ys[j] = _quotient(one, zip(y0 + F, (r[j] for r in C + list(B.rows))))
        return ys[j]

    def walk():
        nonlocal B, C, ys
        for u in range(steps):
            k0 = spec.vertex_at(u) - 1
            yield k0, B, x, y_at
            col, ccol = [row[k0] for row in B.rows], [r[k0] for r in C]
            F[k0] = _exchange(one, zip(y0 + F, ccol + col), F[k0])
            x[k0] = (sep.exchange(k0, col, ccol, F[k0].numerator) if sep
                     else _exchange(Fraction(1), zip(x, col), x[k0]))
            ys = [None if w or j == k0 else v for j, (v, w) in enumerate(zip(ys, col))]
            C = [_mutate_row(r, B.rows[k0], k0) for r in C]
            B = mutate(B, k0 + 1)
        yield spec.vertex_at(steps) - 1, B, x, y_at

    return walk()


def run_orbit(
    s0: Seed,
    spec: Period2Spec,
    steps: int,
    keep_states: bool = True,
) -> OrbitTrace:
    """Mutate along the periodic orbit, at spec.vertex_at(u) at step u.

    Vertices keep their labels throughout (nothing is relabeled by sigma), so
    the mutation points are nu^r(1) and nu^r(k) at steps 2r and 2r+1; the
    recorded z/y (and A/B) sequences are the values replaced at each step.

    Coefficients follow the separation formula y_j = prod y0_i ** c_ij *
    prod F_i ** b_ij (Fomin-Zelevinsky, Cluster algebras IV, Props. 3.13 and
    5.1): the F-values, S-integers over the base of y0, take the x exchange
    with C (I at the start, mutated as the rows of [B; C]) weighting y0, and
    a y is formed, with one gcd, only when read.

    A symbolic orbit must start from Seed.initial(B) (QuiverError otherwise).
    Its x-values come from the same exchange run on F-polynomials and
    g-vectors, x_i = x^g_i F_i(yhat) (Cor. 6.3 there; see _Separation), with
    the F-values, F_i(1) from y0 = 1, sizing the packed coefficients.  From
    there every exchange divides exactly (the Laurent phenomenon), so a
    NonLaurentError means a bug.
    """
    steps = _integer(steps, "steps", least=0)
    seq: dict[str, list] = {"z": [], "y": [], "A": [], "B": []}
    states = [s0] if keep_states else None
    for u, (k0, B, x, y_at) in enumerate(_orbit(s0, spec, steps)):
        if u and keep_states:
            states.append(Seed(B, tuple(map(_plain, x)), tuple(map(y_at, range(spec.n)))))
        if u < steps:
            seq["zy"[u % 2]].append(x[k0])  # z and A at even steps, y and B at odd
            seq["AB"[u % 2]].append(y_at(k0))
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
    report the new variable of every step, the one at spec.vertex_at(u).

    The values are formed in F-polynomial coordinates (_Separation), never by
    Laurent-polynomial products in x; tests/oracles.py::laurent_values_direct
    forms them by mutate_seed's products and checks them."""
    depth = _integer(depth, "depth", least=0)
    orbit = _orbit(Seed.initial(B), spec, depth)  # each step's k, then the x after it
    return LaurentReport(depth, [x[k] for (k, *_), (_, _, x, _) in pairwise(orbit)])
