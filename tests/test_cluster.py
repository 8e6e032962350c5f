import dataclasses
import hashlib
import numbers
import random
from fractions import Fraction as F
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverperiod import (
    ONE_CYCLE,
    ExchangeMatrix,
    LaurentPoly,
    NonLaurentError,
    Period2Spec,
    QuiverError,
    Seed,
    extract_system,
    initial_window_from_seed,
    iterate_system,
    laurent_check,
    mutate,
    mutate_seed,
    permute,
    required_window,
    run_orbit,
    somos_reduce,
    template_search,
)
import quiverperiod.cluster as cluster
import quiverperiod.families as fm
from quiverperiod.cluster import _DIV_LIMIT, _PRIMES, _SBase, _SInt, _div3n2n, _divmod
from oracles import (
    coefficient_orbit_direct,
    laurent_values_direct,
    relabel_direct,
    s_base_direct,
)

MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def rand_matrix(rng, n, bound=3):
    return ExchangeMatrix.from_entries(
        n,
        {
            (i, j): rng.randint(-bound, bound)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        },
    )


def rand_positive(rng):
    return F(rng.randint(1, 9), rng.randint(1, 9))


class TestLaurentPoly:
    def test_rational_normalization(self):
        # exact rational substrate keeps fractions canonical
        assert F(2, 4) == F(1, 2)
        assert F(2, 4).denominator == 2

    def test_difference_of_squares(self):
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_monomial_division(self):
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        p = x1 * x1 * x2 + x1
        assert p.monomial_div(x1) == x1 * x2 + 1
        with pytest.raises(QuiverError):
            p.monomial_div(x1 + x2)

    def test_divide_detects_non_laurent(self):
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        assert x1.divide(x1 + x2) is None
        # dividing by a monomial is always exact in the Laurent ring
        assert (x1 + x2).divide(x1) == 1 + x2.monomial_div(x1)

    def test_zero_division(self):
        x1 = LaurentPoly.variable(1, 1)
        with pytest.raises(ZeroDivisionError):
            x1.divide(LaurentPoly.zero(1))

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_product_division_roundtrip(self, data):
        nv = data.draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(-2, 3)] * nv)
        # Fraction coefficients make some quotient coefficients non-integral,
        # so division switches from int to Fraction part-way through
        coeffs = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=4)
        terms = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
        a = LaurentPoly(nv, data.draw(terms))
        b = LaurentPoly(nv, data.draw(terms))
        if b.is_zero():
            return
        q = (a * b).divide(b)
        assert q is not None and q == a

    def test_divide_matches_sympy_cancel(self):
        # oracle: p/d is Laurent exactly when the reduced denominator is a
        # monomial, and then the quotient has the same terms
        sympy = pytest.importorskip("sympy")
        rng = random.Random(61)

        def rand_poly(nv):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                c = rng.randint(-4, 4)
                if rng.random() < 0.25:
                    c = F(c, rng.randint(1, 3))
                terms[tuple(rng.randint(-2, 2) for _ in range(nv))] = c
            return LaurentPoly(nv, terms)

        def to_sympy(poly, xs):
            out = sympy.Integer(0)
            for exps, c in poly.terms.items():
                c = sympy.Rational(c.numerator, c.denominator)
                out += c * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
            return out

        seen_none = seen_quotient = 0
        for _ in range(150):
            nv = rng.randint(1, 3)
            xs = sympy.symbols(f"x1:{nv + 1}")
            d = rand_poly(nv)
            if d.is_zero():
                continue
            p = rand_poly(nv) * d if rng.random() < 0.5 else rand_poly(nv)
            num, den = sympy.fraction(sympy.cancel(to_sympy(p, xs) / to_sympy(d, xs)))
            laurent = len(sympy.Add.make_args(sympy.expand(den))) == 1
            q = p.divide(d)
            assert (q is not None) == laurent
            if q is None:
                seen_none += 1
            else:
                seen_quotient += 1
                expected = sympy.expand(num / den).as_coefficients_dict()
                assert sympy.expand(to_sympy(q, xs)).as_coefficients_dict() == expected
        assert seen_none and seen_quotient

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_power_matches_repeated_product(self, data):
        # __pow__ squares with _square; the k-fold product goes through
        # __mul__ only.  The terms must be equal, and so must the int/Fraction
        # type of each coefficient, which products fix by its value.
        nv = data.draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(-3, 3)] * nv)
        positive = data.draw(st.booleans())
        lo = 1 if positive else -4
        coeffs = st.integers(lo, 4) | st.fractions(lo, 4, max_denominator=4)
        terms = data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=5))
        p = LaurentPoly(nv, terms)
        k = data.draw(st.integers(0, 6))
        product = LaurentPoly.one(nv)
        for _ in range(k):
            product = product * p
        power = p ** k
        assert power.terms == product.terms
        assert {e: type(c) for e, c in power.terms.items()} == {
            e: type(c) for e, c in product.terms.items()
        }
        assert all(type(c) is int or c.denominator != 1 for c in power.terms.values())

    def test_power_and_product_coefficient_types_agree(self):
        # the cross term 2 * 2x^2 * x^-1/2 is integral but formed from a
        # Fraction; it used to stay Fraction(2, 1)
        p = LaurentPoly(1, {(2,): 2, (-1,): F(1, 2)})
        for q in (p * p, p ** 2):
            assert q.terms == {(4,): 4, (1,): 2, (-2,): F(1, 4)}
            assert {e: type(c) for e, c in q.terms.items()} == {(4,): int, (1,): int, (-2,): F}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_divide_roundtrip_large_exponents(self, data):
        # exponents near +-10^6 in 5-6 variables exercise the degree limb
        # that division adds on top of the packed exponents
        nv = data.draw(st.integers(5, 6))
        exp = st.builds(
            lambda sign, off: sign * 10 ** 6 + off,
            st.sampled_from([-1, 1]),
            st.integers(-3, 3),
        )
        coeffs = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=4)
        terms = st.dictionaries(st.tuples(*[exp] * nv), coeffs, min_size=1, max_size=4)
        a = LaurentPoly(nv, data.draw(terms))
        b = LaurentPoly(nv, data.draw(terms))
        if b.is_zero():
            return
        assert (a * b).divide(b) == a

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_divide_one_negative_component_is_none(self, data):
        # p does not involve x_i and d = m * (c0 + c1 x_i): the first
        # elimination step meets a quotient exponent of exactly -1 in x_i
        # and nothing else negative, which must be rejected
        nv = data.draw(st.integers(1, 6))
        i = data.draw(st.integers(1, nv))
        exp = st.integers(-10 ** 6, 10 ** 6)
        others = st.tuples(*[exp] * nv).map(
            lambda t: t[: i - 1] + (0,) + t[i:]
        )
        coeffs = st.integers(1, 4) | st.integers(-4, -1) | st.fractions(1, 4, max_denominator=4)
        p = LaurentPoly(nv, data.draw(st.dictionaries(others, coeffs, min_size=1, max_size=4)))
        m = LaurentPoly(nv, {data.draw(st.tuples(*[exp] * nv)): data.draw(coeffs)})
        d = m * (data.draw(coeffs) + data.draw(coeffs) * LaurentPoly.variable(nv, i))
        assert p.divide(d) is None

    def test_str_reads_terms_once(self, monkeypatch):
        a = LaurentPoly(2, {(e, 0): 1 for e in range(50)})
        b = LaurentPoly(2, {(0, e): 1 for e in range(-20, 20)})
        p = a * b
        assert p.term_count() == 2000
        reads = []
        unpack = LaurentPoly.terms.fget
        monkeypatch.setattr(
            LaurentPoly, "terms", property(lambda self: reads.append(1) or unpack(self))
        )
        text = str(p)
        assert len(reads) == 1
        assert text.startswith("x1^49*x2^19 + x1^49*x2^18")

    def test_str_text(self):
        p = LaurentPoly(
            3,
            {(2, -1, 0): 3, (1, 0, 0): -1, (0, 0, 0): 2, (0, 1, 1): F(-1, 2), (0, 0, -2): 1},
        )
        assert str(p) == "3*x1^2*x2^-1 - x1 - 1/2*x2*x3 + 2 + x3^-2"
        assert str(LaurentPoly.zero(2)) == "0"

    def test_powers(self):
        x = LaurentPoly.variable(1, 1)
        assert (x + 1) ** 3 == x * x * x + 3 * x * x + 3 * x + 1
        assert (x + 1) ** 0 == LaurentPoly.one(1)

    def test_integer_coefficient_flag(self):
        x = LaurentPoly.variable(1, 1)
        assert (x + 2).has_integer_coefficients()
        assert not (x * F(1, 2)).has_integer_coefficients()

    def test_eval(self):
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        p = x1 ** 2 * x2 + 3
        assert p.eval([F(2), F(1, 2)]) == F(5)

    def test_malformed_exponent_vectors_rejected(self):
        # a short tuple would read the bias of the missing limb as an
        # exponent, a long one would lose its tail, and an exponent outside
        # the biased limb would spill into its neighbour
        for exps in [(1,), (1, 2, 3), (2 ** 32, 0), (0, -2 ** 32 - 1)]:
            with pytest.raises(QuiverError, match="exponent vector"):
                LaurentPoly(2, {exps: 1})
        edge = (2 ** 32 - 1, -2 ** 32)
        assert LaurentPoly(2, {edge: 1}).terms == {edge: 1}


class TestSeedMutation:
    def test_symbolic_markov_exchange(self):
        s = Seed.initial(MARKOV)
        x1p = mutate_seed(s, 1).x[0]
        x1 = LaurentPoly.variable(3, 1)
        x2 = LaurentPoly.variable(3, 2)
        x3 = LaurentPoly.variable(3, 3)
        assert x1p == (x2 ** 2 + x3 ** 2).monomial_div(x1)

    def test_rational_exchange_with_ones(self):
        B = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
        s = Seed(B, (F(1), F(1)), (F(1), F(1)))
        assert mutate_seed(s, 1).x[0] == F(2)

    def test_coefficient_update(self):
        # literal coefficient rule: the exponent is the signed arrow count
        # from j to k, so y_2' = y_2 (1 + y_1^-1)^-1 here
        B = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
        s = Seed(B, (F(1), F(1)), (F(2), F(3)))
        assert mutate_seed(s, 1).y == (F(1, 2), F(2))
        # a slot with b_jk = 0 keeps its value object, as perfbench's tracer
        # assumes when it tells the touched slots by identity
        B = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        s = Seed(B, (F(1),) * 3, (F(2), F(3), 10**30))
        y = mutate_seed(s, 1).y
        assert y[:2] == (F(1, 2), F(2)) and y[2] is s.y[2]

    def test_zero_cluster_value(self):
        B = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
        s = Seed(B, (F(0), F(1)), (F(1), F(1)))
        with pytest.raises(ZeroDivisionError):
            mutate_seed(s, 1)

    @pytest.mark.parametrize("x", [(0.5, 1.0, 2.0), (True, 1, 1), ("1", 1, 1)],
                             ids=["float", "bool", "string"])
    def test_cluster_values_are_exact(self, x):
        # a float seed once ran, and returned float z/y values
        B = ExchangeMatrix.zero(3)
        with pytest.raises(QuiverError, match="x-values must be rational"):
            Seed(B, x, (1, 1, 1))
        assert run_orbit(Seed(B, (F(1, 2), 1, 2), (1, 1, 1)), Period2Spec(3, ONE_CYCLE, 2),
                         4).seq["z"] == [F(1, 2), 2]

    @pytest.mark.parametrize("y", [(True, 1, 1), (0.5, 1, 1), ("1", 1, 1)],
                             ids=["bool", "float", "string"])
    def test_coefficient_values_are_exact(self, y):
        # the x-values' rule: a bool is not a number here
        with pytest.raises(QuiverError, match="y-values must be rational"):
            Seed(ExchangeMatrix.zero(3), (1, 2, 3), y)

    def test_y_positivity_required(self):
        B = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
        with pytest.raises(QuiverError):
            Seed(B, (F(1), F(1)), (F(-1), F(1)))

    def test_involution_rational(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 6)
            s = Seed(
                rand_matrix(rng, n),
                tuple(rand_positive(rng) for _ in range(n)),
                tuple(rand_positive(rng) for _ in range(n)),
            )
            k = rng.randint(1, n)
            assert mutate_seed(mutate_seed(s, k), k) == s

    def test_involution_symbolic(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 4)
            s = Seed.initial(rand_matrix(rng, n, 2))
            k = rng.randint(1, n)
            assert mutate_seed(mutate_seed(s, k), k) == s

    def test_y_positivity_preserved(self):
        # weight-bounded matrices: the coefficient digits already compound
        # exponentially in the arrow weights
        rng = random.Random(31)
        for _ in range(12):
            n = rng.randint(2, 4)
            s = Seed(
                rand_matrix(rng, n, 2),
                tuple(rand_positive(rng) for _ in range(n)),
                tuple(rand_positive(rng) for _ in range(n)),
            )
            for _ in range(4):
                s = mutate_seed(s, rng.randint(1, n))
                assert all(v > 0 for v in s.y)


class TestSIntegers:
    def test_fixed_prime_base(self):
        # trial division splits 6 into primes; the cofactors 65537 * 65539,
        # 65537 and 65539 share factors, so none of them joins the base, and
        # a value that needs one is left a Fraction
        assert _SBase([F(6)]).elems == [2, 3]
        big = 65537 * 65539
        base = _SBase([F(big), F(65537), F(1, 65539), F(3), F(2)])
        assert base.elems == [2, 3] and base.lift(F(1, 65539)) is None
        value = base.lift(F(3)) * F(1, 65539)
        assert type(value) is F and value == F(3, 65539)
        # a lone cofactor is an element; a sum sharing part of it is a Fraction
        lone = _SBase([F(big)])
        assert lone.elems == [big] and lone.lift(F(65537)) is None
        total = lone.lift(F(1)) + lone.lift(F(65536))
        assert type(total) is F and total == 65537

    def test_prime_table_matches_every_divisor(self):
        # factors on both sides of 2**8 and 2**16, repeated, with cofactors
        # above 2**16 left whole or shared between entries
        rng = random.Random(83)
        factors = [2, 3, 7, 251, 257, 65521, 65537, 65539, 1000003]
        for _ in range(60):
            values = [
                F(rng.choice((-1, 1)) * prod(rng.choices(factors, k=rng.randint(0, 4))),
                  prod(rng.choices(factors, k=rng.randint(0, 2))) * rng.randint(1, 99))
                for _ in range(rng.randint(1, 4))
            ]
            assert _SBase(values).elems == s_base_direct(values), values

    def test_large_prime_table_sieved_on_first_need(self):
        # entries whose factors all lie below 2**8 read the small table only
        _PRIMES.clear()
        assert _SBase([F(6 * 7 * 11, 13), F(255 * 255)]).elems == [2, 3, 5, 7, 11, 13, 17]
        assert list(_PRIMES) == [1 << 8]
        assert _SBase([F(65537 * 65539)]).elems == [65537 * 65539]
        assert list(_PRIMES) == [1 << 8, 1 << 16] and len(_PRIMES[1 << 16]) == 6542

    def test_run_orbit_keeps_input_types(self):
        # values never replaced keep the type they came in with; a y no
        # mutation has touched (j != k, b_jk = 0 so far) is still its input
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        spec = Period2Spec(4, ONE_CYCLE, 2)
        x0 = (1, F(2, 3), -3, F(5))
        y0 = (2, F(1, 3), 5, 7)
        tr = run_orbit(Seed(B, x0, y0), spec, 6)

        def fixed(per_state):
            # the type lists of each state u with its slots relabeled by
            # sigma^(u // 2), moved back to the quiver's own labels
            return [[types[(spec.sigma() ** (u // 2))(i) - 1] for i in range(1, 5)]
                    for u, types in enumerate(per_state)]

        assert [type(v) for v in tr.seq["z"]] == [int, F, int]
        assert [type(v) for v in tr.seq["y"]] == [F, F, F]
        assert [[type(v) for v in s.x] for s in tr.states[:5]] == fixed([
            [int, F, int, F], [F, F, int, F], [F, F, F, int], [F, F, F, int], [int, F, F, F]
        ])
        assert [type(v) for v in tr.seq["A"]] == [int, F, F]
        assert [type(v) for v in tr.seq["B"]] == [F, F, F]
        assert [[type(v) for v in s.y] for s in tr.states[:3]] == fixed([
            [int, F, int, int], [F, F, int, F], [F, F, F, F]
        ])
        assert tr.states[1].y[2] is y0[2]

    # _quotient over the base {2, 3}: units of 3-4x _DIV_LIMIT bits, coprime
    # to 6, put a read above the size gate
    BASE = _SBase([F(2), F(3)])

    @staticmethod
    def unit(rng, scale=3):
        return rng.getrandbits(scale * _DIV_LIMIT) * 6 + 1

    def quotient_read(self, monkeypatch, one, pairs):
        """_quotient against Fraction(num) / Fraction(den) of the plain
        values, value and type; True when it skipped the gcd."""
        reduced = []

        class Spy(cluster._Reduced):
            def __init__(self, *pair):
                reduced.append(pair)
                super().__init__(*pair)

        monkeypatch.setattr(cluster, "_Reduced", Spy)
        num = prod((F(cluster._plain(v)) ** w for v, w in pairs if w > 0), start=F(1))
        den = prod((F(cluster._plain(v)) ** -w for v, w in pairs if w < 0), start=F(1))
        got, want = cluster._quotient(one, pairs), num / den
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        return bool(reduced)

    def test_quotient_coprime_units_skip_the_gcd(self, monkeypatch):
        rng, lift = random.Random(3), self.BASE.lift
        one, a, b, c = (lift(F(v)) for v in (1, self.unit(rng), self.unit(rng), self.unit(rng)))
        pairs = [(a, 2), (lift(F(9, 4)), -1), (b, -1), (lift(F(-3 * self.unit(rng, 1), 2)), 1)]
        assert gcd(a.n, b.n) == 1
        assert self.quotient_read(monkeypatch, one, pairs)
        # a prime shared by the two sides: the gcd of Fraction(num, den) runs
        p = 1_000_003
        pairs = [(lift(F(p * a.n)), 1), (lift(F(p * b.n, 8)), -1), (c, 1)]
        assert not self.quotient_read(monkeypatch, one, pairs)

    def test_quotient_fraction_factor_takes_the_gcd(self, monkeypatch):
        # F(p * u, 3) lifts into Z[1/S] with unit p * u, which shares p with
        # the other side; only an S-integer factor shows its unit
        rng, lift, p = random.Random(5), self.BASE.lift, 1_000_003
        one, a = lift(F(1)), lift(F(p * self.unit(rng)))
        for w in (1, -1):
            pairs = [(F(p * self.unit(rng), 3), w), (a, -w)]
            assert not self.quotient_read(monkeypatch, one, pairs)

    def test_quotient_zero_numerator(self, monkeypatch):
        # the denominator is an S-power above the gate with unit 1, coprime
        # to the zero unit; 0 / d is 0 / 1
        lift = self.BASE.lift
        one, zero = lift(F(1)), lift(F(0))
        assert zero.n == 0 and gcd(zero.n, 1) == 1
        assert not self.quotient_read(monkeypatch, one, [(zero, 1), (lift(F(3 ** 3000)), -1)])

    def test_quotient_negative_unit(self, monkeypatch):
        # a negative unit in the denominator flips both signs; in the
        # numerator it leaves the pair reduced
        rng, lift = random.Random(7), self.BASE.lift
        one, a, b = lift(F(1)), lift(F(self.unit(rng))), lift(F(-self.unit(rng)))
        assert not self.quotient_read(monkeypatch, one, [(a, 1), (b, -1)])
        assert self.quotient_read(monkeypatch, one, [(b, 1), (a, -1)])

    def test_quotient_ignores_exponent_zero_factors(self, monkeypatch):
        # a w = 0 factor is read by neither side: not its value outside Z[1/S],
        # nor its zero, nor a unit it shares with the numerator
        rng, lift = random.Random(11), self.BASE.lift
        one, a, b = lift(F(1)), lift(F(self.unit(rng))), lift(F(self.unit(rng), 9))
        for idle in (F(1, 7), lift(F(0)), a, F(a.n)):
            assert self.quotient_read(monkeypatch, one, [(a, 1), (idle, 0), (b, -1)])

    def test_quotient_below_the_gate(self, monkeypatch):
        # small reads take today's gcd, shared primes or not
        rng, lift = random.Random(13), self.BASE.lift
        one = lift(F(1))
        for _ in range(50):
            a, b = (lift(F(rng.randint(-99, 99), 2 ** rng.randint(0, 9))) for _ in "ab")
            if b.n:
                pairs = [(a, rng.randint(0, 3)), (b, -rng.randint(1, 3)), (lift(F(35)), 1)]
                assert not self.quotient_read(monkeypatch, one, pairs)
        big = lift(F(rng.getrandbits(_DIV_LIMIT - 3) * 6 + 1))
        assert big.numerator.bit_length() == _DIV_LIMIT
        assert not self.quotient_read(monkeypatch, one, [(big, 1), (lift(F(7)), -1)])

    def test_sub(self):
        # an S-integer difference stays one; a difference outside Z[1/S]
        # (a value outside it, or a sum that shares a cofactor) is a Fraction
        lift = self.BASE.lift
        for a, b in [(F(9, 2), F(1, 2)), (F(1), F(1, 3)), (F(5), 5), (F(-7, 6), F(2, 9))]:
            got = lift(a) - (lift(b) if type(b) is F else b)
            assert type(got) is _SInt and got == a - b
        got = lift(F(9, 2)) - F(1, 7)
        assert type(got) is F and got == F(61, 14)
        lone = _SBase([F(65537 * 65539)])
        got = lone.lift(F(1)) - lone.lift(F(-65536))
        assert type(got) is F and got == 65537

    # ints and Fractions whose primes all join the base; OUTSIDE has a prime
    # no drawn value has, so each operator with it takes the Fraction route
    SMALL = st.one_of(st.integers(-40, 40),
                      st.fractions(min_value=-40, max_value=40, max_denominator=40))
    OUTSIDE = F(3, 10007)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(SMALL, SMALL, st.integers(0, 4))
    def test_claimed_operators_match_fractions(self, u, v, k):
        # value and type of every claimed operator against the Fraction
        # computation, with S-integers on one or both sides; _plain is the
        # one way out, and a Fraction it builds is reduced (== compares the
        # stored numerator and denominator)
        a, b, c = F(u), F(v), self.OUTSIDE
        base = _SBase([a, b])
        sa, sb = base.lift(a), base.lift(b)
        assert type(sa) is _SInt and type(sb) is _SInt and base.lift(c) is None
        cases = [
            (sa + sb, a + b), (sa + v, a + b), (u + sb, a + b), (sa + c, a + c),
            (sa - sb, a - b), (sa - v, a - b), (sa - c, a - c),
            (sa * sb, a * b), (sa * v, a * b), (u * sb, a * b), (sa * c, a * c),
            (sa / c, a / c), (sa ** k, a ** k), ((sa - sb) ** k, (a - b) ** k),
            ((sa * sb + sa) * (sb - 1), (a * b + a) * (b - 1)),
        ]
        if b:
            cases += [(sa / sb, a / b), (sa / v, a / b), (u / sb, a / b),
                      (c / sb, c / b), ((sa + sb) / sb, (a + b) / b)]
        for got, want in cases:
            out = cluster._plain(got)
            assert type(out) in (int, F) and out == want and hash(out) == hash(want)
        for x, want in [(sa, a), (sa + sb, a + b), (sa * c, a * c)]:
            for y in (a, b, u, v, c, 0, 1, sb):
                assert (x == y) is (want == cluster._plain(y))
                if type(y) is not _SInt:
                    assert (y == x) is (y == want)

    @pytest.mark.parametrize("op", [
        hash, bool, lambda a: -a, lambda a: 1 - a, lambda a: F(1, 2) - a, lambda a: a < 2,
        abs, float, lambda a: a // a, F,
    ])
    def test_unclaimed_operators_raise(self, op):
        # an S-integer is no numbers.Rational: what it does not claim raises,
        # the zero S-integer's truth value included
        base = _SBase([F(3, 2), F(6)])
        for a in (base.lift(F(3, 2)), base.lift(F(0)), base.lift(F(6)) * base.lift(F(3, 2))):
            assert type(a) is _SInt and not isinstance(a, numbers.Rational)
            with pytest.raises(TypeError):
                op(a)

    def test_public_outputs_hold_no_s_integer(self):
        # run_orbit, iterate_system, somos_reduce and template_search compute
        # on S-integers and hand back ints and Fractions only
        def walk(v):
            assert type(v) is not _SInt
            if isinstance(v, dict):
                v = [*v.keys(), *v.values()]
            elif dataclasses.is_dataclass(v):
                v = [getattr(v, f.name) for f in dataclasses.fields(v)]
            elif not isinstance(v, (list, tuple)):
                return [v]
            return [leaf for x in v for leaf in walk(x)]

        family = fm.FAMILY_BY_KEY["n4-k2-1"]
        B, spec = family.matrix(n=1), family.spec
        x0 = (1, F(2, 3), -3, F(5))
        outputs = [run_orbit(Seed(B, x0, (2, F(1, 3), 5, 7)), spec, 8)]
        for kind in ("T", "Y", "TZ"):
            tsys = extract_system(B, spec, kind)
            window = initial_window_from_seed(tsys, x0) if kind != "Y" else {
                name: [F(i + 2, 3) for i in range(size)]
                for name, size in required_window(tsys).items()}
            outputs.append(iterate_system(tsys, window, 10))
        outputs += [somos_reduce("s82", 1, steps=12), somos_reduce("s86", 2, steps=12),
                    template_search(outputs[1], shift_bound=2, exp_bound=1)]
        leaves = walk(outputs)
        assert sum(type(v) is F for v in leaves) > 100


def _bits(data, label):
    # below, straddling and 3-10x the recursion limit
    return data.draw(st.one_of(
        st.integers(1, _DIV_LIMIT - 1),
        st.integers(_DIV_LIMIT - 40, _DIV_LIMIT + 40),
        st.integers(3 * _DIV_LIMIT, 10 * _DIV_LIMIT),
    ), label=label)


class TestDivmod:
    """cluster._divmod (Burnikel-Ziegler above _DIV_LIMIT) against divmod."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_builtin(self, data):
        rng = data.draw(st.randoms(use_true_random=False))
        # odd and even divisor lengths: an odd one is padded by a bit
        n = max(1, _bits(data, "divisor bits") // 2 * 2 + data.draw(st.integers(0, 1)))
        b = rng.getrandbits(n) | 1 << (n - 1)
        # q = 0 is a dividend below the divisor
        q = rng.getrandbits(_bits(data, "quotient bits")) if data.draw(st.booleans()) else 0
        r = data.draw(st.sampled_from([0, b - 1, rng.randrange(b)]), label="remainder")
        assert _divmod(q * b + r, b) == divmod(q * b + r, b) == (q, r)

    @pytest.mark.parametrize("n", [3 * _DIV_LIMIT, 3 * _DIV_LIMIT + 1, 10 * _DIV_LIMIT + 1])
    def test_recursion_keeps_its_preconditions(self, n, monkeypatch):
        # every 2n-by-n step gets a divisor of exactly n bits and a dividend
        # below b * 2**n: odd lengths are padded, and a top half equal to b1
        # (the all-ones quotient of (b << n) - 1) is estimated, not recursed on
        rng = random.Random(n)
        b = rng.getrandbits(n) | 1 << (n - 1)
        div2n1n = cluster._div2n1n

        def spy(a, b, n):
            assert b.bit_length() == n and 0 <= a < b << n
            return div2n1n(a, b, n)

        monkeypatch.setattr(cluster, "_div2n1n", spy)
        for a in ((b << n) - 1, rng.getrandbits(3 * n)):
            assert _divmod(a, b) == divmod(a, b)

    def test_quotient_much_longer_than_divisor(self):
        # the shape of s81's largest exchange: 847k bits over 57k
        rng = random.Random(61)
        b = rng.getrandbits(57_000) | 1 << 56_999
        a = rng.getrandbits(847_000)
        q, r = divmod(a, b)
        assert _divmod(a, b) == (q, r)
        assert _divmod(a - r, b) == (q, 0)

    def test_estimate_corrected_twice(self, monkeypatch):
        # b1 = 2**(h-1) is the smallest top half and b2 the largest bottom
        # half, so the quotient of the top halves overshoots by 2
        h = 5000
        b1, b2 = 1 << (h - 1), (1 << h) - 1
        b, a12 = b1 << h | b2, b1 * b2
        q, r = _div3n2n(a12, 0, b, b1, b2, h)
        assert (q, r) == divmod(a12 << h, b) and a12 // b1 - q == 2
        calls = []

        def spy(*args):
            calls.append(args)
            return _div3n2n(*args)

        monkeypatch.setattr(cluster, "_div3n2n", spy)
        assert _divmod(a12 << h, b) == (q, r)
        assert (a12, 0, b, b1, b2, h) in calls

    def test_s_integer_quotient_above_limit(self):
        # N parts of 8x and 3x the limit; an exact quotient stays an
        # S-integer with the sign of the Fraction quotient, an inexact one
        # is that Fraction
        rng = random.Random(89)
        base = _SBase([F(2), F(3)])
        b = rng.getrandbits(3 * _DIV_LIMIT) * 6 + 1
        q = rng.getrandbits(5 * _DIV_LIMIT) * 6 + 5
        for sa, sb in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            num, den = F(sa * 8 * q * b), F(sb * b, 3)
            x, y = base.lift(num), base.lift(den)
            assert abs(x.n).bit_length() > 8 * _DIV_LIMIT
            got, want = x / y, num / den
            assert type(got) is _SInt and got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
            got = base.lift(num + 1) / y
            assert type(got) is F and got == (num + 1) / den


def typed(values):
    return [(type(v), v) for v in values]


def mixed_values(rng, n):
    return tuple(
        rng.randint(1, 9) if rng.random() < 0.4 else F(rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(n)
    )


class TestCoefficientRoute:
    """run_orbit's separation-formula coefficients against mutate_seed's
    direct rule, value and type, on every weight <= 3 regression instance.
    The oracle relabels by sigma after each odd step; its states are moved
    back to the quiver's own labels before they are compared."""

    STEPS = 12

    @staticmethod
    def fallback_y0(n):
        # 65536 + 1 shares the factor 65537 with the base's composite cofactor
        # 65537 * 65539, so the first F exchange (y0_1 + 1) leaves the
        # S-integers and the run continues on Fractions
        return (65536, F(1, 65537 * 65539)) + (F(2, 3),) * (n - 2)

    def test_fallback_y0_leaves_the_s_integers(self):
        y0 = self.fallback_y0(3)
        base = _SBase(y0)
        assert base.elems == [2, 3, 65537 * 65539]
        assert type(base.lift(y0[0]) + 1) is F

    def test_matches_direct_mutations(self):
        rng = random.Random(59)
        instances = [inst for inst in fm.regression_instances(1)
                     if max(map(abs, inst[2].flatten())) <= 3]
        assert len(instances) == 86
        for index, (fid, spec, B) in enumerate(instances):
            x0 = mixed_values(rng, B.n)
            # the cofactor run repeats the instance on Fractions, doubling
            # its cost, so every fifth instance takes it
            extra = [self.fallback_y0(B.n)] if index % 5 == 0 else []
            for y0 in [mixed_values(rng, B.n)] + extra:
                seed = Seed(B, x0, y0)
                want, want_states = coefficient_orbit_direct(seed, spec, self.STEPS)
                lean = run_orbit(seed, spec, self.STEPS, keep_states=False)
                full = run_orbit(seed, spec, self.STEPS)
                for name in "zyAB":
                    assert typed(lean.seq[name]) == typed(want[name]), (fid, name)
                    assert typed(full.seq[name]) == typed(want[name]), (fid, name)
                nu = spec.nu()
                assert [typed(s.y) for s in full.states] == [
                    typed(relabel_direct(s, nu ** (u // 2)).y) for u, s in enumerate(want_states)
                ], fid


class TestRunOrbit:
    def test_zero_steps_keeps_initial_seed(self):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        s = Seed.ones(B)
        trace = run_orbit(s, Period2Spec(4, ONE_CYCLE, 2), 0)
        assert trace.states == [s]
        assert trace.seq["z"] == []

    def test_requires_period2(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1})
        with pytest.raises(QuiverError):
            run_orbit(Seed.ones(B), Period2Spec(3, ONE_CYCLE, 2), 2)

    def test_orbit_loop_checks_at_the_call(self):
        # the generator behind run_orbit and laurent_check refuses its
        # arguments before the first value is asked for
        spec, x1 = Period2Spec(3, ONE_CYCLE, 2), LaurentPoly.variable(3, 1)
        for seed, steps, match in [
            (Seed.ones(MARKOV), -1, "steps must be >= 0"),
            (Seed.ones(ExchangeMatrix.from_entries(3, {(1, 2): 1})), 2, "period-2"),
            (Seed(MARKOV, (x1, x1, x1), (1, 1, 1)), 2, "Seed.initial"),
        ]:
            with pytest.raises(QuiverError, match=match):
                cluster._orbit(seed, spec, steps)

    def test_first4node_relation_along_trace(self):
        # z(q) y(q+1) = z(q+1) y(q) + 1 for the 4-vertex weight-1 quiver
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        spec = Period2Spec(4, ONE_CYCLE, 2)
        rng = random.Random(5)
        s = Seed(
            B,
            tuple(rand_positive(rng) for _ in range(4)),
            tuple(rand_positive(rng) for _ in range(4)),
        )
        tr = run_orbit(s, spec, 24, keep_states=False)
        z, y = tr.seq["z"], tr.seq["y"]
        for q in range(9):
            assert z[q] * y[q + 1] == z[q + 1] * y[q] + 1
            assert y[q] * z[q + 3] == z[q + 2] * y[q + 1] + 1

    def test_matrix_periodicity_along_orbit(self):
        B = fm.FAMILY_BY_KEY["n5-k3-2"].matrix(n=1)
        spec = Period2Spec(5, ONE_CYCLE, 3)
        tr = run_orbit(Seed.ones(B), spec, 10)
        nu = spec.nu()
        for u in range(8):
            assert permute(tr.states[u].B, nu) == tr.states[u + 2].B

    def test_exchange_relation_conservation(self):
        # x_w(u) x_w(u+1) equals the exchange products recomputed from B(u)
        B = fm.FAMILY_BY_KEY["n5-k2-5"].matrix(p=2)
        spec = Period2Spec(5, ONE_CYCLE, 2)
        rng = random.Random(8)
        s = Seed(
            B,
            tuple(rand_positive(rng) for _ in range(5)),
            tuple(rand_positive(rng) for _ in range(5)),
        )
        tr = run_orbit(s, spec, 16)
        nu = spec.nu()
        for u in range(16):
            r = u // 2
            w = (nu ** r)(1) if u % 2 == 0 else (nu ** r)(spec.k)
            Bu, x = tr.states[u].B, tr.states[u].x
            m_in = F(1)
            m_out = F(1)
            for i in range(1, 6):
                wgt = Bu.b(i, w)
                if wgt > 0:
                    m_in *= x[i - 1] ** wgt
                elif wgt < 0:
                    m_out *= x[i - 1] ** (-wgt)
            assert x[w - 1] * tr.states[u + 1].x[w - 1] == m_in + m_out


    def test_recorded_values_sit_at_the_mutation_points(self):
        # the z/y (A/B) value of step u is the x (y) of states[u] at the
        # vertex spec.vertex_at(u), on every regression instance
        rng = random.Random(71)
        for fid, spec, B in fm.regression_instances(1):
            s = Seed(B, *(tuple(rand_positive(rng) for _ in range(B.n)) for _ in "xy"))
            tr = run_orbit(s, spec, 6)
            for u in range(6):
                q, odd = divmod(u, 2)
                v = spec.vertex_at(u) - 1
                assert tr.seq["zy"[odd]][q] == tr.states[u].x[v], (fid, u)
                assert tr.seq["AB"[odd]][q] == tr.states[u].y[v], (fid, u)


def typed_terms(values):
    return [{e: (type(c), c) for e, c in v.terms.items()} for v in values]


class TestSeparatedOrbit:
    """The symbolic branch of run_orbit (g-vectors and F-polynomials on
    packed fibers) against mutate_seed's Laurent-polynomial products."""

    @staticmethod
    def moved_to(monkeypatch, B, spec, depth):
        """Check laurent_check against the direct oracle, and return the
        number of z-variables after each move of the F's to z = P y."""
        seen = []
        collapse = cluster._Separation._collapse

        def spy(sep):
            collapse(sep)
            seen.append(len(sep.P))

        monkeypatch.setattr(cluster._Separation, "_collapse", spy)
        values = laurent_check(B, spec, depth).values
        assert typed_terms(values) == typed_terms(laurent_values_direct(B, spec, depth))
        return seen

    @pytest.mark.parametrize("label, rank, moved", [
        # nonsingular: F- and x-terms correspond one to one, nothing moves
        ("N4#3(l=1,m=1,n=1,p=1)", 4, []),
        # kernel dimension 1: the first collision moves the F's once
        ("N3#1(n=2)", 2, [2]),
        ("N3#2()", 2, [2]),  # Markov
        # kernel dimension 2
        ("N4#1(n=2)", 2, [2]),
    ])
    def test_branch(self, monkeypatch, label, rank, moved):
        spec, B = {str(fid): (spec, B) for fid, spec, B in fm.regression_instances(2)}[label]
        assert len(cluster._split(B)[0]) == rank
        assert self.moved_to(monkeypatch, B, spec, 6) == moved

    def test_packed_f_expanded_for_the_move(self, monkeypatch):
        # the move to z = P y reads every F as a term dict: those still
        # packed from their exchange are expanded first, in place
        spec, B = {str(fid): (spec, B) for fid, spec, B in fm.regression_instances(2)}["N3#1(n=2)"]
        packed_before, collapse = [], cluster._Separation._collapse

        def spy(sep):
            packed_before.append(sum(type(F) is tuple for F in sep.F))
            collapse(sep)
            assert all(type(F) is dict for F in sep.F)

        monkeypatch.setattr(cluster._Separation, "_collapse", spy)
        values = laurent_check(B, spec, 6).values
        assert packed_before and packed_before[0] > 0
        assert typed_terms(values) == typed_terms(laurent_values_direct(B, spec, 6))

    def test_last_exchange_f_never_expanded(self, monkeypatch):
        # an F is expanded only when a later exchange folds it another way
        # (or the F's move); no exchange reads the last one
        exchanged, expanded, reused = [], [], []
        exchange, terms = cluster._Separation.exchange, cluster._Separation._terms
        folded = cluster._Separation._folded

        def exchange_spy(sep, k, *args):
            value = exchange(sep, k, *args)
            exchanged.append(sep.F[k])
            return value

        def terms_spy(sep, i):
            if type(sep.F[i]) is tuple:
                expanded.append(sep.F[i])
            return terms(sep, i)

        def folded_spy(sep, i, j, s):
            F = sep.F[i]
            value = folded(sep, i, j, s)
            if type(F) is tuple and sep.F[i] is F:  # read packed, as it is
                reused.append(F)
            return value

        monkeypatch.setattr(cluster._Separation, "exchange", exchange_spy)
        monkeypatch.setattr(cluster._Separation, "_terms", terms_spy)
        monkeypatch.setattr(cluster._Separation, "_folded", folded_spy)
        for fid, spec, B in fm.regression_instances(1):
            exchanged.clear()
            laurent_check(B, spec, 6)
            assert len(exchanged) == 6 and not any(F is exchanged[-1] for F in expanded), fid
        assert expanded and reused

    def test_fold_packs_by_sum(self):
        # packing is evaluation at z_1 = 2^8: a coefficient past 2^8 carries
        terms = {cluster._pack((0, 0)): 300, cluster._pack((1, 0)): 1}
        low, poly = cluster._fold(terms, 2, 0, 8)
        assert low == 0 and poly._terms == {cluster._pack((0, 0)): 300 + 256}

    def test_kernel_without_unit_pivots(self, monkeypatch):
        # this kernel's 2x2 minors have gcd 1, so the basis spans all of it,
        # but none is +-1: no two y_p can be dropped along kernel vectors
        # with v[p] = 1 and 0 at the other p; _split's P still drops both
        fam = fm.FAMILY_BY_KEY["n4-2c3-2"]
        B = fam.matrix(l=4, m=2, n=4, p=5)
        a, b = [-2, 1, 0, -2], [5, 0, -2, 4]
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in B.rows for v in (a, b))
        minors = {a[p] * b[q] - a[q] * b[p] for p in range(4) for q in range(p + 1, 4)}
        assert gcd(*minors) == 1 and not minors & {1, -1}
        assert len(cluster._split(B)[0]) == 2
        assert self.moved_to(monkeypatch, B, fam.spec, 4) == [2]

    def test_rank_zero(self, monkeypatch):
        # every exchange is 2 / x_k; every F collapses to its value at 1
        B, spec = ExchangeMatrix.zero(3), Period2Spec(3, ONE_CYCLE, 2)
        assert self.moved_to(monkeypatch, B, spec, 6) == [0]
        x = [LaurentPoly.variable(3, i) for i in (1, 2, 3)]
        assert laurent_check(B, spec, 6).values == [2 * v.monomial_div(v * v) for v in x] + x

    def test_non_initial_symbolic_seed_raises(self):
        x1, x2, x3 = (LaurentPoly.variable(3, i) for i in (1, 2, 3))
        spec = Period2Spec(3, ONE_CYCLE, 2)
        for seed in [Seed(MARKOV, (x1 + x2, x2, x3), (1, 1, 1)),
                     Seed(MARKOV, (x1, x2, x3), (2, 1, 1)),
                     Seed(MARKOV, (x1, x2, F(3)), (1, 1, 1))]:
            with pytest.raises(QuiverError, match="Seed.initial"):
                run_orbit(seed, spec, 2)
        initial = Seed(MARKOV, (x1, x2, x3), (1, 1, 1))
        assert run_orbit(initial, spec, 2).states == run_orbit(Seed.initial(MARKOV), spec, 2).states

    def test_coefficient_sum_is_checked(self):
        # F'_1 = 1 + y_1 for Markov, so F'_1(1) = 2; any other value raises
        sep = cluster._Separation(MARKOV)
        with pytest.raises(NonLaurentError, match="sum to F"):
            sep.exchange(0, [0, -2, 2], [1, 0, 0], 3)

    def test_regression_sample_matches_direct_oracle(self):
        # the instances beyond regression_instances(1) whose values at x = 1
        # stay below 10^7 for 6 steps; the oracle's cost grows with them
        small = {str(fid) for fid, _, _ in fm.regression_instances(1)}
        sample = [(fid, spec, B) for fid, spec, B in fm.regression_instances(2)
                  if str(fid) not in small
                  and max(run_orbit(Seed.ones(B), spec, 6).states[-1].x) <= 10 ** 7]
        assert len(sample) == 100
        for fid, spec, B in sample:
            got = laurent_check(B, spec, 6).values
            assert typed_terms(got) == typed_terms(laurent_values_direct(B, spec, 6)), fid

    @pytest.mark.parametrize("label", ["N3#2()", "N5_1cycle#1()"])
    def test_depth_8(self, label):
        spec, B = {str(fid): (spec, B) for fid, spec, B in fm.regression_instances(1)}[label]
        assert typed_terms(laurent_check(B, spec, 8).values) == typed_terms(
            laurent_values_direct(B, spec, 8))


class TestLaurentCheck:
    def test_markov_depth6(self):
        rep = laurent_check(MARKOV, Period2Spec(3, ONE_CYCLE, 2), 6)
        assert rep.all_laurent

    def test_first4node_depth6(self):
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=2)
        rep = laurent_check(B, Period2Spec(4, ONE_CYCLE, 2), 6)
        assert rep.all_laurent

    def test_values_match_direct_oracle(self):
        def typed(values):  # coefficient types too: 1 and Fraction(1) differ
            return [{e: (type(c), c) for e, c in v.terms.items()} for v in values]

        for fid, spec, B in fm.regression_instances(1):
            rep = laurent_check(B, spec, 6)
            assert typed(rep.values) == typed(laurent_values_direct(B, spec, 6)), fid

    def test_negative_depth_raises(self):
        with pytest.raises(QuiverError, match="^depth must be >= 0, got -1$"):
            laurent_check(MARKOV, Period2Spec(3, ONE_CYCLE, 2), -1)

    def test_non_laurent_exchange_raises(self):
        # a seed whose x_1 is a sum makes the exchange quotient (1+x2)/(x1+x2),
        # which is not Laurent
        x1 = LaurentPoly.variable(2, 1)
        x2 = LaurentPoly.variable(2, 2)
        B = ExchangeMatrix.from_rows([[0, 1], [-1, 0]])
        bad = Seed(B, (x1 + x2, x2), (F(1), F(1)))
        with pytest.raises(NonLaurentError):
            mutate_seed(bad, 1)

    def test_requires_period2(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1})
        with pytest.raises(QuiverError):
            laurent_check(B, Period2Spec(3, ONE_CYCLE, 2), 4)

    def test_golden_values_read_only_x(self, monkeypatch):
        # laurent_check never forms a coefficient y and builds no Seed but
        # the initial one; the numeric orbit still forms its A/B by _quotient
        built = []

        def boom(num, den):
            raise AssertionError("a y was formed")

        monkeypatch.setattr(cluster, "_quotient", boom)
        monkeypatch.setattr(cluster.Seed, "__post_init__", lambda seed: built.append(seed))
        self.test_golden_values()
        assert built and all(
            s.x == tuple(LaurentPoly.variable(s.B.n, i) for i in range(1, s.B.n + 1))
            for s in built
        )
        with pytest.raises(AssertionError, match="a y was formed"):
            run_orbit(Seed.ones(MARKOV), Period2Spec(3, ONE_CYCLE, 2), 1)

    # sha256 of the depth-6 values, each value written as its sorted
    # (exponents, hex coefficient) terms
    GOLDEN = {
        "N3#2()": "9f6d9d13fc32021624157bedc95308a9ad27cc37168f8d0198cc0715caa6bfe5",
        "N4#3(l=1,m=1,n=1,p=1)": "39cbee49634c1efff8fa3b1092c234450c925e3e6328924f9b642f0d5bffb8a2",
        "N5_1cycle#2(l=1)": "a756bb979d110d9c71da3fb1f939e2e18dcfcf3848aa2e6f21e4226e16e4cc81",
        "N5_1cycle#7(m=1,n=1)": "52a358a8f59d5fc8d70a2d6c9d8aef42af098a7f38d43b246e5774f1fe16223d",
        "N5_other#4(m=1)": "3a32541d7f6c2bb5fd9d5c33bf45166603b921fed5d2b5778ff2dec19bf6b634",
        "N6#3(m=1)": "ade2bc24fde6c6d67e55eadde3df09209b7725e91be2ff36610f14c6e08cc082",
    }

    def test_golden_values(self):
        def hex_coeff(c):
            c = F(c)
            return f"{c.numerator:#x}/{c.denominator:#x}"

        seen = {}
        for fid, spec, B in fm.regression_instances(1):
            if str(fid) in self.GOLDEN:
                h = hashlib.sha256()
                for value in laurent_check(B, spec, 6).values:
                    terms = sorted((e, hex_coeff(c)) for e, c in value.terms.items())
                    h.update(repr(terms).encode() + b";")
                seen[str(fid)] = h.hexdigest()
        assert seen == self.GOLDEN
