import hashlib
import random
from fractions import Fraction as F
from math import gcd

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
    laurent_check,
    mutate,
    mutate_seed,
    permute,
    run_orbit,
)
import quiverperiod.families as fm
from quiverperiod.cluster import _SBase
from oracles import coefficient_orbit_direct, laurent_values_direct

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

    def test_run_orbit_keeps_input_types(self):
        # values never replaced keep the type they came in with; a y no
        # mutation has touched (j != k, b_jk = 0 so far) is still its input
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        x0 = (1, F(2, 3), -3, F(5))
        y0 = (2, F(1, 3), 5, 7)
        tr = run_orbit(Seed(B, x0, y0), Period2Spec(4, ONE_CYCLE, 2), 6)
        assert [type(v) for v in tr.seq["z"]] == [int, F, int]
        assert [type(v) for v in tr.seq["y"]] == [F, F, F]
        assert [[type(v) for v in s.x] for s in tr.states[:5]] == [
            [int, F, int, F], [F, F, int, F], [F, F, F, int], [F, F, F, int], [int, F, F, F]
        ]
        assert [type(v) for v in tr.seq["A"]] == [int, F, F]
        assert [type(v) for v in tr.seq["B"]] == [F, F, F]
        assert [[type(v) for v in s.y] for s in tr.states[:3]] == [
            [int, F, int, int], [F, F, int, F], [F, F, F, F]
        ]
        assert tr.states[1].y[2] is y0[2]


def typed(values):
    return [(type(v), v) for v in values]


def mixed_values(rng, n):
    return tuple(
        rng.randint(1, 9) if rng.random() < 0.4 else F(rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(n)
    )


class TestCoefficientRoute:
    """run_orbit's separation-formula coefficients against mutate_seed's
    direct rule, value and type, on every weight <= 3 regression instance."""

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
            # building a base with the cofactor costs a 2**16-step trial
            # division, so every fifth instance takes it
            extra = [self.fallback_y0(B.n)] if index % 5 == 0 else []
            for y0 in [mixed_values(rng, B.n)] + extra:
                seed = Seed(B, x0, y0)
                want, want_states = coefficient_orbit_direct(seed, spec, self.STEPS)
                lean = run_orbit(seed, spec, self.STEPS, keep_states=False)
                full = run_orbit(seed, spec, self.STEPS)
                for name in "zyAB":
                    assert typed(lean.seq[name]) == typed(want[name]), (fid, name)
                    assert typed(full.seq[name]) == typed(want[name]), (fid, name)
                assert [typed(s.y) for s in full.states] == [
                    typed(s.y) for s in want_states
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
            assert permute(tr.b_at(u), nu) == tr.b_at(u + 2)

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
            Bu = tr.b_at(u)
            m_in = F(1)
            m_out = F(1)
            for i in range(1, 6):
                wgt = Bu.b(i, w)
                if wgt > 0:
                    m_in *= tr.x_at(i, u) ** wgt
                elif wgt < 0:
                    m_out *= tr.x_at(i, u) ** (-wgt)
            assert tr.x_at(w, u) * tr.x_at(w, u + 1) == m_in + m_out


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
        with pytest.raises(QuiverError, match="steps must be >= 0"):
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
