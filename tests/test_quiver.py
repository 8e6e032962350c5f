import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverperiod import (
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Error,
    Period2Spec,
    Permutation,
    QuiverError,
    Seed,
    epsilon,
    extract_system,
    find_relabeling,
    is_connected,
    is_period1,
    is_period2,
    mu1_partner,
    mutate,
    period1_from_row,
    permute,
    run_orbit,
    tabulate_system,
)

import quiverperiod.families as fm

from oracles import (
    all_matrices,
    arrow_mutate,
    permutation_power_direct,
    permute_direct,
    residual_direct,
    upper_pairs,
)

MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def random_matrix(rng, n, bound):
    return ExchangeMatrix.from_entries(
        n,
        {
            (i, j): rng.randint(-bound, bound)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        },
    )


@st.composite
def matrices(draw, max_n=6, bound=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entries[(i, j)] = draw(st.integers(min_value=-bound, max_value=bound))
    return ExchangeMatrix.from_entries(n, entries)


class TestMutate:
    def test_markov_mutation_value(self):
        # hand-applied exchange formula; cross-checked by the arrow procedure
        expected = ExchangeMatrix.from_rows([[0, -2, 2], [2, 0, -2], [-2, 2, 0]])
        assert mutate(MARKOV, 1) == expected
        assert arrow_mutate(MARKOV, 1) == expected

    def test_involution_on_markov(self):
        assert mutate(mutate(MARKOV, 1), 1) == MARKOV

    def test_zero_matrix_fixed(self):
        Z = ExchangeMatrix.zero(3)
        assert mutate(Z, 2) == Z

    def test_vertex_out_of_range(self):
        with pytest.raises(QuiverError):
            mutate(MARKOV, 4)
        with pytest.raises(QuiverError):
            mutate(MARKOV, 0)

    def test_agrees_with_arrow_procedure(self):
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(2, 6)
            B = random_matrix(rng, n, 4)
            k = rng.randint(1, n)
            assert mutate(B, k) == arrow_mutate(B, k)

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_involution_and_skew(self, B):
        for k in range(1, B.n + 1):
            M = mutate(B, k)
            ExchangeMatrix.from_rows(M.rows)  # validates skew-symmetry
            assert mutate(M, k) == B

    # mutate, permute and negate build their results unchecked; the checked
    # constructor must accept every one of them, and each must equal its oracle
    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_derived_matrices_pass_the_checked_constructor(self, B, data):
        from quiverperiod.families import negate

        s = Permutation(B.n, tuple(data.draw(st.permutations(range(1, B.n + 1)))))
        flipped = ExchangeMatrix.from_rows([[-x for x in row] for row in B.rows])
        derived = [(permute(B, s), permute_direct(B, s)), (negate(B), flipped)]
        derived += [(mutate(B, k), arrow_mutate(B, k)) for k in range(1, B.n + 1)]
        for M, oracle in derived:
            assert ExchangeMatrix(M.rows) == M
            assert all(type(x) is int for x in M.flatten())
            assert M == oracle

    def test_solver_outputs_and_partners_pass_the_checked_constructor(self):
        from quiverperiod import SearchJob, search

        specs = [
            spec
            for n in range(2, 6)
            for shape in (ONE_CYCLE, TWO_CYCLE)
            for spec in (Period2Spec(n, shape, k) for k in range(2, n + 1))
            if spec.in_canonical_range()
        ]
        count = 0
        for spec in specs:
            n, k, kp = spec.n, spec.k, spec.partner_k()
            rotation = permutation_power_direct(Permutation.rotation(n), 1 - k)
            for B in search(SearchJob(spec, 2)):
                assert ExchangeMatrix(B.rows) == B
                partner, pspec = mu1_partner(B, spec)
                assert ExchangeMatrix(partner.rows) == partner
                want = permute_direct(arrow_mutate(B, 1), rotation)
                if spec.shape == TWO_CYCLE:
                    want = permute_direct(want, Permutation.from_cycles(n, [list(range(kp, n + 1))]))
                assert partner == want and pspec == Period2Spec(n, spec.shape, kp)
                count += 1
        assert count > 300


class TestEpsilon:
    def test_both_positive(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 2, (2, 3): 3})
        assert epsilon(B, 1, 2, 3) == 6

    def test_mixed_signs_vanish(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 2, (2, 3): -3})
        assert epsilon(B, 1, 2, 3) == 0
        B2 = ExchangeMatrix.from_entries(3, {(1, 2): -2, (2, 3): 3})
        assert epsilon(B2, 1, 2, 3) == 0

    def test_both_negative(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): -2, (2, 3): -3})
        assert epsilon(B, 1, 2, 3) == -6

    @given(matrices(max_n=5, bound=4))
    @settings(max_examples=60, deadline=None)
    def test_formula(self, B):
        n = B.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for l in range(1, n + 1):
                    a, c = B.b(i, j), B.b(j, l)
                    assert 2 * epsilon(B, i, j, l) == abs(a) * c + a * abs(c)


class TestPermute:
    def test_markov_cycle(self):
        s = Permutation.from_cycles(3, [(1, 2, 3)])
        C = permute(MARKOV, s)
        for i in range(1, 4):
            for j in range(1, 4):
                assert C.b(s(i), s(j)) == MARKOV.b(i, j)

    def test_identity(self):
        assert permute(MARKOV, Permutation.identity(3)) == MARKOV

    def test_group_action(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 6)
            B = random_matrix(rng, n, 3)
            s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
            t = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
            assert permute(permute(B, s), t) == permute(B, t.compose(s))

    def test_degree_mismatch(self):
        with pytest.raises(QuiverError):
            permute(MARKOV, Permutation.identity(4))

    def test_matches_double_loop(self):
        last_of_each_n = {spec.n: B for _, spec, B in fm.regression_instances(2)}
        for B in [MARKOV, *(last_of_each_n[n] for n in (3, 4, 5))]:
            for image in permutations(range(1, B.n + 1)):
                s = Permutation(B.n, image)
                assert permute(B, s) == permute_direct(B, s), (B, image)


class TestPermutationPower:
    def test_matches_repeated_composition(self):
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randint(1, 8)
            s = Permutation(n, tuple(rng.sample(range(1, n + 1), n)))
            identity = Permutation.identity(n)
            order = next(m for m in range(1, 1000) if permutation_power_direct(s, m) == identity)
            exps = set(range(-3 * n, 3 * n + 1)) | {0, order, -order, 2 * order, -3 * order}
            for exp in sorted(exps):
                assert s ** exp == permutation_power_direct(s, exp), (s, exp)


class TestPeriod2Predicate:
    def test_triangle_family(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        assert is_period2(B, Period2Spec(3, ONE_CYCLE, 2))

    def test_markov(self):
        assert is_period2(MARKOV, Period2Spec(3, ONE_CYCLE, 2))

    def test_single_arrow_is_not(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1})
        assert not is_period2(B, Period2Spec(3, ONE_CYCLE, 2))

    def test_spec_validation(self):
        with pytest.raises(QuiverError):
            Period2Spec(3, ONE_CYCLE, 1)
        with pytest.raises(QuiverError):
            Period2Spec(3, ONE_CYCLE, 4)
        with pytest.raises(QuiverError):
            Period2Spec(3, "other", 2)
        # beyond the canonical range is still a valid equation
        spec = Period2Spec(6, ONE_CYCLE, 5)
        assert not spec.in_canonical_range()

    def test_sigma_shapes(self):
        assert Period2Spec(5, ONE_CYCLE, 2).sigma().image == (2, 3, 4, 5, 1)
        assert Period2Spec(5, TWO_CYCLE, 3).sigma().image == (2, 1, 4, 5, 3)
        assert Period2Spec(4, TWO_CYCLE, 2).sigma().image == (1, 3, 4, 2)

    # the predicate against the arrow-count residual of tests/oracles.py, which
    # shares no code with quiver.mutate
    @pytest.mark.parametrize("n, bound", [(3, 2), (4, 1)])
    def test_matches_residual_oracle_on_every_bounded_matrix(self, n, bound):
        specs = [Period2Spec(n, shape, k) for shape in (ONE_CYCLE, TWO_CYCLE)
                 for k in range(2, n + 1)]
        found = 0
        for B in all_matrices(n, bound):
            for spec in specs:
                want = not any(residual_direct(B, spec))
                assert is_period2(B, spec) == want, (spec, B.flatten())
                found += want
        assert found  # some solutions, so both answers are exercised

    def test_matches_residual_oracle_on_perturbed_instances(self):
        # every instance, and every one-entry +-1 change of it, so the
        # check meets a first differing row at each row index
        checked = 0
        for fid, spec, B in fm.regression_instances(1):
            assert is_period2(B, spec) and not any(residual_direct(B, spec)), str(fid)
            for (i, j) in upper_pairs(spec.n):
                for step in (1, -1):
                    rows = [list(r) for r in B.rows]
                    rows[i - 1][j - 1] += step
                    rows[j - 1][i - 1] -= step
                    C = ExchangeMatrix.from_rows(rows)
                    assert is_period2(C, spec) == (not any(residual_direct(C, spec))), (
                        str(fid), i, j, step)
                    checked += 1
        assert checked > 1000

    def test_degree_mismatch(self):
        with pytest.raises(QuiverError, match=r"^degree mismatch: matrix 4, spec 3$"):
            is_period2(ExchangeMatrix.zero(4), Period2Spec(3, ONE_CYCLE, 2))


class TestPeriod1:
    def test_construction_row_n3(self):
        B = period1_from_row((-1, -1))
        assert is_period1(B)
        assert B.first_row() == (-1, -1)

    def test_markov_not_period1(self):
        assert not is_period1(MARKOV)

    def test_zero_matrix(self):
        assert is_period1(ExchangeMatrix.zero(3))

    def test_recurrence_quiver_row(self):
        B = period1_from_row((-1, 2, -1))
        assert is_period1(B)
        assert B.first_row() == (-1, 2, -1)

    def test_two_vertices(self):
        assert period1_from_row((3,)) == ExchangeMatrix.from_rows([[0, 3], [-3, 0]])
        assert is_period1(period1_from_row((3,)))

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_entry_must_be_an_integer(self, bad):
        with pytest.raises(QuiverError, match=r"entry b\[1\]\[3\] must be an integer"):
            period1_from_row((1, bad, 1))

    def test_palindrome_violation(self):
        with pytest.raises(QuiverError):
            period1_from_row((1, 2, 3))

    def test_equivalence_small(self):
        # every period-1 matrix has a palindromic first row and equals the
        # construction from that row; exhaustive for n <= 4, |b| <= 2
        for n in (2, 3, 4):
            for B in all_matrices(n, 2):
                row = B.first_row()
                palindromic = all(
                    row[j - 2] == row[n - j] for j in range(2, n + 1)
                )
                fm = palindromic and B == period1_from_row(row)
                assert fm == is_period1(B), B


class TestMu1Partner:
    def test_triangle_self_paired(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
        spec = Period2Spec(3, ONE_CYCLE, 2)
        B2, spec2 = mu1_partner(B, spec)
        assert B2 == B and spec2 == spec

    def test_requires_period2(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1})
        with pytest.raises(QuiverError):
            mu1_partner(B, Period2Spec(3, ONE_CYCLE, 2))

    def test_partner_k_values(self):
        assert Period2Spec(5, ONE_CYCLE, 2).partner_k() == 4
        assert Period2Spec(5, TWO_CYCLE, 3).partner_k() == 4
        assert Period2Spec(4, TWO_CYCLE, 2).partner_k() == 4

    def test_matches_two_step_oracle_route(self):
        # arrow-count mutation at 1, then the rotation by 1 - k and, for the
        # two-cycle shape, the cycle (k',...,n), each by the double loop
        for fid, spec, B in fm.regression_instances(1):
            n, kp = spec.n, spec.partner_k()
            want = permute_direct(
                arrow_mutate(B, 1), permutation_power_direct(Permutation.rotation(n), 1 - spec.k)
            )
            if spec.shape == TWO_CYCLE:
                want = permute_direct(want, Permutation.from_cycles(n, [list(range(kp, n + 1))]))
            assert mu1_partner(B, spec) == (want, Period2Spec(n, spec.shape, kp)), str(fid)

    def test_degree_mismatch_is_not_a_period2_error(self):
        with pytest.raises(QuiverError, match=r"^degree mismatch: matrix 4, spec 3$") as info:
            mu1_partner(ExchangeMatrix.zero(4), Period2Spec(3, ONE_CYCLE, 2))
        assert not isinstance(info.value, Period2Error)

    def test_double_partner_isomorphic(self):
        rng = random.Random(3)
        instances = fm.regression_instances(2)
        for fid, spec, B in rng.sample(instances, 25):
            B2, spec2 = mu1_partner(B, spec)
            assert is_period2(B2, spec2)
            B3, spec3 = mu1_partner(B2, spec2)
            assert spec3 == spec
            assert find_relabeling(B3, B) is not None


class TestFindRelabeling:
    def test_first_relabeling_in_lex_order(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 5)
            A = random_matrix(rng, n, 2)
            B = permute(A, Permutation(n, tuple(rng.sample(range(1, n + 1), n))))
            if rng.random() < 0.3:
                B = random_matrix(rng, n, 2)  # mostly not a relabeling of A
            want = next(
                (s for s in (Permutation(n, p) for p in permutations(range(1, n + 1)))
                 if permute_direct(A, s) == B),
                None,
            )
            assert find_relabeling(A, B) == want

    def test_degree_mismatch_is_none(self):
        assert find_relabeling(MARKOV, ExchangeMatrix.zero(4)) is None


class TestConnected:
    def test_markov(self):
        assert is_connected(MARKOV)

    def test_zero(self):
        assert not is_connected(ExchangeMatrix.zero(4))

    def test_two_components(self):
        B = ExchangeMatrix.from_entries(4, {(1, 2): 1, (3, 4): 1})
        assert not is_connected(B)

    def test_single_vertex(self):
        assert is_connected(ExchangeMatrix.zero(1))


_NOT_PERIOD2 = (ExchangeMatrix.from_entries(3, {(1, 2): 1}), Period2Spec(3, ONE_CYCLE, 2))
PERIOD2_CHECKS = {
    "mu1_partner": lambda B, spec: mu1_partner(B, spec),
    "run_orbit": lambda B, spec: run_orbit(Seed.ones(B), spec, 2),
    "extract_system": lambda B, spec: extract_system(B, spec, "T"),
    "tabulate_system": lambda B, spec: tabulate_system(B, spec, "Y"),
}


@pytest.mark.parametrize("check", sorted(PERIOD2_CHECKS))
def test_a_failed_period2_equation_raises_period2_error(check):
    # the one type for "this matrix is not period 2 for this spec", which the
    # CLI maps to exit 1; a QuiverError still, for library callers
    with pytest.raises(Period2Error, match="period-2 equation") as info:
        PERIOD2_CHECKS[check](*_NOT_PERIOD2)
    assert isinstance(info.value, QuiverError)


def test_a_malformed_request_is_not_a_period2_error():
    with pytest.raises(QuiverError) as info:
        extract_system(MARKOV, Period2Spec(3, ONE_CYCLE, 2), "Q")
    assert not isinstance(info.value, Period2Error)
