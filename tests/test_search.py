import random

import pytest

from quiverperiod import (
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    SearchJob,
    is_connected,
    is_period2,
    mu1_partner,
    residual,
    residual_report,
    search,
)

from oracles import all_matrices, brute_period2, residual_direct, upper_pairs

MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
SPEC32 = Period2Spec(3, ONE_CYCLE, 2)


class TestResidual:
    def test_markov_all_zero(self):
        assert all(v == 0 for v in residual(MARKOV, SPEC32))

    def test_zero_matrix_any_spec(self):
        for spec in (SPEC32, Period2Spec(3, TWO_CYCLE, 2), Period2Spec(4, ONE_CYCLE, 2)):
            assert all(v == 0 for v in residual(ExchangeMatrix.zero(spec.n), spec))

    def test_equivalence_with_period2_exhaustive(self):
        for spec in (SPEC32, Period2Spec(3, TWO_CYCLE, 2)):
            for B in all_matrices(3, 2):
                assert (all(v == 0 for v in residual(B, spec))) == is_period2(B, spec)

    def test_case_labels(self):
        rows = residual_report(MARKOV, SPEC32)
        cases = {pair: case for pair, case, _ in rows}
        # pair {1,k} falls in the third case; {1,3} in the first; {2,3} in the second
        assert cases[(1, 2)] == 3
        assert cases[(1, 3)] == 1
        assert cases[(2, 3)] == 2


class TestSearch:
    def test_bound_validation(self):
        with pytest.raises(QuiverError):
            SearchJob(SPEC32, 0)
        for jobs in (0, -5):
            with pytest.raises(QuiverError, match="jobs must be >= 1"):
                SearchJob(SPEC32, 1, jobs=jobs)

    @pytest.mark.parametrize(
        "spec",
        [
            Period2Spec(3, ONE_CYCLE, 2),
            Period2Spec(3, TWO_CYCLE, 2),
            Period2Spec(4, ONE_CYCLE, 2),
            Period2Spec(4, TWO_CYCLE, 3),
            Period2Spec(4, TWO_CYCLE, 2),
        ],
    )
    def test_matches_bruteforce_bound1(self, spec):
        got = list(search(SearchJob(spec, 1)))
        assert set(got) == brute_period2(spec, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            Period2Spec(3, ONE_CYCLE, 2),
            Period2Spec(3, TWO_CYCLE, 2),
            Period2Spec(4, ONE_CYCLE, 2),
            Period2Spec(4, TWO_CYCLE, 3),
            Period2Spec(4, TWO_CYCLE, 2),
        ],
    )
    def test_matches_bruteforce_bound2(self, spec):
        assert set(search(SearchJob(spec, 2))) == brute_period2(spec, 2)

    def test_sound(self):
        for B in search(SearchJob(Period2Spec(5, ONE_CYCLE, 3), 2)):
            assert is_period2(B, Period2Spec(5, ONE_CYCLE, 3))
            assert all(v == 0 for v in residual(B, Period2Spec(5, ONE_CYCLE, 3)))

    def test_order_lexicographic_and_deterministic(self):
        job = SearchJob(Period2Spec(4, TWO_CYCLE, 3), 2)
        first = [B.flatten() for B in search(job)]
        second = [B.flatten() for B in search(job)]
        assert first == second == sorted(first)

    def test_worker_count_irrelevant(self):
        base = [B.flatten() for B in search(SearchJob(Period2Spec(4, TWO_CYCLE, 3), 2))]
        par = [
            B.flatten()
            for B in search(SearchJob(Period2Spec(4, TWO_CYCLE, 3), 2, jobs=2))
        ]
        assert base == par

    def test_connected_filter(self):
        spec = Period2Spec(3, TWO_CYCLE, 2)
        everything = set(search(SearchJob(spec, 2)))
        connected = set(search(SearchJob(spec, 2, connected_only=True)))
        assert connected == {B for B in everything if is_connected(B)}
        # this equation only has disconnected solutions
        assert connected == set()

    def test_canonicalize_keeps_lex_min_of_pairs(self):
        spec = Period2Spec(4, TWO_CYCLE, 3)
        full = list(search(SearchJob(spec, 1)))
        canon = list(search(SearchJob(spec, 1, canonicalize=True)))
        full_set = {B.flatten() for B in full}
        canon_set = {B.flatten() for B in canon}
        assert canon_set <= full_set
        for B in full:
            partner, pspec = mu1_partner(B, spec)
            if pspec == spec and partner.flatten() in full_set:
                assert (B.flatten() in canon_set) == (
                    B.flatten() <= partner.flatten()
                )
            else:
                assert B.flatten() in canon_set


def _case(pair, k):
    """The case label of a pair, read off the module docstring's rule."""
    has1, hask = 1 in pair, k in pair
    return 1 if has1 and not hask else 2 if hask and not has1 else 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_solver_matches_bruteforce_every_canonical_spec(n):
    """The solver keeps its per-equation state in lists, and equations
    compare by identity; nothing may depend on equations comparing equal.
    Every canonical spec at bound 1, against is_period2 over all candidates
    (brute_period2's loop, sharing one candidate list) and the arrow-count
    residual."""
    candidates = list(all_matrices(n, 1))
    specs = [
        Period2Spec(n, shape, k)
        for shape in (ONE_CYCLE, TWO_CYCLE)
        for k in range(2, n + 1)
        if Period2Spec(n, shape, k).in_canonical_range()
    ]
    for spec in specs:
        brute = sorted(
            (B for B in candidates if is_period2(B, spec)), key=ExchangeMatrix.flatten
        )
        for jobs in (1, 2):
            assert list(search(SearchJob(spec, 1, jobs=jobs))) == brute, (spec, jobs)
        sample = brute + random.Random(f"{spec}").sample(candidates, min(200, len(candidates)))
        for B in sample:
            want = residual_direct(B, spec)
            assert residual(B, spec) == want, (spec, B)
            assert residual_report(B, spec) == [
                (pair, _case(pair, spec.k), v) for pair, v in zip(upper_pairs(n), want)
            ]
