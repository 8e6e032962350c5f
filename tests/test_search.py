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

from quiverperiod.search import _Solver

from oracles import all_matrices, brute_period2, fits_by_scan, residual_direct, upper_pairs

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


def _canonical_specs(n):
    return [
        spec
        for shape in (ONE_CYCLE, TWO_CYCLE)
        for spec in (Period2Spec(n, shape, k) for k in range(2, n + 1))
        if spec.in_canonical_range()
    ]


def _negated(flat):
    return tuple(-x for x in flat)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_search_closed_under_negation(n):
    """Every residual is odd under B -> -B, and the solver finds one of each
    pair s, -s and adds the other; nothing may be lost or doubled, for either
    worker count."""
    for spec in _canonical_specs(n):
        for jobs in (1, 2):
            rows = [B.flatten() for B in search(SearchJob(spec, 2, jobs=jobs))]
            assert len(set(rows)) == len(rows), (spec, jobs)
            assert {_negated(r) for r in rows} == set(rows), (spec, jobs)


def test_raw_solver_finds_one_of_each_sign_pair():
    spec = Period2Spec(4, TWO_CYCLE, 2)
    raw = list(_Solver(spec, 2).solutions())
    zero = (0,) * len(upper_pairs(4))
    assert raw.count(zero) == 1
    assert len(set(raw)) == len(raw)
    assert not {_negated(v) for v in raw if v != zero} & set(raw)
    assert 2 * len(raw) - 1 == len(list(search(SearchJob(spec, 2)))) > 1


def test_fits_match_scan_oracle():
    """The closed-form one-free-pair solve against trying every value through
    residual_direct, on random partial assignments (half their entries 0, so
    that slopes and constants vanish often), for every equation of every
    canonical spec with n <= 6 and bounds 1-4."""
    rng = random.Random(20260)
    sizes = set()
    for n in (3, 4, 5, 6):
        pairs = upper_pairs(n)
        for spec in _canonical_specs(n):
            for bound in (1, 2, 3, 4):
                solver = _Solver(spec, bound)
                for e, eq in enumerate(solver.equations):
                    for _ in range(6):
                        t = rng.choice(eq.support)
                        values = [rng.choice((0, rng.randint(-bound, bound))) for _ in pairs]
                        solver.val = [None if s == t else v for s, v in enumerate(values)]
                        entries = {p: v for s, (p, v) in enumerate(zip(pairs, values)) if s != t}
                        got = solver._fits(eq, t)
                        assert got == fits_by_scan(spec, entries, e, pairs[t], bound), (
                            spec, bound, eq.pair, values, t
                        )
                        sizes.add(min(len(got), 2))
    # the test saw equations with no, one and several solutions
    assert sizes == {0, 1, 2}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tracked_free_pairs_match_a_scan(n):
    """free[e] and free_sum[e], kept up to date by _assign and _unassign, against
    a scan of val after every step of a random assign/unassign walk (unassigning
    in any order, not only the reverse of assigning)."""
    for spec in _canonical_specs(n):
        solver = _Solver(spec, 2)
        rng = random.Random(f"free-{spec}")
        m = len(solver.val)
        assigned = []
        for _ in range(300):
            if assigned and (len(assigned) == m or rng.random() < 0.4):
                t = assigned.pop(rng.randrange(len(assigned)))
                solver._unassign(t)
            else:
                t = rng.choice([s for s in range(m) if solver.val[s] is None])
                solver._assign(t, rng.randint(-2, 2), [])
                assigned.append(t)
            for e, eq in enumerate(solver.equations):
                unset = [s for s in eq.support if solver.val[s] is None]
                assert solver.free[e] == len(unset), (spec, e)
                assert solver.free_sum[e] == sum(unset), (spec, e)
                if len(unset) == 1:
                    assert solver.free_sum[e] == unset[0]
            assert solver.nonzero == sum(1 for v in solver.val if v)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_search_results_match_the_checked_routes(n):
    """search builds its matrices unchecked: each must equal the checked
    constructor's matrix of its rows and solve its equation, and the connected
    results must be is_connected's filter of the full list, in order."""
    for spec in _canonical_specs(n):
        full = list(search(SearchJob(spec, 2)))
        for B in full:
            assert B == ExchangeMatrix.from_rows(B.rows), (spec, B)
            assert all(type(x) is int for x in B.flatten())
            assert is_period2(B, spec), (spec, B)
        connected = list(search(SearchJob(spec, 2, connected_only=True)))
        assert connected == list(filter(is_connected, full)), spec


def test_every_equation_is_closed_at_each_solution():
    """A full assignment is yielded as a solution with no final check of the
    equations: propagation must already have marked every one done.  Every
    canonical spec with n <= 7 at bound 2 and n <= 6 at bound 3."""
    seen = 0
    for bound, top in ((2, 7), (3, 6)):
        for spec in (s for n in range(3, top + 1) for s in _canonical_specs(n)):
            solver = _Solver(spec, bound)
            for v in solver.solutions():
                assert all(solver.done), (spec, bound, v)
                seen += 1
    assert seen > 2000
