import hashlib
import random
import time
from fractions import Fraction as F
from math import gcd

import pytest

from quiverperiod import (
    BUILTIN_TEMPLATES,
    ONE_CYCLE,
    TWO_CYCLE,
    EquationSpec,
    ExchangeMatrix,
    Period2Error,
    Period2Spec,
    QuiverError,
    SearchJob,
    Seed,
    SystemSpec,
    check_TZ_condition,
    extract_system,
    g_exponent,
    h_exponent,
    initial_window_from_seed,
    iterate_system,
    parse_template,
    required_window,
    run_orbit,
    search,
    tabulate_system,
    template_search,
    verify_periodic,
)
import quiverperiod.cluster as cluster_mod
import quiverperiod.families as fm
import quiverperiod.systems as systems_mod
from quiverperiod.formats import _frac_str
from quiverperiod.reductions import TAME_PARAM
from quiverperiod.systems import DEFAULT_BIT_BUDGET, lambdas_at

from oracles import (
    permutation_power_direct,
    somos4_direct,
    t_iterate_direct,
    tabulate_system_direct,
    template_search_direct,
    tz_substitution_direct,
)


def tsys(key, **params):
    family = fm.FAMILY_BY_KEY[key]
    B = family.matrix(**params)
    return extract_system(B, family.spec, "T"), family


class TestForwardPoints:
    def test_one_cycle_lambdas(self):
        spec = Period2Spec(4, ONE_CYCLE, 2)
        assert lambdas_at(spec, spec.vertex_at(0), 0) == (3, 5)

    def test_two_cycle_lambdas_by_orbit(self):
        spec = Period2Spec(5, TWO_CYCLE, 3)
        for u in range(13):
            i = spec.vertex_at(u)
            expected = 4 if i in (1, 2) else 6
            assert lambdas_at(spec, i, u) == (expected, expected)

    def test_next_point_is_a_point(self):
        for spec in (Period2Spec(4, ONE_CYCLE, 2), Period2Spec(5, TWO_CYCLE, 3)):
            for u in range(-6, 21):
                i = spec.vertex_at(u)
                plus, minus = lambdas_at(spec, i, u)
                assert spec.vertex_at(u + plus) == i
                assert spec.vertex_at(u - minus) == i

    def test_mutation_vertices_follow_inverse_relabeling(self):
        spec = Period2Spec(5, ONE_CYCLE, 2)
        assert [spec.vertex_at(u) for u in range(6)] == [1, 2, 5, 1, 4, 5]

    def test_vertex_at_matches_powers_of_nu(self):
        # every spec with n <= 8, negative times included (extract_system's
        # Y-kind slots read vertex_at(idx - 2p)), and the far times
        # u = +-10^6 + r, r = 0, 1, where the schedule table's modulo is far
        # from 0; there the cycle walk nu ** r stands in for repeated
        # composition (TestPermutationPower checks the two agree)
        for n in range(2, 9):
            for shape in (ONE_CYCLE, TWO_CYCLE):
                for k in range(2, n + 1):
                    spec = Period2Spec(n, shape, k)
                    nu = spec.sigma().inverse()
                    for u in range(-8 * n, 8 * n + 1):
                        r, l = divmod(u, 2)
                        want = permutation_power_direct(nu, r)(1 if l == 0 else k)
                        assert spec.vertex_at(u) == want, (spec, u)
                    for u in (-(10**6), -(10**6) + 1, 10**6, 10**6 + 1):
                        r, l = divmod(u, 2)
                        assert spec.vertex_at(u) == (nu ** r)(1 if l == 0 else k), (spec, u)


class TestExponents:
    def test_zero_matrix_all_zero(self):
        spec = Period2Spec(4, ONE_CYCLE, 2)
        B0 = ExchangeMatrix.zero(4)
        B1 = ExchangeMatrix.zero(4)
        for v in range(1, 8):
            j = spec.vertex_at(v)
            assert h_exponent(j, v, 1, 0, spec, B0, B1) == (0, 0)
            assert g_exponent(j, v, 1, 0, spec, B0, B1) == (0, 0)

    def test_window_rule(self):
        spec = Period2Spec(4, ONE_CYCLE, 2)
        B = fm.FAMILY_BY_KEY["n4-k2-1"].matrix(n=1)
        from quiverperiod import mutate

        B1 = mutate(B, 1)
        # points outside (v - lambda_minus, v) contribute nothing
        j = spec.vertex_at(9)
        assert h_exponent(j, 9, 1, 0, spec, B, B1) == (0, 0)

    def test_not_a_point(self):
        spec = Period2Spec(4, ONE_CYCLE, 2)
        B = ExchangeMatrix.zero(4)
        with pytest.raises(QuiverError):
            h_exponent(3, 0, 1, 0, spec, B, B)


# sha256 of [(to_dict(), text())] of extract_system over every
# regression_instances(2) entry, kinds T, Y and TZ in turn
CLOSED_FORMS_DIGEST = "7cf6159c1e0f20ab1c0ef233e4e3bf00b3ba769e034ff473d9b9d2f731a164b4"


_N3 = fm.FAMILY_BY_KEY["n3-k2-2"]
_SINGLE_ARROW = ExchangeMatrix.from_entries(3, {(1, 2): 1})
# case: (arguments, the exact error type, its message); the kind is checked
# before the matrix
REFUSALS = {
    "not-period2": (
        (_SINGLE_ARROW, _N3.spec, "T"), Period2Error,
        r"^matrix does not satisfy the period-2 equation$",
    ),
    "degree-mismatch": (
        (_N3.matrix(), Period2Spec(4, ONE_CYCLE, 2), "Y"), QuiverError,
        r"^degree mismatch: matrix 3, spec 4$",
    ),
    "unknown-kind": ((_N3.matrix(), _N3.spec, "Q"), QuiverError, r"^unknown system kind 'Q'$"),
    "unknown-kind-first": (
        (_SINGLE_ARROW, Period2Spec(4, ONE_CYCLE, 2), "x"), QuiverError,
        r"^unknown system kind 'X'$",
    ),
}


class TestExtract:
    def test_first4node_t_system(self):
        sys, family = tsys("n4-k2-1", n=2)
        assert sys.eq1 == EquationSpec(
            (("z", 0), ("y", 1)), {("z", 1): 2, ("y", 0): 2}, {}
        )
        assert sys.eq2 == EquationSpec(
            (("y", 0), ("z", 3)), {("z", 2): 2, ("y", 1): 2}, {}
        )

    def test_first4node_y_system(self):
        family = fm.FAMILY_BY_KEY["n4-k2-1"]
        ysys = extract_system(family.matrix(n=2), family.spec, "Y")
        assert ysys.eq1 == EquationSpec(
            (("z", 0), ("y", 1)), {("z", 1): 2, ("y", 0): 2}, {}
        )
        assert ysys.eq2 == EquationSpec(
            (("y", 0), ("z", 3)), {("z", 2): 2, ("y", 1): 2}, {}
        )

    def test_six_vertex_system(self):
        sys, family = tsys("n6-k5-2", n=2)
        # z(q) y(q+4) = z(q+1) y(q+2) + y(q)^2 y(q+3)
        assert sys.eq1 == EquationSpec(
            (("z", 0), ("y", 4)),
            {("y", 0): 2, ("y", 3): 1},
            {("z", 1): 1, ("y", 2): 1},
        )
        # y(q) z(q+2) = z(q+1) y(q+2) + y(q+1) y(q+4)^2
        assert sys.eq2 == EquationSpec(
            (("y", 0), ("z", 2)),
            {("y", 1): 1, ("y", 4): 2},
            {("z", 1): 1, ("y", 2): 1},
        )

    def test_somos4_family_system(self):
        sys, _ = tsys("n5-k2-5", p=2)
        assert sys.eq1 == EquationSpec(
            (("z", 0), ("y", 1)), {("z", 1): 1, ("y", 0): 1}, {("z", 2): 2}
        )
        assert sys.eq2 == EquationSpec(
            (("y", 0), ("z", 4)), {("z", 3): 1, ("y", 1): 1}, {("z", 2): 2}
        )

    def test_requires_period2(self):
        B = ExchangeMatrix.from_entries(3, {(1, 2): 1})
        with pytest.raises(QuiverError):
            extract_system(B, Period2Spec(3, ONE_CYCLE, 2), "T")
        with pytest.raises(QuiverError):
            extract_system(
                fm.FAMILY_BY_KEY["n3-k2-2"].matrix(), Period2Spec(3, ONE_CYCLE, 2), "Q"
            )

    @pytest.mark.parametrize("kind", ["T", "Y"])
    def test_matches_tabulation_sample(self, kind):
        rng = random.Random(77)
        for fid, spec, B in rng.sample(fm.regression_instances(2), 40):
            closed = extract_system(B, spec, kind)
            generic = tabulate_system(B, spec, kind)
            assert (closed.eq1, closed.eq2) == (generic.eq1, generic.eq2), str(fid)

    def test_tabulation_matches_full_scan_oracle(self):
        # tabulate_system scans only (u, u + 2n - 1); the oracle scans
        # [u - 4n, u + 4n] with Permutation powers.  Only the one-cycle k = n
        # equation reaches lambda = 2n - 1, so only it can use the window's
        # last time u + 2n - 2; its bound-1 solutions join the instances.
        cases = [(str(fid), spec, B) for fid, spec, B in fm.regression_instances(2)]
        for n in (3, 4, 5):
            spec = Period2Spec(n, ONE_CYCLE, n)
            cases += [(f"{spec} {B.flatten()}", spec, B) for B in search(SearchJob(spec, 1))]
        for name, spec, B in cases:
            for kind in ("T", "Y", "TZ"):
                got, want = tabulate_system(B, spec, kind), tabulate_system_direct(B, spec, kind)
                assert (got.eq1, got.eq2) == (want.eq1, want.eq2), (name, kind)

    def test_closed_forms_match_golden_digest(self):
        rows = []
        for _, spec, B in fm.regression_instances(2):
            for kind in ("T", "Y", "TZ"):
                sys = extract_system(B, spec, kind)
                rows.append((sys.to_dict(), sys.text()))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLOSED_FORMS_DIGEST

    @pytest.mark.parametrize("kind", ["T", "Y"])
    def test_built_systems_pass_the_checked_constructor(self, kind):
        # both routes build their systems unchecked; the checked constructor
        # must accept each of them as it is
        for fid, spec, B in fm.regression_instances(2):
            for build in (extract_system, tabulate_system):
                s = build(B, spec, kind.lower())
                assert type(s) is SystemSpec and (s.kind, s.spec, s.B0) == (kind, spec, B)
                assert s == SystemSpec(s.kind, s.spec, s.B0, s.eq1, s.eq2), (str(fid), build)

    @pytest.mark.parametrize("build", [extract_system, tabulate_system])
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals_keep_their_messages(self, build, case):
        args, error, message = REFUSALS[case]
        with pytest.raises(QuiverError, match=message) as info:
            build(*args)
        assert type(info.value) is error

    def test_round_trip_dict(self):
        sys, _ = tsys("n5-k2-5", p=2)
        again = SystemSpec.from_dict(sys.to_dict())
        assert (again.kind, again.eq1, again.eq2) == (sys.kind, sys.eq1, sys.eq2)
        assert again.B0 == sys.B0


class TestIterate:
    def test_window_requirements(self):
        sys, _ = tsys("n4-k2-1", n=1)
        assert required_window(sys) == {"y": 1, "z": 3}
        with pytest.raises(QuiverError):
            iterate_system(sys, {"z": [1, 1], "y": [1]}, 4)

    def test_slot_read_ahead_rejected(self):
        # eq2 of the N4#4(m=1,n=1) Y-system reads A(q+2), which eq1 only
        # produces at the next step
        family = fm.FAMILY_BY_KEY["n4-2c2-1"]
        ysys = extract_system(family.matrix(m=1, n=1), family.spec, "Y")
        window = {name: [F(1)] * cnt for name, cnt in required_window(ysys).items()}
        with pytest.raises(QuiverError, match=r"eq2 reads A\(q\+2\)"):
            iterate_system(ysys, window, 4)
        same = SystemSpec("Y", ysys.spec, ysys.B0, ysys.eq1, ysys.eq1)
        with pytest.raises(QuiverError, match="both equations produce"):
            iterate_system(same, window, 4)

    def test_somos4_all_ones_prefix(self):
        # derived by direct evaluation of the coupled equations with p=2
        sys, _ = tsys("n5-k2-5", p=2)
        seqs = iterate_system(sys, {"z": [1, 1, 1, 1], "y": [1]}, 6)
        assert seqs["z"][:9] == [1, 1, 1, 1, 3, 5, 23, 119, 551]
        assert seqs["y"][:6] == [1, 2, 3, 12, 61, 278]
        # and the reduced 4-term recurrence with the window constant C = 2
        C = BUILTIN_TEMPLATES["s82"].eval_at(seqs, 0)
        assert C == 2
        assert somos4_direct(C, 2, [1, 1, 1, 1], 5) == seqs["z"][:9]

    def test_matches_orbit_one_cycle(self):
        rng = random.Random(41)
        family = fm.FAMILY_BY_KEY["n4-k2-1"]
        B = family.matrix(n=1)
        x0 = tuple(F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(4))
        y0 = tuple(F(1) for _ in range(4))
        trace = run_orbit(Seed(B, x0, y0), family.spec, 70, keep_states=False)
        sys = extract_system(B, family.spec, "T")
        seqs = iterate_system(sys, initial_window_from_seed(sys, x0), 30)
        assert seqs["z"] == trace.seq["z"][: len(seqs["z"])]
        assert seqs["y"] == trace.seq["y"][: len(seqs["y"])]

    def test_matches_orbit_two_cycle(self):
        # exercises the inverse-relabeling index bookkeeping of the closed form
        rng = random.Random(43)
        family = fm.FAMILY_BY_KEY["n5-2c3-1"]
        B = family.matrix(m=0, n=1, p=1)
        x0 = tuple(F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(5))
        y0 = tuple(F(1) for _ in range(5))
        trace = run_orbit(Seed(B, x0, y0), family.spec, 32, keep_states=False)
        sys = extract_system(B, family.spec, "T")
        seqs = iterate_system(sys, initial_window_from_seed(sys, x0), 12)
        assert seqs["z"] == trace.seq["z"][: len(seqs["z"])]
        assert seqs["y"] == trace.seq["y"][: len(seqs["y"])]

    @staticmethod
    def y_systems(lockstep: bool):
        """(id, spec, B, [extracted, tabulated Y-system]) of each regression
        instance whose Y-system iterates step by step (lockstep) or reads a
        slot before it is produced (not lockstep)."""
        out = []
        for fid, spec, B in fm.regression_instances(1):
            systems = [extract_system(B, spec, "Y"), tabulate_system(B, spec, "Y")]
            try:
                systems_mod._check_slots(systems[0], required_window(systems[0]))
                steps_alike = True
            except QuiverError:
                steps_alike = False
            if steps_alike == lockstep:
                out.append((fid, spec, B, systems))
        return out

    def test_y_system_matches_orbit(self):
        # the window from run_orbit's A/B sequences, then the system against them
        rng = random.Random(47)
        horizon = 6
        cases = self.y_systems(lockstep=True)
        assert len(cases) == 63
        for fid, spec, B, systems in cases:
            need = required_window(systems[0])
            y0 = tuple(F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(B.n))
            steps = 2 * (max(need.values()) + horizon) + 2
            trace = run_orbit(Seed(B, (1,) * B.n, y0), spec, steps, keep_states=False)
            init = {"z": trace.seq["A"][: need["z"]], "y": trace.seq["B"][: need["y"]]}
            for ysys in systems:
                seqs = iterate_system(ysys, init, horizon)
                assert seqs["z"] == trace.seq["A"][: len(seqs["z"])], str(fid)
                assert seqs["y"] == trace.seq["B"][: len(seqs["y"])], str(fid)

    def test_read_ahead_y_systems_rejected(self):
        # the Y-systems without an orbit check yet: each reads an A or B slot
        # its step has not produced, and iterate_system refuses it
        cases = self.y_systems(lockstep=False)
        assert len(cases) == 26
        for fid, spec, B, systems in cases:
            window = {name: [F(1)] * cnt for name, cnt in required_window(systems[0]).items()}
            for ysys in systems:
                with pytest.raises(QuiverError, match="before it is produced"):
                    iterate_system(ysys, window, 1)

    def test_zero_divisor_reported(self):
        sys, _ = tsys("n4-k2-1", n=1)
        with pytest.raises(ZeroDivisionError):
            iterate_system(sys, {"z": [1, 0, 1], "y": [1]}, 4)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_nonpositive_bit_budget_rejected_before_arithmetic(self, budget):
        # the window divides by zero at the first step, so any arithmetic
        # would raise ZeroDivisionError instead
        sys, _ = tsys("n4-k2-1", n=1)
        with pytest.raises(QuiverError, match=f"bit budget must be >= 1, got {budget}"):
            iterate_system(sys, {"z": [0, 1, 1], "y": [1]}, 4, bit_budget=budget)

    def test_bit_budget_stops_after_first_oversized_step(self):
        sys, _ = tsys("n4-k2-1", n=2)
        need = required_window(sys)
        rng = random.Random(83)
        window = {
            name: [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(cnt)]
            for name, cnt in need.items()
        }
        full = iterate_system(sys, window, 8)
        assert iterate_system(sys, window, 8, bit_budget=None) == full
        assert all(len(full[s]) == need[s] + 8 for s in ("z", "y"))

        def step_bits(seqs, q):
            return max(
                max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in (seqs["z"][need["z"] + q], seqs["y"][need["y"] + q])
            )

        budget = 1_000
        bounded = iterate_system(sys, window, 8, bit_budget=budget)
        reached = len(bounded["z"]) - need["z"]
        assert 1 < reached < 8
        assert len(bounded["y"]) - need["y"] == reached
        for s in ("z", "y"):
            assert bounded[s] == full[s][: len(bounded[s])]
        assert all(step_bits(full, q) <= budget for q in range(reached - 1))
        assert step_bits(full, reached - 1) > budget

    def test_orbit_agreement_sweep(self):
        # horizon scaled by the growth driver: the largest of the monomial
        # exponent sums and the raw arrow weights (values grow like S^q);
        # the heaviest instances are covered by the closed-form/tabulation
        # equivalence instead, since even one period exceeds any bit budget
        rng = random.Random(71)
        checked = 0
        for fid, spec, B in fm.regression_instances(2):
            sys = extract_system(B, spec, "T")
            weight = max(abs(x) for x in B.flatten())
            if weight > 5:
                # the coefficient side of the orbit compounds the raw arrow
                # weights; these instances are covered by the closed-form
                # equivalence
                continue
            need = required_window(sys)
            x0 = tuple(
                F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(spec.n)
            )
            window = initial_window_from_seed(sys, x0)
            # probe the actual growth with a small bit budget: the orbit also
            # carries the coefficient dynamics, which compound at least as fast
            reached = len(iterate_system(sys, window, 30, bit_budget=3_000)["z"]) - need["z"]
            steps = reached - 1
            if steps < 1:
                continue
            mutations = 2 * (steps + max(need.values()))
            trace = run_orbit(
                Seed(B, x0, tuple(F(1) for _ in range(spec.n))),
                spec,
                mutations,
                keep_states=False,
            )
            seqs = iterate_system(sys, window, steps)
            zlen = min(len(seqs["z"]), len(trace.seq["z"]))
            ylen = min(len(seqs["y"]), len(trace.seq["y"]))
            assert zlen > need["z"] and ylen > need["y"], str(fid)
            assert seqs["z"][:zlen] == trace.seq["z"][:zlen], str(fid)
            assert seqs["y"][:ylen] == trace.seq["y"][:ylen], str(fid)
            checked += 1
        assert checked > 150


def _smooth_part_removed(d, primes):
    for p in primes:
        while d % p == 0:
            d //= p
    return d


# cluster windows for the S-integer engine: large primes, negative entries,
# windows whose only entries are composites (10 and 15 give the base
# {2, 3, 5} by gcd refinement, while the base {6} of the 6 window splits when
# a value's unit part turns out even), and a seeded window of signed entries
_ENGINE_RNG = random.Random(97)
ENGINE_WINDOWS = {
    "large-primes": (F(10007, 65537), F(65537), F(3, 10007), F(2), F(65537, 4)),
    "negative": (F(-2, 3), F(5), F(-1, 4), F(3, -7), F(-9, 2)),
    "composites": (F(4), F(9), F(12), F(25, 8), F(1, 6)),
    "shared-cofactor": (F(65537 * 65539), F(65537), F(1, 65539), F(3), F(2)),
    "six": (F(6), F(6), F(6), F(1, 6), F(1)),
    "ten-fifteen": (F(10), F(15), F(1, 15), F(10), F(1, 10)),
    "seeded": tuple(
        F(_ENGINE_RNG.choice((-1, 1)) * _ENGINE_RNG.randint(1, 30), _ENGINE_RNG.randint(1, 30))
        for _ in range(5)
    ),
}
ENGINE_SYSTEMS = {"n4-k2-1": ({"n": 1}, 16), "n5-2c3-1": ({"m": 0, "n": 1, "p": 1}, 9)}


class TestSIntegerEngine:
    """iterate_system and run_orbit against a plain-Fraction iteration."""

    @pytest.mark.parametrize("key", sorted(ENGINE_SYSTEMS))
    @pytest.mark.parametrize("window", sorted(ENGINE_WINDOWS))
    def test_matches_fraction_oracle(self, key, window):
        params, steps = ENGINE_SYSTEMS[key]
        sys, family = tsys(key, **params)
        x0 = ENGINE_WINDOWS[window][: family.spec.n]
        init = initial_window_from_seed(sys, x0)
        expected = t_iterate_direct(sys, init, steps)
        seqs = iterate_system(sys, init, steps)
        assert seqs == expected
        for v in seqs["z"] + seqs["y"]:
            assert type(v) is F and v.denominator > 0
            assert gcd(v.numerator, v.denominator) == 1
        need = required_window(sys)
        y0 = tuple(F(1) for _ in x0)
        trace = run_orbit(Seed(family.matrix(**params), x0, y0), family.spec,
                          2 * (steps + max(need.values())))
        for s in ("z", "y"):
            common = min(len(trace.seq[s]), len(expected[s]))
            assert common > need[s] + steps - 2
            assert trace.seq[s][:common] == expected[s][:common]
            assert all(type(v) is F for v in trace.seq[s])
        assert trace.states[0].x == x0
        assert all(type(v) is F for state in trace.states for v in state.x)

    def test_recursive_division_matches_fraction_oracle(self, monkeypatch):
        # from the signed window, n5-2c3-1's values pass 3x the division
        # limit within 12 steps, so some exchanges divide by the recursive
        # route: both the divisor's and the quotient's N parts exceed it
        sys, family = tsys("n5-2c3-1", **ENGINE_SYSTEMS["n5-2c3-1"][0])
        init = initial_window_from_seed(sys, ENGINE_WINDOWS["negative"][: family.spec.n])
        sizes = []

        def spy(a, b):
            sizes.append(min(b.bit_length(), a.bit_length() - b.bit_length()))
            return divmod_(a, b)

        divmod_ = cluster_mod._divmod
        monkeypatch.setattr(cluster_mod, "_divmod", spy)
        seqs = iterate_system(sys, init, 12)
        expected = t_iterate_direct(sys, init, 12)
        for s in ("z", "y"):
            assert [(type(v), v) for v in seqs[s]] == [(type(v), v) for v in expected[s]]
        assert max(sizes) > cluster_mod._DIV_LIMIT
        assert max(abs(v.numerator).bit_length() for v in seqs["z"]) > 3 * cluster_mod._DIV_LIMIT
        assert any(v < 0 for v in seqs["z"] + seqs["y"])

    def test_zero_divisor_matches_oracle(self):
        sys, _ = tsys("n4-k2-1", n=1)
        window = {"z": [F(6), F(0), F(-3, 5)], "y": [F(10)]}
        with pytest.raises(ZeroDivisionError):
            t_iterate_direct(sys, window, 4)
        with pytest.raises(ZeroDivisionError, match="zero divisor at q=1"):
            iterate_system(sys, window, 4)

    def test_cancelled_value_is_canonical_zero(self):
        # z(1) * y(0) + 1 cancels, over the divisor z(0) = 2 of the base
        sys, family = tsys("n4-k2-1", n=1)
        window = {"z": [F(2), F(-1, 3), F(5)], "y": [F(3)]}
        zero = iterate_system(sys, window, 1)["y"][1]
        assert type(zero) is F and zero == 0 and zero.denominator == 1
        assert _frac_str(zero) == "0"
        with pytest.raises(ZeroDivisionError, match="zero divisor at q=1"):
            iterate_system(sys, window, 2)
        seed = Seed(family.matrix(n=1), (F(2), F(-1, 3), F(5), F(3)), (F(1),) * 4)
        assert run_orbit(seed, family.spec, 1).states[1].x[0].denominator == 1
        with pytest.raises(ZeroDivisionError, match="cluster value x_k is zero"):
            run_orbit(seed, family.spec, 8, keep_states=False)

    def test_non_laurent_system_falls_back(self):
        # a hand-written system-v1 file whose exchange quotients leave Z[1/S]
        data = tsys("n4-k2-1", n=1)[0].to_dict()
        data["eq1"]["plus"] = [[s, o, 2 * e] for s, o, e in data["eq1"]["plus"]]
        sys = SystemSpec.from_dict(data)
        window = {"z": [F(2), F(3), F(1, 2)], "y": [F(3, 4)]}
        seqs = iterate_system(sys, window, 6)
        assert seqs == t_iterate_direct(sys, window, 6)
        assert all(type(v) is F for v in seqs["z"] + seqs["y"])
        assert any(_smooth_part_removed(v.denominator, (2, 3)) > 1 for v in seqs["z"])

    def test_tz_bump_matches_oracle(self):
        sys, _ = tsys("n4-k2-1", n=1)
        tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
        Z = {"z": [F(1)] * 12, "y": [F(1)] * 12}
        Z["y"][3] = F(3)
        window = {"z": [F(6), F(-5, 2), F(7)], "y": [F(10)]}
        assert iterate_system(tz, window, 12, Z=Z) == t_iterate_direct(tz, window, 12, Z=Z)

    def test_default_budget_stop_step_unchanged(self):
        sys, _ = tsys("n4-k2-1", n=2)
        window = {"z": [F(1), F(2), F(3)], "y": [F(2)]}
        seqs = iterate_system(sys, window, 40, bit_budget=DEFAULT_BIT_BUDGET)
        assert len(seqs["z"]) - 3 == 10

        def bits(v):
            return max(v.numerator.bit_length(), v.denominator.bit_length())

        assert max(bits(seqs["z"][11]), bits(seqs["y"][9])) <= DEFAULT_BIT_BUDGET
        assert max(bits(seqs["z"][12]), bits(seqs["y"][10])) > DEFAULT_BIT_BUDGET


TEMPLATE_CORPUS = (
    # accepted: implicit products, coefficients, A/B aliases, outer parentheses,
    # negative exponents, constants and spaces
    "z(q)/y(q)", "y(q)/z(q+1)", "(z(q)+z(q+3))/y(q+1)", "(z(q)+1)/(y(q+2)*y(q))",
    "y(q)^2*z(q+1)/y(q+4)", "z(q)y(q)", "z(q)y(q+1)^2/z(q+2)", "3*z(q)", "3z(q)",
    "12*y(q+1)^-1", "A(q)/B(q+1)", "A(q)*B(q)+B(q+2)", "A(q)^-1*B(q+2)^2",
    "((z(q)))/((y(q)))", "((z(q)+y(q)))/(((1)))", "(z(q))+(y(q))", "1", "2", "0",
    "7/3", "1+1", "z(q)/0", "03*z(q+03)", "z(q+0)^00", "z(q)^0", "z(q)^-0",
    "z(q)^-2*y(q)^3", "z(q)*y(q)*z(q)", " z(q) + y(q) / ( z(q+1) ) ", "z ( q + 1 )",
    "3 z(q)",
    # empty term or factor
    "", "z(q)*", "z(q)+", "+z(q)", "/y(q)", "z(q)/", "3*", "z(q)**", "()", "(())",
    "z(q)+()", "(z(q)+)/y(q)",
    # cannot split numerator/denominator (the last two: unbalanced parentheses)
    "(z(q)/y(q))", "(z(q)/y(q)", "z(q))/y(q)",
    # cannot parse a term; "(()", "z(q+1" and "z(q))+y(q)": unbalanced parentheses
    "(z(q)+y(q))+(z(q))", "(()", "(z(q)/y(q))/y(q)", "(z(q)+y(q))*z(q)",
    "z(q)/y(q)/z(q)", "z(q)//y(q)", "z(q+1", "x(q)", "z(p)", "z(q+-1)", "z(q)^",
    "z(q)**y(q)", "3**z(q)", "z(q)3", "3z(q)2", "y(q)^+2", "2*3", "()z(q)",
    "(z(q))(y(q))", "z(q)+(y(q)+z(q+1))", "z(q))+y(q)", "\tz(q)", "Z(q)", "y(q)^2^3",
    "z(q)*3", "*z(q)", "-z(q)",
)
# sha256 of [(text, (num, den) or error message)] over TEMPLATE_CORPUS
TEMPLATE_DIGEST = "56d2e28c745f3c3490c35b5a036b9ad5d0532998847b50a27d618540fc5938be"


class TestPeriodicQuantities:
    def test_builtin_s81_on_random_seeds(self):
        sys, _ = tsys("n4-k2-1", n=1)
        rng = random.Random(53)
        tmpl = BUILTIN_TEMPLATES["s81"]
        for _ in range(5):
            init = {
                "z": [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(3)],
                "y": [F(rng.randint(1, 6), rng.randint(1, 6))],
            }
            seqs = iterate_system(sys, init, 40)
            assert verify_periodic(seqs, tmpl, 30).ok

    def test_constant_on_constant_sequence(self):
        tmpl = parse_template("z(q)/y(q)", claimed_period=1)
        seqs = {"z": [F(3)] * 20, "y": [F(2)] * 20}
        assert verify_periodic(seqs, tmpl, 10).ok

    def test_horizon_exceeds_trace(self):
        tmpl = BUILTIN_TEMPLATES["s81"]
        with pytest.raises(QuiverError):
            verify_periodic({"z": [F(1)] * 5, "y": [F(1)] * 5}, tmpl, 50)

    @pytest.mark.parametrize("horizon, period", [(0, 1), (-5, 1), (4, 0), (4, -2)])
    def test_vacuous_check_rejected(self, horizon, period):
        tmpl = parse_template("z(q)/y(q)", claimed_period=period)
        with pytest.raises(QuiverError, match="must be >= 1"):
            verify_periodic({"z": [F(1)] * 9, "y": [F(1)] * 9}, tmpl, horizon)

    @pytest.mark.parametrize("text", ["", "z(q)+", "+z(q)", "z(q)/", "z(q)/()", "z(q)*", "2*"])
    def test_parse_template_rejects_empty_terms(self, text):
        with pytest.raises(QuiverError, match="empty term"):
            parse_template(text)

    def test_parse_template_matches_golden_digest(self):
        def outcome(text):
            try:
                t = parse_template(text)
            except QuiverError as exc:
                return str(exc)
            return t.num, t.den

        flat = [(text, outcome(text)) for text in TEMPLATE_CORPUS]
        assert hashlib.sha256(repr(flat).encode()).hexdigest() == TEMPLATE_DIGEST, flat

    def test_aperiodic_detected(self):
        tmpl = parse_template("z(q)", claimed_period=1)
        seqs = {"z": [F(v) for v in (1, 2, 4, 8, 16, 32, 64)], "y": [F(1)] * 7}
        row = verify_periodic(seqs, tmpl, 4)
        assert (row.label, row.ok, row.detail) == (
            "custom: period 1 over 4 steps", False, "fails at q=0"
        )

    def test_parse_template_forms(self):
        t = parse_template("(z(q)+z(q+3))/y(q)", claimed_period=1)
        assert t.num == BUILTIN_TEMPLATES["s82"].num
        assert t.den == BUILTIN_TEMPLATES["s82"].den
        t2 = parse_template("(z(q)+1)/(y(q+2)*y(q))", claimed_period=2)
        assert t2.num == BUILTIN_TEMPLATES["s85"].num
        assert t2.den == BUILTIN_TEMPLATES["s85"].den
        t3 = parse_template("y(q)^2*z(q+1)/y(q+4)")
        ((coeff, factors),) = t3.num
        assert coeff == 1 and (("y", 0), 2) in factors and (("z", 1), 1) in factors

    def test_template_search_rediscovers_s81(self):
        sys, _ = tsys("n4-k2-1", n=1)
        init = {"z": [F(1), F(2), F(1)], "y": [F(3)]}
        seqs = iterate_system(sys, init, 30)
        hits = template_search(seqs, shift_bound=2, exp_bound=1)
        tmpl = BUILTIN_TEMPLATES["s81"]
        assert any(
            h.num == tmpl.num and h.den == tmpl.den and h.claimed_period == 2
            for h in hits
        )

    def test_template_search_rediscovers_s86_constant(self):
        sys, _ = tsys("n6-k5-2", n=2)
        init = {"z": [F(1), F(1)], "y": [F(1), F(2), F(1), F(1)]}
        seqs = iterate_system(sys, init, 22)
        hits = template_search(seqs, shift_bound=4, exp_bound=1)
        tmpl = BUILTIN_TEMPLATES["s86"]
        assert any(
            h.num == tmpl.num and h.den == tmpl.den and h.claimed_period == 1
            for h in hits
        )


def _tame_trace(tag, steps):
    """The orbit sequences of the tame member of a dynamics-suite family from
    a window cycling through 1, 2 and 1/2."""
    family, pname = fm.section_family(tag)
    B = family.matrix(**{pname: TAME_PARAM[tag]})
    x0 = tuple((F(1), F(2), F(1, 2))[i % 3] for i in range(B.n))
    return run_orbit(Seed(B, x0, (F(1),) * B.n), family.spec, steps, keep_states=False).seq


def _n4_trace(steps):
    sys, _ = tsys("n4-k2-1", n=1)
    return iterate_system(sys, {"z": [F(1), F(2), F(1)], "y": [F(3)]}, steps)


def _cycled(z, y, count=12):
    """count values of z and of y, repeating the given cycles."""
    return {
        "z": [F(z[q % len(z)]) for q in range(count)],
        "y": [F(y[q % len(y)]) for q in range(count)],
    }


# case: () -> (z/y sequences, shift_bound, exp_bound, max_period)
SEARCH_CASES = {
    "s81-tame": lambda: (_tame_trace("s81", 30), 2, 1, 4),
    "s86-tame": lambda: (_tame_trace("s86", 20), 4, 1, 2),
    "exp-bound-2": lambda: (_n4_trace(7), 1, 2, 3),
    # z is 0 at odd q, so every denominator with a z factor is skipped; y takes
    # the value 2**61 - 1, which is 0 modulo the screen prime but not a zero
    "zero-value": lambda: (_cycled([2, 0], [1, 3, 2**61 - 1]), 1, 1, 4),
    # the prime divides a denominator, so the keys stay exact Fractions
    "inverse-prime": lambda: (_cycled([F(1, 2**61 - 1), 2, 5], [3, 1]), 1, 1, 4),
}


def _search_key(found):
    return [(t.name, t.num, t.den, t.claimed_period) for t in found]


class TestTemplateSearch:
    @pytest.mark.parametrize("case", sorted(SEARCH_CASES))
    def test_matches_direct_oracle(self, case):
        args = SEARCH_CASES[case]()
        found = template_search(*args)
        assert found and _search_key(found) == _search_key(template_search_direct(*args))

    def test_small_screen_prime_keeps_exact_hits(self, monkeypatch):
        # modulo 5 many keys cancel by chance; the exact re-check drops those
        trace = _tame_trace("s81", 30)
        assert all(v.denominator % 5 for s in "zy" for v in trace[s])
        monkeypatch.setattr(systems_mod, "_SCREEN_PRIME", 5)
        found = template_search(trace, 2, 1)
        assert _search_key(found) == _search_key(template_search_direct(trace, 2, 1))

    # (shift_bound, exp_bound, max_period): the message
    VACUOUS = {
        (-1, 1, 4): "shift_bound must be >= 0, got -1",
        (2, 0, 4): "exp_bound must be >= 1, got 0",
        (2, 1, 0): "max_period must be >= 1, got 0",
    }

    @pytest.mark.parametrize("bounds", list(VACUOUS))
    def test_vacuous_search_rejected(self, bounds):
        with pytest.raises(QuiverError, match=f"^{self.VACUOUS[bounds]}$"):
            template_search(_n4_trace(14), *bounds)


# single-entry changes of all-ones multipliers: (sequence, index, value)
_TZ_BUMPS = [(), ("z", 0, 2), ("y", 3, 5), ("z", 8, 2), ("y", 1, 3), ("z", 5, 4)]


def _bumped_z(seq=None, index=0, value=1):
    Z = {s: [F(1)] * 40 for s in "zy"}
    if seq is not None:
        Z[seq][index] = F(value)
    return Z


def _instance(name):
    return next(inst for inst in fm.regression_instances(1) if str(inst[0]) == name)


class TestTZ:
    def test_all_ones_z_equals_plain_t(self):
        sys, _ = tsys("n4-k2-1", n=1)
        tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
        init = {"z": [F(1)] * 3, "y": [F(1)]}
        Z1 = {"z": [F(1)] * 40, "y": [F(1)] * 40}
        assert iterate_system(tz, init, 20, Z=Z1) == iterate_system(sys, init, 20)
        assert check_TZ_condition(Z1, sys, steps=10)

    def test_violating_z_fails_within_ten_steps(self):
        sys, _ = tsys("n4-k2-1", n=1)
        rng = random.Random(59)
        Zbad = {
            "z": [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(40)],
            "y": [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(40)],
        }
        assert not check_TZ_condition(Zbad, sys, steps=10)

    def test_check_decides_random_z_quickly(self):
        # Z drawn from {1, 2} breaks the exchange cancellations, so iterating
        # the TZ system passes a million bits by step 13; the rule reads Z only
        _, spec, B = _instance("N4#3(l=1,m=1,n=1,p=1)")
        rng = random.Random(1)
        Z = {s: [F(rng.choice([1, 2])) for _ in range(40)] for s in "zy"}
        start = time.monotonic()
        assert check_TZ_condition(Z, extract_system(B, spec, "T"), steps=3) is False
        assert time.monotonic() - start < 1

    def test_constrained_z_preserves_periodicity(self):
        # the constraint ties the eq2 multiplier to the eq1 multiplier
        sys, _ = tsys("n4-k2-1", n=1)
        tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
        rng = random.Random(61)
        Zy = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
        Zz = [F(rng.randint(1, 4), rng.randint(1, 4))] + Zy[:-1]
        init = {"z": [F(1)] * 3, "y": [F(1)]}
        seqs = iterate_system(tz, init, 17, Z={"z": Zz, "y": Zy})
        assert verify_periodic(seqs, BUILTIN_TEMPLATES["s81"], 12).ok

    def test_unconstrained_z_breaks_periodicity(self):
        sys, _ = tsys("n4-k2-1", n=1)
        tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
        rng = random.Random(67)
        Z = {
            "z": [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)],
            "y": [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)],
        }
        seqs = iterate_system(tz, init := {"z": [F(1)] * 3, "y": [F(1)]}, 15, Z=Z)
        assert not verify_periodic(seqs, BUILTIN_TEMPLATES["s81"], 10).ok

    def test_slot_in_plus_and_minus(self):
        # a hand-written system-v1 file with y(q) in both monomials of eq1:
        #   z(q)*y(q+1) = z(q+1)*y(q) + y(q),  y(q)*z(q+3) = z(q+2) + z(q+1)
        data = tsys("n4-k2-1", n=1)[0].to_dict()
        data["eq1"]["plus"] = [["y", 0, 1], ["z", 1, 1]]
        data["eq1"]["minus"] = [["y", 0, 1]]
        data["eq2"]["plus"] = [["z", 2, 1]]
        data["eq2"]["minus"] = [["z", 1, 1]]
        sys = SystemSpec.from_dict(data)
        window = {"z": [F(2), F(3), F(1, 2)], "y": [F(3, 4)]}
        assert iterate_system(sys, window, 6) == t_iterate_direct(sys, window, 6)

    def test_matches_substitution_oracle_on_corpus(self):
        # every instance with parameters up to 1, under all-ones Z and under
        # single-entry bumps; the oracle substitutes iterated T_Z values into
        # the Y-system and gives up (None) past its bit budget
        lib_s, decided = 0.0, set()
        for _, spec, B in fm.regression_instances(1):
            sys = extract_system(B, spec, "T")
            for bump in _TZ_BUMPS:
                Z = _bumped_z(*bump)
                start = time.process_time()
                got = check_TZ_condition(Z, sys, steps=10)
                lib_s += time.process_time() - start
                assert type(got) is bool
                want = tz_substitution_direct(Z, sys, 10, bit_budget=10_000)
                if want is not None:
                    assert got is want, (spec, B, bump)
                    decided.add(got)
        assert decided == {True, False}
        assert lib_s < 1

    @pytest.mark.parametrize("name, bump", [
        ("N6#1(m=0)", ("z", 8, 2)),
        ("N5_1cycle#3(n=0)", ("y", 3, 5)),
    ])
    def test_bump_read_by_the_y_system(self, name, bump):
        # the Y-system reads this slot and the T-system does not, so a rule
        # taking its exponents from the T-system misses the bump
        _, spec, B = _instance(name)
        sys, Z = extract_system(B, spec, "T"), _bumped_z(*bump)
        assert check_TZ_condition(Z, sys, steps=10) is False
        assert tz_substitution_direct(Z, sys, 10, bit_budget=10_000) is False

    def test_markov_random_z_decided_quickly(self):
        _, spec, B = _instance("N3#2()")
        rng = random.Random(1)
        Z = {s: [F(rng.choice([1, 2])) for _ in range(40)] for s in "zy"}
        start = time.monotonic()
        assert check_TZ_condition(Z, extract_system(B, spec, "T"), steps=4) is False
        assert time.monotonic() - start < 1

    def test_rejects_a_system_other_than_the_extracted_one(self):
        data = tsys("n4-k2-1", n=1)[0].to_dict()
        data["eq1"]["plus"] = [["y", 0, 1], ["z", 1, 1]]
        data["eq1"]["minus"] = [["y", 0, 1]]
        with pytest.raises(QuiverError, match="equations extract_system gives"):
            check_TZ_condition(_bumped_z(), SystemSpec.from_dict(data), steps=10)

    def test_rejects_zero_z_in_range(self):
        sys, _ = tsys("n4-k2-1", n=1)
        with pytest.raises(QuiverError, match=r"Z\['y'\] has a zero"):
            check_TZ_condition(_bumped_z("y", 4, 0), sys, steps=10)
        # past the values the rule reads, a zero is never used
        assert check_TZ_condition(_bumped_z("y", 39, 0), sys, steps=10)

    def test_rejects_short_z(self):
        sys, _ = tsys("n4-k2-1", n=1)
        need = 10 + max(off for eq in extract_system(sys.B0, sys.spec, "Y").equations()
                        for (_, off), _e in eq.factors())
        Z = {s: [F(1)] * need for s in "zy"}
        assert check_TZ_condition(Z, sys, steps=10)
        Z["z"].pop()
        with pytest.raises(QuiverError, match=rf"Z\['z'\] must provide at least {need} values"):
            check_TZ_condition(Z, sys, steps=10)
        with pytest.raises(QuiverError, match="steps must be >= 0"):
            check_TZ_condition(Z, sys, steps=-1)
