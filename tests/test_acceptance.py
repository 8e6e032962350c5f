"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer or rational equality).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from quiverperiod import (
    BUILTIN_TEMPLATES,
    ONE_CYCLE,
    TWO_CYCLE,
    EquationSpec,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    SearchJob,
    Seed,
    SystemSpec,
    check_TZ_condition,
    extract_system,
    initial_window_from_seed,
    is_period1,
    is_period2,
    iterate_system,
    laurent_check,
    mutate,
    period1_from_row,
    required_window,
    residual,
    run_orbit,
    search,
    tabulate_system,
    verify_periodic,
)
import quiverperiod.families as fm
import quiverperiod.reductions as red

from oracles import arrow_mutate, somos4_direct

RNG_SEED = 20260810


def report(num: str, label: str, ok: bool, detail: str = ""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def rand_matrix(rng, n, bound):
    return ExchangeMatrix.from_entries(
        n,
        {
            (i, j): rng.randint(-bound, bound)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        },
    )


# ---------------------------------------------------------------------------
# 1. mutation correctness
# ---------------------------------------------------------------------------


def test_criterion_01_mutation():
    rng = random.Random(RNG_SEED)
    t0 = time.monotonic()
    for _ in range(1000):
        n = rng.randint(2, 8)
        B = rand_matrix(rng, n, 5)
        k = rng.randint(1, n)
        assert mutate(mutate(B, k), k) == B
    for _ in range(1000):
        n = rng.randint(2, 8)
        B = rand_matrix(rng, n, 5)
        k = rng.randint(1, n)
        assert mutate(B, k) == arrow_mutate(B, k)
    dt = time.monotonic() - t0
    report(
        "1",
        "mutation involution and arrow-procedure agreement on 1000 random cases",
        dt < 5.0,
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. period-1 equivalence, exhaustive n <= 5, |b| <= 2
# ---------------------------------------------------------------------------


def _bulk_period1(batch: np.ndarray) -> np.ndarray:
    """Vectorized permute(mutate(B,1), rho) == B over a batch of matrices."""
    n = batch.shape[1]
    c = batch[:, :, 0].astype(np.int64)
    r = batch[:, 0, :].astype(np.int64)
    eps = (np.abs(c)[:, :, None] * r[:, None, :] + c[:, :, None] * np.abs(r)[:, None, :]) // 2
    Bp = batch.astype(np.int64) + eps
    Bp[:, 0, :] = -batch[:, 0, :]
    Bp[:, :, 0] = -batch[:, :, 0]
    P = (np.arange(n) + 1) % n
    D = np.empty_like(Bp)
    D[:, P[:, None], P[None, :]] = Bp
    return (D == batch).all(axis=(1, 2))


def test_criterion_02_period1_equivalence():
    t0 = time.monotonic()
    rng = random.Random(RNG_SEED + 1)
    for n in (2, 3, 4, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        p = len(pairs)
        # matrices of the first-row construction, keyed by upper triangle
        fm_keys = set()
        powers = np.array([5 ** t for t in range(p)], dtype=np.int64)
        for row in product(range(-2, 3), repeat=n - 1):
            if any(row[j - 2] != row[n - j] for j in range(2, n + 1)):
                continue
            M = period1_from_row(row)
            if max(abs(x) for x in M.flatten()) > 2:
                continue
            key = sum(
                (M.b(i + 1, j + 1) + 2) * int(powers[t])
                for t, (i, j) in enumerate(pairs)
            )
            fm_keys.add(key)
        fm_keys = np.array(sorted(fm_keys), dtype=np.int64)

        split = min(p, 6)
        inner = np.array(
            list(product(range(-2, 3), repeat=split)), dtype=np.int16
        )
        outer_iter = product(range(-2, 3), repeat=p - split)
        checked = 0
        positives = []
        for outer in outer_iter:
            M = inner.shape[0]
            combos = np.empty((M, p), dtype=np.int16)
            if p > split:
                combos[:, : p - split] = np.array(outer, dtype=np.int16)
            combos[:, p - split :] = inner
            batch = np.zeros((M, n, n), dtype=np.int16)
            iu = np.array([i for i, _ in pairs])
            ju = np.array([j for _, j in pairs])
            batch[:, iu, ju] = combos
            batch[:, ju, iu] = -combos
            mask_p1 = _bulk_period1(batch)
            keys = combos.astype(np.int64) @ powers + 2 * int(powers.sum())
            mask_fm = np.isin(keys, fm_keys)
            assert (mask_p1 == mask_fm).all(), f"n={n}"
            checked += M
            for idx in np.nonzero(mask_p1)[0][:50]:
                positives.append(
                    ExchangeMatrix.from_rows(batch[idx].tolist())
                )
        assert checked == 5 ** p
        # the vectorized route must agree with the library predicate
        for B in positives[:40]:
            assert is_period1(B)
        for _ in range(300):
            B = rand_matrix(rng, n, 2)
            flat = np.array(B.rows, dtype=np.int16)[None, :, :]
            assert bool(_bulk_period1(flat)[0]) == is_period1(B)
    dt = time.monotonic() - t0
    report(
        "2",
        "period-1 predicate equals first-row construction, exhaustive n<=5 |b|<=2",
        dt < 120.0,
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. three-vertex classification
# ---------------------------------------------------------------------------


def test_criterion_03_three_vertex():
    t0 = time.monotonic()
    spec = Period2Spec(3, ONE_CYCLE, 2)
    got = set(search(SearchJob(spec, 3, connected_only=True)))
    expected = fm.expected_search_set("N3", spec, 3)
    assert got == expected and len(expected) == 8
    pairs = [(1, 2), (1, 3), (2, 3)]
    for combo in product(range(-2, 3), repeat=3):
        B = ExchangeMatrix.from_entries(3, dict(zip(pairs, combo)))
        assert (all(v == 0 for v in residual(B, spec))) == is_period2(B, spec)
    dt = time.monotonic() - t0
    report(
        "3",
        "3-vertex search matches the classification; residual <=> predicate",
        dt < 10.0,
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. four-vertex classification, all three defining equations
# ---------------------------------------------------------------------------


def test_criterion_04_four_vertex():
    t0 = time.monotonic()
    for family in fm.families_of("N4"):
        for fid, B in fm.iter_instances(family, 2):
            assert is_period2(B, family.spec), str(fid)
    for spec in (
        Period2Spec(4, ONE_CYCLE, 2),
        Period2Spec(4, TWO_CYCLE, 3),
        Period2Spec(4, TWO_CYCLE, 2),
    ):
        got = set(search(SearchJob(spec, 2, connected_only=True)))
        expected = fm.expected_search_set("N4", spec, 2)
        assert got == expected, spec
    dt = time.monotonic() - t0
    report(
        "4",
        "4-vertex families pass and bound-2 searches find no connected extras",
        dt < 120.0,
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. five-vertex classifications and the stated mutation pairings
# ---------------------------------------------------------------------------


def test_criterion_05_five_vertex():
    t0 = time.monotonic()
    for theorem in ("N5_1cycle", "N5_other"):
        for family in fm.families_of(theorem):
            for fid, B in fm.iter_instances(family, 3):
                assert is_period2(B, family.spec), str(fid)
    rows = []
    for src, dst in fm._PAIRING_CLAIMS:
        rows.extend(fm._check_pairing(src, dst, 2))
    assert rows and all(r.ok for r in rows), [r.label for r in rows if not r.ok]
    dt = time.monotonic() - t0
    report(
        "5",
        "5-vertex families (params in validity range cap 3) pass; "
        "vertex-1 mutation pairings confirmed by relabeling search",
        dt < 120.0,
        f"{dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. six-vertex classification
# ---------------------------------------------------------------------------


def test_criterion_06a_six_vertex_families():
    spec = Period2Spec(6, ONE_CYCLE, 5)
    for family in fm.families_of("N6"):
        for fid, B in fm.iter_instances(family, 3):
            assert is_period2(B, spec), str(fid)
    report("6a", "6-vertex family instances (params <= 3) pass the k=5 equation", True)


def test_criterion_06b_six_vertex_search_completeness():
    t0 = time.monotonic()
    spec = Period2Spec(6, ONE_CYCLE, 5)
    got = set(search(SearchJob(spec, 2, connected_only=True)))
    expected = fm.expected_search_set("N6", spec, 2)
    dt = time.monotonic() - t0
    assert dt < 600.0, f"search took {dt:.1f}s"
    extras = sorted(B.flatten() for B in got - expected)
    missing = sorted(B.flatten() for B in expected - got)
    ok = got == expected
    detail = f"{len(got)} found vs {len(expected)} listed, {dt:.1f}s"
    if not ok:
        detail += (
            f"; the classification misses {len(extras)} connected solutions "
            "in its zero-parameter branch (each re-verified directly against "
            f"the defining equation): {extras[:2]} ..."
        )
    # every found matrix is genuinely a solution, so a mismatch here means the
    # published list is incomplete, not that the search is unsound
    for B in got:
        assert is_period2(B, spec)
    assert not missing, "search missed listed instances"
    report("6b", "6-vertex bound-2 search returns exactly the listed quivers", ok, detail)


# ---------------------------------------------------------------------------
# 7. closed-form extraction vs first-principles tabulation
# ---------------------------------------------------------------------------


def test_criterion_07_closed_form_vs_tabulation():
    count = 0
    for fid, spec, B in fm.regression_instances(2):
        for kind in ("T", "Y"):
            closed = extract_system(B, spec, kind)
            generic = tabulate_system(B, spec, kind)
            assert (closed.eq1, closed.eq2) == (generic.eq1, generic.eq2), (
                str(fid),
                kind,
            )
            count += 1
    report(
        "7",
        "closed-form exponents equal window tabulation on every instance",
        True,
        f"{count} systems",
    )


# ---------------------------------------------------------------------------
# 8. the 4-vertex dynamics suite
# ---------------------------------------------------------------------------


def test_criterion_08_four_vertex_dynamics():
    family = fm.FAMILY_BY_KEY["n4-k2-1"]
    for n in (1, 2, 3):
        B = family.matrix(n=n)
        tsys = extract_system(B, family.spec, "T")
        assert tsys.eq1 == EquationSpec(
            (("z", 0), ("y", 1)), {("z", 1): n, ("y", 0): n}, {}
        )
        assert tsys.eq2 == EquationSpec(
            (("y", 0), ("z", 3)), {("z", 2): n, ("y", 1): n}, {}
        )
        ysys = extract_system(B, family.spec, "Y")
        assert ysys.eq1 == EquationSpec(
            (("z", 0), ("y", 1)), {("z", 1): n, ("y", 0): n}, {}
        )
        assert ysys.eq2 == EquationSpec(
            (("y", 0), ("z", 3)), {("z", 2): n, ("y", 1): n}, {}
        )
    # 50 steps x 10 random positive rational seeds at the tame weight
    rng = random.Random(RNG_SEED + 8)
    B = family.matrix(n=1)
    tsys = extract_system(B, family.spec, "T")
    for _ in range(10):
        x0 = tuple(F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(4))
        y0 = tuple(F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(4))
        seqs = iterate_system(tsys, initial_window_from_seed(tsys, x0), 55)
        assert verify_periodic(seqs, BUILTIN_TEMPLATES["s81"], 50).ok
        trace = run_orbit(Seed(B, x0, y0), family.spec, 108, keep_states=False)
        A, Bq = trace.seq["A"], trace.seq["B"]
        D = [A[q + 1] / Bq[q] for q in range(52)]
        assert all(D[q + 2] == D[q] for q in range(50))
    # reduced forms of both sides agree with the full iterations
    assert red.reduce_s81(1, 30).ok
    trace = run_orbit(Seed(B, tuple(F(1) for _ in range(4)), y0), family.spec, 70,
                      keep_states=False)
    assert red.reduce_s81_y(1, trace.seq["A"], trace.seq["B"], 30).ok
    # heavier weight, growth-bounded horizon
    assert red.reduce_s81(2, 5).ok
    report(
        "8",
        "4-vertex T/Y systems regenerated; both period-2 quantities hold over "
        "50 steps x 10 seeds; reductions agree",
        True,
    )


# ---------------------------------------------------------------------------
# 9. the Somos-4 reductions
# ---------------------------------------------------------------------------


def test_criterion_09_somos4():
    for exponent in (1, 2, 3):
        assert red.reduce_somos4("s82", exponent, 30).ok
        assert red.reduce_somos4("s84", exponent, 30).ok
    full = red.iterate_family("s82", 2, 8)
    C = BUILTIN_TEMPLATES["s82"].eval_at(full, 0)
    assert C == 2
    assert somos4_direct(C, 2, [1, 1, 1, 1], 6) == full["z"][:10]
    report(
        "9",
        "Somos-4 reductions agree with the full systems for 30 terms, "
        "exponents 1..3; all-ones constant is 2 and matches the direct recurrence",
        True,
    )


# ---------------------------------------------------------------------------
# 10. the half-reduced 5-vertex suite
# ---------------------------------------------------------------------------


def test_criterion_10_half_reduced():
    tmpl = BUILTIN_TEMPLATES["s83"]
    rng = random.Random(RNG_SEED + 10)
    family, _ = fm.section_family("s83")
    tsys = extract_system(family.matrix(n=0), family.spec, "T")
    for _ in range(3):
        need = required_window(tsys)
        window = {
            name: [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(cnt)]
            for name, cnt in need.items()
        }
        seqs = iterate_system(tsys, window, 56)
        assert verify_periodic(seqs, tmpl, 50).ok
    assert red.reduce_s83(0, 30).ok
    assert red.reduce_s83(1, 6).ok
    report(
        "10",
        "5-vertex constant holds over 50 steps; half-reduced pair reproduces "
        "the full trace",
        True,
    )


# ---------------------------------------------------------------------------
# 11. the 6-vertex dynamics suites and the Somos-5 reduction
# ---------------------------------------------------------------------------


def test_criterion_11_six_vertex_dynamics():
    rng = random.Random(RNG_SEED + 11)
    fam85, _ = fm.section_family("s85")
    tsys85 = extract_system(fam85.matrix(m=1), fam85.spec, "T")
    fam86, _ = fm.section_family("s86")
    tsys86 = extract_system(fam86.matrix(n=2), fam86.spec, "T")
    for tsys, tmpl in ((tsys85, BUILTIN_TEMPLATES["s85"]), (tsys86, BUILTIN_TEMPLATES["s86"])):
        for _ in range(10):
            need = required_window(tsys)
            window = {
                name: [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(cnt)]
                for name, cnt in need.items()
            }
            seqs = iterate_system(tsys, window, 58)
            assert verify_periodic(seqs, tmpl, 50).ok
    assert red.reduce_s85(1, 30).ok
    assert red.reduce_somos5(2, 30).ok
    report(
        "11",
        "6-vertex period-2 quantity and constant hold over 50 steps x 10 seeds; "
        "Somos-5 reduction agrees for 30 terms",
        True,
    )


# ---------------------------------------------------------------------------
# 12. Laurent property suite
# ---------------------------------------------------------------------------


def test_criterion_12_laurent_suite():
    import multiprocessing as mp

    t0 = time.monotonic()
    tasks = [
        (fam.key, dict(fid.params))
        for fam in fm._FAMILIES
        for fid, _ in fm.iter_instances(fam, 2)
    ]
    # heaviest first by total arrow weight, one task per hand-out, so that
    # no heavy instance (n4-2c3-2 and n5-k3-1 with every parameter 2 take
    # 3-4 s each) waits in the tail of a large chunk
    tasks.sort(key=_arrow_weight, reverse=True)
    with mp.Pool(2) as pool:
        results = list(pool.imap_unordered(_laurent_task, tasks, chunksize=1))
    bad = [name for name, ok in results if not ok]
    dt = time.monotonic() - t0
    assert not bad, bad
    report(
        "12",
        f"symbolic depth-6 orbits of all {len(tasks)} regression instances are "
        "Laurent with integer coefficients",
        dt < 300.0,
        f"{dt:.1f}s",
    )


def _arrow_weight(task):
    key, params = task
    return sum(abs(b) for b in fm.FAMILY_BY_KEY[key].matrix(**params).flatten())


def _laurent_task(args):
    key, params = args
    family = fm.FAMILY_BY_KEY[key]
    rep = laurent_check(family.matrix(**params), family.spec, 6)
    return f"{key}{params}", rep.all_laurent


# ---------------------------------------------------------------------------
# 13. the multiplier-extended systems
# ---------------------------------------------------------------------------


def test_criterion_13_tz_systems():
    family = fm.FAMILY_BY_KEY["n4-k2-1"]
    B = family.matrix(n=1)
    tsys = extract_system(B, family.spec, "T")
    tz = SystemSpec("TZ", tsys.spec, tsys.B0, tsys.eq1, tsys.eq2)
    init = {"z": [F(1)] * 3, "y": [F(1)]}
    ones = {"z": [F(1)] * 40, "y": [F(1)] * 40}
    assert iterate_system(tz, init, 20, Z=ones) == iterate_system(tsys, init, 20)
    assert check_TZ_condition(ones, tsys, steps=10)
    rng = random.Random(RNG_SEED + 13)
    Zy = [F(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(40)]
    Zz = [F(rng.randint(1, 4), rng.randint(1, 4))] + Zy[:-1]
    seqs = iterate_system(tz, init, 17, Z={"z": Zz, "y": Zy})
    assert verify_periodic(seqs, BUILTIN_TEMPLATES["s81"], 12).ok
    Zbad = {
        "z": [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(40)],
        "y": [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(40)],
    }
    assert not check_TZ_condition(Zbad, tsys, steps=10)
    report(
        "13",
        "Z=1 multipliers reproduce the plain system; the tied-multiplier "
        "constraint preserves periodicity; a violating Z breaks the "
        "substitution within 10 steps",
        True,
    )
