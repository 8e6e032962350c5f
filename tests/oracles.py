"""Independent re-implementations used as test oracles.

These deliberately avoid the library's formula paths: mutation is done by the
three-step arrow procedure on explicit arrow counts, the period-2 search
oracle is a plain loop over all candidate matrices, a one-free-pair equation
is solved by trying every value within the bound, the template search
oracle divides out every numerator/denominator pair with Fractions, relabeling
fills the matrix entry by entry, the tabulated system applies the H/G rules
at every time within 4n of the equation's own, with sigma^r as Permutation powers,
and the T_Z condition is tested by substituting iterated T_Z values into the
Y-system.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

from quiverperiod import (
    EquationSpec,
    ExchangeMatrix,
    Period2Spec,
    PeriodicQuantityTemplate,
    Permutation,
    QuiverError,
    Seed,
    SystemSpec,
    extract_system,
    is_period2,
    iterate_system,
    mutate,
    mutate_seed,
    permute,
    required_window,
)
from quiverperiod.cluster import _coefficient
from quiverperiod.systems import _at, _mono, _slot, lambdas_at


def arrow_mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Mutation via arrow counts: add a->b for each path a->k->b, reverse the
    arrows at k, then cancel opposite arrow pairs."""
    n = B.n
    count = [[max(B.b(i, j), 0) for j in range(1, n + 1)] for i in range(1, n + 1)]
    k0 = k - 1
    step1 = [row[:] for row in count]
    for i in range(n):
        for j in range(n):
            if i != k0 and j != k0:
                step1[i][j] += count[i][k0] * count[k0][j]
    for i in range(n):
        step1[i][k0], step1[k0][i] = count[k0][i], count[i][k0]
    rows = [
        [step1[i][j] - step1[j][i] for j in range(n)]
        for i in range(n)
    ]
    return ExchangeMatrix.from_rows(rows)


def upper_pairs(n: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def all_matrices(n: int, bound: int):
    pairs = upper_pairs(n)
    for combo in product(range(-bound, bound + 1), repeat=len(pairs)):
        yield ExchangeMatrix.from_entries(n, dict(zip(pairs, combo)))


def brute_period2(spec: Period2Spec, bound: int) -> set[ExchangeMatrix]:
    """Direct loop calling is_period2 on every bounded candidate."""
    return {B for B in all_matrices(spec.n, bound) if is_period2(B, spec)}


def permutation_power_direct(s: Permutation, exp: int) -> Permutation:
    """s ** exp as |exp| repeated compositions, through inverse() when exp < 0."""
    base = s if exp >= 0 else s.inverse()
    result = Permutation.identity(s.n)
    for _ in range(abs(exp)):
        result = base.compose(result)
    return result


def permute_direct(B: ExchangeMatrix, s: Permutation) -> ExchangeMatrix:
    """permute(B, s) by a double loop: entry (s(i), s(j)) takes b[i][j]."""
    n = B.n
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rows[s(i) - 1][s(j) - 1] = B.b(i, j)
    return ExchangeMatrix.from_rows(rows)


def residual_direct(B: ExchangeMatrix, spec: Period2Spec) -> list[int]:
    """The defining equation's residual per pair i<j from two arrow-count
    mutations: mu_1(B) minus mu_k of B relabeled to entries b[s(i)][s(j)].
    The pair {1,k} is written with both sides negated (b[1][k] = b[s1][sk])."""
    n, k, s = spec.n, spec.k, spec.sigma()
    relabeled = ExchangeMatrix.from_rows(
        [[B.b(s(i), s(j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    left, right = arrow_mutate(B, 1), arrow_mutate(relabeled, k)
    return [
        (-1 if (i, j) == (1, k) else 1) * (left.b(i, j) - right.b(i, j))
        for i, j in upper_pairs(n)
    ]


def fits_by_scan(spec: Period2Spec, entries: dict, e: int, free: tuple, bound: int) -> list[int]:
    """The x in -bound..bound, ascending, for which the residual of the e-th
    pair i<j vanishes with entry `free` set to x and the other upper entries
    read from `entries`: residual_direct at each x in turn."""
    return [
        x
        for x in range(-bound, bound + 1)
        if residual_direct(ExchangeMatrix.from_entries(spec.n, {**entries, free: x}), spec)[e] == 0
    ]


def relabel_direct(seed: Seed, sigma: Permutation) -> Seed:
    """seed with vertex i renamed sigma(i): slot sigma(i) takes slot i."""
    back = sigma.inverse()

    def moved(values):
        return tuple(values[back(i) - 1] for i in range(1, len(values) + 1))

    return Seed(permute(seed.B, sigma), moved(seed.x), moved(seed.y))


def s_base_direct(values) -> list[int]:
    """cluster._SBase's elements by trial division with every d below 2**16,
    primes and composites alike, then the pairwise-coprime filter."""
    found = set()
    for x in (abs(p) for v in values for p in (v.numerator, v.denominator)):
        d = 2
        while d < 1 << 16 and d * d <= x:
            if x % d:
                d += 1
            else:
                x //= d
                found.add(d)
        if x > 1:
            found.add(x)
    return sorted(b for b in found if all(gcd(b, c) == 1 for c in found - {b}))


def coefficient_orbit_direct(seed: Seed, spec: Period2Spec, steps: int):
    """run_orbit's orbit as plain mutate_seed calls on the input values, so
    every y follows the direct rule y_j (1 + y_k)^w.  The schedule is encoded
    independently of Period2Spec.vertex_at: mutate at 1, then at k, then
    relabel by sigma.  Returns the z/y/A/B sequences and the seed before each
    step and after the last; the seed of step u is relabeled by sigma^(u // 2)."""
    seq = {"z": [], "y": [], "A": [], "B": []}
    states = [seed]
    for u in range(steps):
        v = 1 if u % 2 == 0 else spec.k
        seq["z" if u % 2 == 0 else "y"].append(seed.x[v - 1])
        seq["A" if u % 2 == 0 else "B"].append(seed.y[v - 1])
        seed = mutate_seed(seed, v)
        if u % 2:
            seed = relabel_direct(seed, spec.sigma())
        states.append(seed)
    return seq, states


def laurent_values_direct(B: ExchangeMatrix, spec: Period2Spec, depth: int) -> list:
    """laurent_check's values by mutate_seed from the initial seed of B, on a
    schedule encoded independently of Period2Spec.vertex_at: at 1, then at k,
    then relabel by sigma, reading x_v right after each mutation at v, before
    any relabeling."""
    seed, values = Seed.initial(B), []
    for u in range(depth):
        v = 1 if u % 2 == 0 else spec.k
        seed = mutate_seed(seed, v)
        values.append(seed.x[v - 1])
        if u % 2:
            seed = relabel_direct(seed, spec.sigma())
    return values


def tabulate_system_direct(B: ExchangeMatrix, spec: Period2Spec, kind: str) -> SystemSpec:
    """tabulate_system by the full scan of every time v within 4n of u.  The
    vertex of time 2r + l is nu^r(1) or nu^r(k), b[j][i] at time 2r + l is
    b[s(j)][s(i)] of B(l) with s = sigma^r, both as Permutation powers, and a
    point contributes only inside its window: H (T, TZ) at time u when
    v - lambda_minus(j, v) < u < v, G (Y) at time v when u < v < u + lambda_plus(i, u)."""
    kind = kind.upper()
    n, nu, sigma, B1 = spec.n, spec.nu(), spec.sigma(), mutate(B, 1)

    def vertex(t):
        r, l = divmod(t, 2)
        return (nu ** r)(1 if l == 0 else spec.k)

    def b_at(j, i, t):
        r, l = divmod(t, 2)
        s = sigma ** r
        return (B if l == 0 else B1).b(s(j), s(i))

    def build(u):
        i = vertex(u)
        lam_plus, _ = lambdas_at(spec, i, u)
        plus, minus = {}, {}
        for v in range(u - 4 * n, u + 4 * n + 1):
            if v == u:
                continue
            j = vertex(v)
            if kind == "Y":
                b = -b_at(j, i, v) if u < v < u + lam_plus else 0
            else:
                b = b_at(j, i, u) if v - lambdas_at(spec, j, v)[1] < u < v else 0
            if b > 0:
                plus[_slot(v)] = b
            elif b < 0:
                minus[_slot(v)] = -b
        return EquationSpec((_slot(u), _slot(u + lam_plus)), plus, minus)

    return SystemSpec(kind, spec, B, build(0), build(1))


def somos4_direct(C, exponent: int, initial, steps: int):
    """z(q+4) z(q) = z(q+1) z(q+3) + C z(q+2)^e, evaluated directly."""
    z = [Fraction(v) for v in initial]
    for q in range(steps):
        z.append((z[q + 1] * z[q + 3] + Fraction(C) * z[q + 2] ** exponent) / z[q])
    return z


def t_iterate_direct(sys, window, steps: int, Z=None):
    """A T- (or TZ-) system iterated on plain Fractions: at each step q, eq1
    then eq2 sets lhs[1] = Z(q) * (plus monomial + minus monomial) / lhs[0]."""
    seqs = {name: [Fraction(v) for v in window.get(name, ())] for name in ("z", "y")}

    def monomial(table, q):
        out = Fraction(1)
        for (seq, off), e in table.items():
            out *= seqs[seq][q + off] ** e
        return out

    for q in range(steps):
        for name, eq in zip("zy", (sys.eq1, sys.eq2)):
            val = monomial(eq.plus, q) + monomial(eq.minus, q)
            if Z is not None:
                val *= Fraction(Z[name][q])
            seq, off = eq.lhs[0]
            seqs[eq.lhs[1][0]].append(val / seqs[seq][q + off])
    return seqs


def tz_substitution_direct(Z, sys, steps: int, bit_budget: int):
    """check_TZ_condition by substitution: iterate the TZ system from the
    all-ones window, form the bars Y = M+/M- of eq1 and eq2, and test the
    extracted Y-system on them for q < steps; the bars are plain Fraction
    products, not the library's quotient.  None when a value of the
    iteration passes bit_budget bits before the bars are complete."""
    tz = SystemSpec("TZ", sys.spec, sys.B0, sys.eq1, sys.eq2)
    need = required_window(tz)
    run = steps + 2 * sys.spec.n + 2
    initial = {name: [Fraction(1)] * cnt for name, cnt in need.items()}
    seqs = iterate_system(tz, initial, run, Z=Z, bit_budget=bit_budget)
    if len(seqs["z"]) - need["z"] < run:
        return None
    count = steps + sys.spec.n + 1

    def bars(eq):
        factors = eq.factors()
        return [prod((Fraction(v) ** w for v, w in _at(seqs, factors, q)), start=Fraction(1))
                for q in range(count)]

    bar = {"z": bars(tz.eq1), "y": bars(tz.eq2)}
    for eq in extract_system(sys.B0, sys.spec, "Y").equations():
        (s0, o0), (s1, o1) = eq.lhs
        factors = eq.factors()
        for q in range(steps):
            if bar[s0][q + o0] * bar[s1][q + o1] != _coefficient(Fraction(1), _at(bar, factors, q)):
                return False
    return True


def template_search_direct(seqs, shift_bound: int, exp_bound: int, max_period: int = 4) -> list:
    """systems.template_search as a plain triple loop: every numerator
    (one monomial or a pair) over every denominator, divided out with
    Fractions and tested period by period."""
    slots = [(s, off) for s in ("z", "y") for off in range(shift_bound + 1)]
    monomials = [_mono(1)]
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
    zlen = len(seqs["z"])
    ylen = len(seqs["y"])
    usable = min(zlen, ylen) - shift_bound - max_period
    if usable < 3:
        raise QuiverError("trace too short for template search")

    def values_of(mono, count: int):
        coeff, factors = mono
        out = []
        for q in range(count):
            value = Fraction(coeff)
            for (seq, off), e in factors:
                value *= Fraction(seqs[seq][q + off]) ** e
            out.append(value)
        return out

    mono_vals = [values_of(m, usable) for m in monomials]
    found = []
    n_mono = len(monomials)
    for ni in range(n_mono):
        for nj in range(ni, n_mono):
            if ni == nj:
                num_vals = mono_vals[ni]
                num = (monomials[ni],)
            else:
                num_vals = [a + b for a, b in zip(mono_vals[ni], mono_vals[nj])]
                num = (monomials[ni], monomials[nj])
            for di in range(n_mono):
                if di == ni and ni == nj:
                    continue
                den_vals = mono_vals[di]
                if any(v == 0 for v in den_vals):
                    continue
                vals = [a / b for a, b in zip(num_vals, den_vals)]
                for period in range(1, max_period + 1):
                    if all(
                        vals[q + period] == vals[q] for q in range(usable - period)
                    ):
                        found.append(
                            PeriodicQuantityTemplate(
                                f"found-p{period}", num, (monomials[di],), period
                            )
                        )
                        break
    return found
