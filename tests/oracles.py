"""Independent re-implementations used as test oracles.

These deliberately avoid the library's formula paths: mutation is done by the
three-step arrow procedure on explicit arrow counts, the period-2 search
oracle is a plain loop over all candidate matrices, and the template search
oracle divides out every numerator/denominator pair with Fractions.
"""

from fractions import Fraction
from itertools import product

from quiverperiod import (
    ExchangeMatrix,
    OrbitTrace,
    Period2Spec,
    PeriodicQuantityTemplate,
    Permutation,
    QuiverError,
    Seed,
    is_period2,
    mutate_seed,
    permute,
    verify_periodic,
)
from quiverperiod.systems import _mono


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


def relabel_direct(seed: Seed, sigma: Permutation) -> Seed:
    """seed with vertex i renamed sigma(i): slot sigma(i) takes slot i."""
    back = sigma.inverse()

    def moved(values):
        return tuple(values[back(i) - 1] for i in range(1, len(values) + 1))

    return Seed(permute(seed.B, sigma), moved(seed.x), moved(seed.y))


def coefficient_orbit_direct(seed: Seed, spec: Period2Spec, steps: int):
    """run_orbit's schedule as plain mutate_seed calls on the input values,
    so every y follows the direct rule y_j (1 + y_k)^w, with the relabeling by
    sigma done by hand.  Returns the z/y/A/B sequences and the seed before
    each step and after the last."""
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
    """laurent_check's values by mutate_seed from the initial seed of B: at 1,
    then at k, then relabel by sigma, reading x_v right after each mutation at
    v, before any relabeling."""
    seed, values = Seed.initial(B), []
    for u in range(depth):
        v = 1 if u % 2 == 0 else spec.k
        seed = mutate_seed(seed, v)
        values.append(seed.x[v - 1])
        if u % 2:
            seed = relabel_direct(seed, spec.sigma())
    return values


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


def template_search_direct(
    trace,
    shift_bound: int,
    exp_bound: int,
    max_period: int = 4,
    extension=None,
) -> list:
    """systems.template_search as a plain triple loop: every numerator
    (one monomial or a pair) over every denominator, divided out with
    Fractions and tested period by period."""
    seqs = trace.seq if isinstance(trace, OrbitTrace) else trace
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
                        tmpl = PeriodicQuantityTemplate(
                            f"found-p{period}", num, (monomials[di],), period
                        )
                        if extension is not None:
                            ext_h = (
                                min(len(extension["z"]), len(extension["y"]))
                                - shift_bound
                                - period
                                - 1
                            )
                            if not verify_periodic(extension, tmpl, ext_h).ok:
                                break
                        found.append(tmpl)
                        break
    return found
