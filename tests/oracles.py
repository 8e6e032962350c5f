"""Independent re-implementations used as test oracles.

These deliberately avoid the library's formula paths: mutation is done by the
three-step arrow procedure on explicit arrow counts, and the period-2 search
oracle is a plain loop over all candidate matrices.
"""

from itertools import product

from quiverperiod import ExchangeMatrix, Period2Spec, is_period2


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


def somos4_direct(C, exponent: int, initial, steps: int):
    """z(q+4) z(q) = z(q+1) z(q+3) + C z(q+2)^e, evaluated directly."""
    from fractions import Fraction

    z = [Fraction(v) for v in initial]
    for q in range(steps):
        z.append((z[q + 1] * z[q + 3] + Fraction(C) * z[q + 2] ** exponent) / z[q])
    return z


def t_iterate_direct(sys, window, steps: int, Z=None):
    """A T- (or TZ-) system iterated on plain Fractions: at each step q, eq1
    then eq2 sets lhs[1] = Z(q) * (plus monomial + minus monomial) / lhs[0]."""
    from fractions import Fraction

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
