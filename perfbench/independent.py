"""Reference routes that share no code with quiverperiod.

Matrices are tuples of row tuples, vertices 1-based, values Fractions.
Mutation follows the arrow-count procedure, the orbit schedule is written out
from its definition (mutate at 1, then at k, then relabel by sigma), and
Laurent polynomials are evaluated from their exponent dictionary.  These
routes validate the committed reference digests and the seeded checks made
after every run.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def arrow_mutate(rows, k: int):
    """Add a->b for every path a->k->b, reverse the arrows at k, then cancel
    opposite pairs."""
    n = len(rows)
    count = [[max(rows[i][j], 0) for j in range(n)] for i in range(n)]
    k0 = k - 1
    step = [row[:] for row in count]
    for i in range(n):
        for j in range(n):
            if i != k0 and j != k0:
                step[i][j] += count[i][k0] * count[k0][j]
    for i in range(n):
        step[i][k0], step[k0][i] = count[k0][i], count[i][k0]
    return tuple(tuple(step[i][j] - step[j][i] for j in range(n)) for i in range(n))


def sigma_image(n: int, shape: str, k: int) -> list[int]:
    """Images of 1..n under (1 2 ... n) or (1 ... k-1)(k ... n)."""
    if shape == "1-cycle":
        return [i % n + 1 for i in range(1, n + 1)]
    img = []
    for i in range(1, n + 1):
        if i < k:
            img.append(1 if i == k - 1 else i + 1)
        else:
            img.append(k if i == n else i + 1)
    return img


def relabel(rows, img):
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[img[i] - 1][img[j] - 1] = rows[i][j]
    return tuple(tuple(r) for r in out)


def is_period2(rows, shape: str, k: int) -> bool:
    n = len(rows)
    twice = arrow_mutate(arrow_mutate(rows, 1), k)
    return relabel(twice, sigma_image(n, shape, k)) == tuple(tuple(r) for r in rows)


def connected(rows) -> bool:
    n = len(rows)
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if rows[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def brute_search(n: int, shape: str, k: int, bound: int) -> list[tuple[int, ...]]:
    """Flattened connected solutions with entries in [-bound, bound], by a
    plain loop over every skew-symmetric candidate."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for combo in product(range(-bound, bound + 1), repeat=len(pairs)):
        m = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pairs, combo):
            m[i][j], m[j][i] = v, -v
        rows = tuple(tuple(r) for r in m)
        if connected(rows) and is_period2(rows, shape, k):
            out.append(tuple(x for r in rows for x in r))
    return sorted(out)


def _exchange(rows, x, y, k: int):
    """One seed mutation at k on Fraction cluster values x and coefficient
    values y (lists, updated in place)."""
    n = len(rows)
    up, down = Fraction(1), Fraction(1)
    for i in range(n):
        w = rows[i][k - 1]
        if w > 0:
            up *= x[i] ** w
        elif w < 0:
            down *= x[i] ** -w
    x[k - 1] = (up + down) / x[k - 1]
    if y is not None:
        yk = y[k - 1]
        for j in range(n):
            w = rows[j][k - 1]
            if j == k - 1:
                y[j] = 1 / yk
            elif w > 0:
                y[j] = y[j] * (1 + yk) ** w
            elif w < 0:
                y[j] = y[j] / (1 + 1 / yk) ** -w
    return x[k - 1]


def orbit(rows, shape: str, k: int, x0, steps: int, y0=None) -> dict[str, list]:
    """The alternating orbit: z/A are the cluster/coefficient values at the
    vertex mutated on even steps, y/B those on odd steps, each read just
    before its mutation; `new` lists the value each step produces."""
    n = len(rows)
    img = sigma_image(n, shape, k)
    rows = tuple(tuple(r) for r in rows)
    x = [Fraction(v) for v in x0]
    y = None if y0 is None else [Fraction(v) for v in y0]
    seq = {"z": [], "y": [], "A": [], "B": [], "new": []}
    for u in range(steps):
        v = 1 if u % 2 == 0 else k
        seq["z" if u % 2 == 0 else "y"].append(x[v - 1])
        if y is not None:
            seq["A" if u % 2 == 0 else "B"].append(y[v - 1])
        seq["new"].append(_exchange(rows, x, y, v))
        rows = arrow_mutate(rows, v)
        if u % 2 == 1:
            rows = relabel(rows, img)
            x2, y2 = [None] * n, [None] * n
            for i in range(n):
                x2[img[i] - 1] = x[i]
                if y is not None:
                    y2[img[i] - 1] = y[i]
            x = x2
            y = y2 if y is not None else None
    return seq


def eval_terms(terms: dict, point) -> Fraction:
    """Value of sum c * prod x_i^e_i at a point of nonzero Fractions."""
    total = Fraction(0)
    for exps, c in terms.items():
        term = Fraction(c)
        for v, e in zip(point, exps):
            if e:
                term *= v ** e
        total += term
    return total


def eval_template(num, den, seqs, q: int) -> Fraction:
    """A periodic-quantity template given as monomial tuples
    ((coeff, (((seq, offset), exp), ...)), ...)."""

    def side(monomials):
        total = Fraction(0)
        for coeff, factors in monomials:
            term = Fraction(coeff)
            for (seq, off), e in factors:
                term *= seqs[seq][q + off] ** e
            total += term
        return total

    return side(num) / side(den)
