"""Bounded exhaustive search for solutions of the period-2 equations.

The unknowns are the n(n-1)/2 upper-triangle entries; skew-symmetry fills the
rest.  Each unordered vertex pair {i,j} contributes one equation comparing the
vertex-1 mutation with the vertex-k mutation of the relabeled quiver:

    case 1 (1 in the pair, k not):   -b[i][j] = b[si][sj] + eps(si, sk, sj)
    case 2 (k in the pair, 1 not):   b[i][j] + eps(i, 1, j) = -b[si][sj]
    case 3 (otherwise):              b[i][j] + eps(i, 1, j)
                                         = b[si][sj] + eps(si, sk, sj)

with s = sigma and eps(a, c, d) = (|b[a][c]| b[c][d] + b[a][c] |b[c][d]|) / 2.
The solver runs a depth-first enumeration that checks each equation as soon as
its support is assigned.  Once a single pair of an equation is unassigned, the
residual is linear in its value on each side of 0, so it is solved in closed
form, from the equation's view for that pair, built once; the solver tracks the
sum of each equation's unassigned pairs, which is then that pair.  Every
residual is odd under B -> -B: the solver branches on 0..bound alone until it
assigns a nonzero value, and reports each solution with its negation.  This
keeps the 6-vertex bound-2 job (5^15 candidates) tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .quiver import ExchangeMatrix, Period2Spec, QuiverError, _integer, is_connected, mu1_partner

Pair = tuple[int, int]


@dataclass(frozen=True)
class SearchJob:
    spec: Period2Spec
    bound: int
    connected_only: bool = False
    canonicalize: bool = False
    jobs: int = 1

    def __post_init__(self):
        for name in ("bound", "jobs"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least=1))


def _pairs(n: int) -> list[Pair]:
    """The unknowns (i, j), i < j, in the order that indexes them everywhere."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True, eq=False)
class _Equation:
    """One residual equation over pair indices (positions in _pairs(n)).

    LHS - RHS = sum(c * v[t] for t, c in terms)
              + sum(s * eps(sa * v[ta], sc * v[tc]) for s, ta, sa, tc, sc in eps)
    with eps(a, c) = (|a| c + a |c|) / 2.  views[t], t in the support, splits
    this with t free: (slope of t in terms, the eps terms with t as (side, sign
    of t, sign of the other pair, other pair), terms without t, eps without t).
    Compared by identity: the solver keeps its state in lists indexed by
    equation, never in sets of equations.
    """

    pair: Pair
    case: int
    terms: tuple[tuple[int, int], ...]
    eps: tuple[tuple[int, int, int, int, int], ...]
    support: tuple[int, ...]
    views: dict[int, tuple[int, tuple, tuple, tuple]]


def _equations(spec: Period2Spec) -> list[_Equation]:
    n, k = spec.n, spec.k
    sigma = spec.sigma()
    pairs = _pairs(n)
    index = {p: t for t, p in enumerate(pairs)}

    def ref(i: int, j: int) -> tuple[int, int] | None:
        """(t, sign) with b[i][j] = sign * v[t]; None on the diagonal."""
        if i == j:
            return None
        return (index[i, j], 1) if i < j else (index[j, i], -1)

    eqs = []
    for i, j in pairs:
        si, sj, sk = sigma(i), sigma(j), sigma(k)
        has1, hask = 1 in (i, j), k in (i, j)
        case = 1 if has1 and not hask else 2 if hask and not has1 else 3
        lhs_sign = -1 if case == 1 else 1  # the LHS is -b[i][j] in case 1
        rhs_sign = -1 if case == 2 else 1
        (lt, ls), (rt, rs) = ref(i, j), ref(si, sj)
        terms = ((lt, lhs_sign * ls), (rt, -rhs_sign * rs))
        eps = []
        for side, wanted, a, c in (
            (1, case in (2, 3), ref(i, 1), ref(1, j)),  # eps(i, 1, j)
            (-1, case in (1, 3), ref(si, sk), ref(sk, sj)),  # eps(si, sk, sj)
        ):
            if wanted and a is not None and c is not None:
                eps.append((side, *a, *c))
        support = tuple(sorted({lt, rt, *(t for e in eps for t in (e[1], e[3]))}))
        views = {  # see _Equation
            t: (
                sum(c for s, c in terms if s == t),
                tuple((side, sa, sc, tc) if ta == t else (side, sc, sa, ta)
                      for side, ta, sa, tc, sc in eps if t in (ta, tc)),
                tuple(x for x in terms if x[0] != t),
                tuple(x for x in eps if t not in (x[1], x[3])),
            )
            for t in support
        }
        eqs.append(_Equation((i, j), case, terms, tuple(eps), support, views))
    return eqs


def _eval(terms: Sequence, eps: Sequence, val: Sequence[int]) -> int:
    """Terms and eps terms (see _Equation) summed at val; their pairs must be set."""
    r = 0
    for t, c in terms:
        r += c * val[t]
    for side, ta, sa, tc, sc in eps:
        a, c = sa * val[ta], sc * val[tc]
        r += side * ((abs(a) * c + a * abs(c)) // 2)
    return r


def residual(B: ExchangeMatrix, spec: Period2Spec) -> list[int]:
    """LHS - RHS of the defining equation for each pair {i,j}, i<j, in order."""
    return [v for _, _, v in residual_report(B, spec)]


def residual_report(
    B: ExchangeMatrix, spec: Period2Spec
) -> list[tuple[Pair, int, int]]:
    """(pair, case label, residual value) per equation, same order as residual()."""
    if B.n != spec.n:
        raise QuiverError(f"degree mismatch: matrix {B.n}, spec {spec.n}")
    val = [B.b(i, j) for i, j in _pairs(B.n)]
    return [(eq.pair, eq.case, _eval(eq.terms, eq.eps, val)) for eq in _equations(spec)]


class _Solver:
    """Depth-first enumeration with propagation, over pair indices.

    val[t] is the value of pair t or None; free[e] counts the unassigned
    support pairs of equation e, so an assignment revisits only the equations
    it touches, and free_sum[e] sums them, so it is the free pair when
    free[e] == 1; done[e] marks an equation that holds whatever is still free.
    nonzero counts the assigned nonzero values; while it is 0, every value is
    0 and a branch takes only 0..bound, since a state and its negation have
    mirrored picks and propagations.
    """

    def __init__(self, spec: Period2Spec, bound: int, prefix: dict[int, int] | None = None):
        self.bound = bound
        m = spec.n * (spec.n - 1) // 2
        self.equations = _equations(spec)
        self.eqs_of_pair: list[list[int]] = [[] for _ in range(m)]
        for e, eq in enumerate(self.equations):
            for t in eq.support:
                self.eqs_of_pair[t].append(e)
        self.val: list[int | None] = [None] * m
        for t, v in (prefix or {}).items():
            self.val[t] = v
        self.nonzero = sum(1 for v in self.val if v)
        unset = [[t for t in eq.support if self.val[t] is None] for eq in self.equations]
        self.free, self.free_sum = [len(u) for u in unset], [sum(u) for u in unset]
        self.done = [False] * len(self.equations)

    def solutions(self) -> Iterator[tuple[int, ...]]:
        """Each solution as its tuple of pair values, one of each s, -s."""
        return self._dfs([e for e, f in enumerate(self.free) if f <= 1])

    def _assign(self, t: int, v: int, queue: list[int]) -> None:
        """Set pair t and queue the equations left with at most one free pair."""
        self.val[t] = v
        self.nonzero += v != 0
        free, free_sum = self.free, self.free_sum
        for e in self.eqs_of_pair[t]:
            free[e] -= 1
            free_sum[e] -= t
            if free[e] <= 1:
                queue.append(e)

    def _unassign(self, t: int) -> None:
        self.nonzero -= self.val[t] != 0
        self.val[t] = None
        free, free_sum = self.free, self.free_sum
        for e in self.eqs_of_pair[t]:
            free[e] += 1
            free_sum[e] += t

    def _fits(self, eq: _Equation, t: int) -> list[int]:
        """The x in -bound..bound, ascending, solving eq with its one free pair
        t set to x: f0 + neg * x = 0 for x <= 0, f0 + pos * x = 0 for x >= 0,
        as eps(s * x, f) is x (f + s |f|) / 2 if x > 0, x (s |f| - f) / 2 if x < 0."""
        val = self.val
        pos, near, terms, eps = eq.views[t]
        neg = pos
        for side, s, so, o in near:
            f = so * val[o]
            pos += side * ((f + s * abs(f)) // 2)
            neg += side * ((s * abs(f) - f) // 2)
        f0 = _eval(terms, eps, val)
        b = self.bound
        if not f0:  # 0 fits, and a whole side fits where its slope is 0
            return [*(() if neg else range(-b, 0)), 0, *(() if pos else range(1, b + 1))]
        fits = []
        for slope, lo, hi in ((neg, -b, -1), (pos, 1, b)):
            if slope:
                x, r = divmod(-f0, slope)
                if not r and lo <= x <= hi:
                    fits.append(x)
        return fits

    def _propagate(self, queue: list[int]) -> tuple[list[int], list[int], bool]:
        """Check the queued equations, assign each pair that one of them
        forces, and check what that touches in turn; returns (pairs assigned,
        equations done, consistent)."""
        val, free, free_sum, done = self.val, self.free, self.free_sum, self.done
        assigned: list[int] = []
        closed: list[int] = []
        while queue:
            e = queue.pop()
            if done[e]:
                continue
            eq = self.equations[e]
            if free[e] == 1:
                t = free_sum[e]
                fits = self._fits(eq, t)
                if not fits:
                    return assigned, closed, False
                if len(fits) == 1:
                    self._assign(t, fits[0], queue)
                    assigned.append(t)
                elif len(fits) <= 2 * self.bound:
                    continue
            elif _eval(eq.terms, eq.eps, val) != 0:
                return assigned, closed, False
            done[e] = True
            closed.append(e)
        return assigned, closed, True

    def _pick(self) -> int:
        # only called with a pair unassigned, and every pair is in the
        # support of its own equation, so some equation has a candidate:
        # the first equation with the fewest free pairs gives its lowest one
        _, e = min((f, e) for e, f in enumerate(self.free) if f)
        return next(t for t in self.equations[e].support if self.val[t] is None)

    def _dfs(self, queue: list[int]) -> Iterator[tuple[int, ...]]:
        assigned, closed, ok = self._propagate(queue)
        try:
            if ok and None not in self.val:
                yield tuple(self.val)  # propagation has closed every equation
            elif ok:
                t = self._pick()
                for v in range(-self.bound if self.nonzero else 0, self.bound + 1):
                    queue = []
                    self._assign(t, v, queue)
                    yield from self._dfs(queue)
                    self._unassign(t)
        finally:
            for t in assigned:
                self._unassign(t)
            for e in closed:
                self.done[e] = False


def _solve_prefix(args) -> list[tuple[int, ...]]:
    spec, bound, prefix = args
    found = list(_Solver(spec, bound, prefix).solutions())
    return found + [tuple(-x for x in v) for v in found if any(v)]


def search(job: SearchJob) -> Iterator[ExchangeMatrix]:
    """All matrices with |b[i][j]| <= bound solving the period-2 equation.

    Results are yielded in lexicographic order of the flattened matrix; the
    order (and the result set) does not depend on the worker count.  The
    enumeration never reaches one assignment twice, and the parallel tasks
    split it by the value 0..bound of its first branching pair; the negations
    of their solutions give that pair -bound..-1.
    """
    spec, bound = job.spec, job.bound
    if job.jobs > 1:
        import multiprocessing as mp

        first = _Solver(spec, bound)._pick()
        tasks = [(spec, bound, {first: t}) for t in range(bound + 1)]
        with mp.Pool(job.jobs) as pool:
            found = [v for chunk in pool.imap_unordered(_solve_prefix, tasks) for v in chunk]
    else:
        found = _solve_prefix((spec, bound, None))
    n, pairs = spec.n, _pairs(spec.n)

    def matrix(v: tuple[int, ...]) -> ExchangeMatrix:  # ints within the bound: no check
        rows = [[0] * n for _ in range(n)]
        for (i, j), x in zip(pairs, v):
            rows[i - 1][j - 1], rows[j - 1][i - 1] = x, -x
        return ExchangeMatrix._unchecked(tuple(map(tuple, rows)))

    # value tuples sort as the flattened matrices do: the first entry where
    # two flattened matrices differ is always above the diagonal, since each
    # entry below it negates one above it that comes earlier
    results = map(matrix, sorted(found))
    if job.connected_only:
        results = filter(is_connected, results)
    if job.canonicalize:
        results = list(results)
        flats = {B.flatten() for B in results}

        def kept(B: ExchangeMatrix) -> bool:
            # of a solution and its mu_1-companion for the same spec, keep the lex-smaller
            partner, pspec = mu1_partner(B, spec)
            p = partner.flatten()
            return not (pspec == spec and p in flats and p < B.flatten())

        results = filter(kept, results)
    yield from results
