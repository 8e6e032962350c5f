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
its support is assigned and solves for entries that occur linearly, which keeps
the 6-vertex bound-2 job (5^15 raw candidates) tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .quiver import ExchangeMatrix, Period2Spec, QuiverError, is_connected, mu1_partner

Pair = tuple[int, int]


@dataclass(frozen=True)
class SearchJob:
    spec: Period2Spec
    bound: int
    connected_only: bool = False
    canonicalize: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.bound < 1:
            raise QuiverError("bound must be >= 1")


def _norm(i: int, j: int) -> Pair:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class _Equation:
    """One residual equation, in a form evaluable from a pair -> value map."""

    pair: Pair
    case: int
    # b-references: (pair, sign) meaning sign * value(pair)
    lhs_b: tuple[Pair, int]
    rhs_b: tuple[Pair, int]
    lhs_sign: int  # -1 in case 1 (the LHS is -b[i][j]) else +1
    rhs_sign: int  # -1 in case 2 else +1
    lhs_eps: tuple[tuple[Pair, int], tuple[Pair, int]] | None  # eps(i,1,j)
    rhs_eps: tuple[tuple[Pair, int], tuple[Pair, int]] | None  # eps(si,sk,sj)
    support: frozenset[Pair] = field(hash=False, default=frozenset())
    linear: frozenset[Pair] = field(hash=False, default=frozenset())


def _bref(i: int, j: int) -> tuple[Pair, int] | None:
    if i == j:
        return None
    return (_norm(i, j), 1 if i < j else -1)


def _equations(spec: Period2Spec) -> list[_Equation]:
    n, k = spec.n, spec.k
    sigma = spec.sigma()
    eqs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            si, sj, sk = sigma(i), sigma(j), sigma(k)
            has1 = 1 in (i, j)
            hask = k in (i, j)
            if has1 and not hask:
                case = 1
            elif hask and not has1:
                case = 2
            else:
                case = 3
            lhs_eps = rhs_eps = None
            if case in (2, 3):
                a = _bref(i, 1)
                c = _bref(1, j)
                if a is not None and c is not None:
                    lhs_eps = (a, c)
            if case in (1, 3):
                a = _bref(si, sk)
                c = _bref(sk, sj)
                if a is not None and c is not None:
                    rhs_eps = (a, c)
            lhs_b = _bref(i, j)
            rhs_b = _bref(si, sj)
            support = {lhs_b[0], rhs_b[0]}
            eps_pairs = set()
            for eps in (lhs_eps, rhs_eps):
                if eps is not None:
                    eps_pairs.update(p for p, _ in eps)
            support |= eps_pairs
            linear = {lhs_b[0], rhs_b[0]} - eps_pairs
            eqs.append(
                _Equation(
                    pair=(i, j),
                    case=case,
                    lhs_b=lhs_b,
                    rhs_b=rhs_b,
                    lhs_sign=-1 if case == 1 else 1,
                    rhs_sign=-1 if case == 2 else 1,
                    lhs_eps=lhs_eps,
                    rhs_eps=rhs_eps,
                    support=frozenset(support),
                    linear=frozenset(linear),
                )
            )
    return eqs


def _eval_eq(eq: _Equation, val: dict[Pair, int]) -> int:
    """Residual value LHS - RHS; all support pairs must be assigned."""

    def b(ref):
        pair, sign = ref
        return sign * val[pair]

    def eps(refs):
        if refs is None:
            return 0
        a = b(refs[0])
        c = b(refs[1])
        return (abs(a) * c + a * abs(c)) // 2

    lhs = eq.lhs_sign * b(eq.lhs_b) + eps(eq.lhs_eps)
    rhs = eq.rhs_sign * b(eq.rhs_b) + eps(eq.rhs_eps)
    return lhs - rhs


def residual(B: ExchangeMatrix, spec: Period2Spec) -> list[int]:
    """LHS - RHS of the defining equation for each pair {i,j}, i<j, in order."""
    if B.n != spec.n:
        raise QuiverError(f"degree mismatch: matrix {B.n}, spec {spec.n}")
    val = {
        (i, j): B.b(i, j) for i in range(1, B.n + 1) for j in range(i + 1, B.n + 1)
    }
    return [_eval_eq(eq, val) for eq in _equations(spec)]


def residual_report(
    B: ExchangeMatrix, spec: Period2Spec
) -> list[tuple[Pair, int, int]]:
    """(pair, case label, residual value) per equation, same order as residual()."""
    val = {
        (i, j): B.b(i, j) for i in range(1, B.n + 1) for j in range(i + 1, B.n + 1)
    }
    return [(eq.pair, eq.case, _eval_eq(eq, val)) for eq in _equations(spec)]


class _Solver:
    def __init__(self, spec: Period2Spec, bound: int):
        self.spec = spec
        self.bound = bound
        self.pairs = [
            (i, j)
            for i in range(1, spec.n + 1)
            for j in range(i + 1, spec.n + 1)
        ]
        self.equations = _equations(spec)
        self.eqs_of_pair: dict[Pair, list[_Equation]] = {p: [] for p in self.pairs}
        for eq in self.equations:
            for p in eq.support:
                self.eqs_of_pair[p].append(eq)

    def solutions(self, prefix: dict[Pair, int] | None = None) -> Iterator[dict[Pair, int]]:
        val: dict[Pair, int] = dict(prefix or {})
        if any(abs(v) > self.bound for v in val.values()):
            return
        done: set[_Equation] = set()
        yield from self._dfs(val, done)

    def _propagate(self, val, done) -> tuple[list[Pair], list[_Equation], bool]:
        """Assign forced values; returns (new pairs, newly done eqs, consistent)."""
        new_pairs: list[Pair] = []
        new_done: list[_Equation] = []
        progress = True
        while progress:
            progress = False
            for eq in self.equations:
                if eq in done:
                    continue
                unassigned = [p for p in eq.support if p not in val]
                if not unassigned:
                    if _eval_eq(eq, val) != 0:
                        return new_pairs, new_done, False
                    done.add(eq)
                    new_done.append(eq)
                    progress = True
                elif len(unassigned) == 1 and unassigned[0] in eq.linear:
                    p = unassigned[0]
                    # the equation is affine in a linear-position pair
                    val[p] = 0
                    f0 = _eval_eq(eq, val)
                    val[p] = 1
                    slope = _eval_eq(eq, val) - f0
                    del val[p]
                    if slope == 0:
                        if f0 != 0:
                            return new_pairs, new_done, False
                        done.add(eq)
                        new_done.append(eq)
                        progress = True
                        continue
                    if f0 % slope != 0:
                        return new_pairs, new_done, False
                    t = -f0 // slope
                    if abs(t) > self.bound:
                        return new_pairs, new_done, False
                    val[p] = t
                    new_pairs.append(p)
                    done.add(eq)
                    new_done.append(eq)
                    progress = True
        return new_pairs, new_done, True

    def _pick(self, val) -> Pair:
        # only called with a pair unassigned, and every pair is in the
        # support of its own equation, so some equation has a candidate
        best = None
        best_count = None
        for eq in self.equations:
            unassigned = [p for p in eq.support if p not in val]
            if not unassigned:
                continue
            if best_count is None or len(unassigned) < best_count:
                best_count = len(unassigned)
                best = min(unassigned)
        return best

    def _dfs(self, val, done) -> Iterator[dict[Pair, int]]:
        new_pairs, new_done, ok = self._propagate(val, done)
        try:
            if ok:
                if len(val) == len(self.pairs):
                    if all(eq in done or _eval_eq(eq, val) == 0 for eq in self.equations):
                        yield dict(val)
                else:
                    p = self._pick(val)
                    for t in range(-self.bound, self.bound + 1):
                        val[p] = t
                        yield from self._dfs(val, done)
                    del val[p]
        finally:
            for p in new_pairs:
                del val[p]
            for eq in new_done:
                done.discard(eq)


def _matrix_of(spec: Period2Spec, val: dict[Pair, int]) -> ExchangeMatrix:
    return ExchangeMatrix.from_entries(spec.n, val)


def _solve_prefix(args) -> list[tuple[int, ...]]:
    spec, bound, prefix = args
    solver = _Solver(spec, bound)
    return [_matrix_of(spec, v).flatten() for v in solver.solutions(prefix)]


def search(job: SearchJob) -> Iterator[ExchangeMatrix]:
    """All matrices with |b[i][j]| <= bound solving the period-2 equation.

    Results are yielded in lexicographic order of the flattened matrix; the
    order (and the result set) does not depend on the worker count.
    """
    spec, bound = job.spec, job.bound
    solver = _Solver(spec, bound)
    flats: set[tuple[int, ...]] = set()
    if job.jobs > 1:
        import multiprocessing as mp

        first = solver._pick({})
        tasks = [
            (spec, bound, {first: t}) for t in range(-bound, bound + 1)
        ]
        with mp.Pool(job.jobs) as pool:
            for chunk in pool.imap_unordered(_solve_prefix, tasks):
                flats.update(chunk)
    else:
        for v in solver.solutions():
            flats.add(_matrix_of(spec, v).flatten())
    n = spec.n
    results = []
    for flat in sorted(flats):
        B = ExchangeMatrix.from_rows(
            [flat[i * n : (i + 1) * n] for i in range(n)]
        )
        if job.connected_only and not is_connected(B):
            continue
        results.append(B)
    if job.canonicalize:
        kept = []
        result_set = {B.flatten() for B in results}
        for B in results:
            partner, pspec = mu1_partner(B, spec)
            if (
                pspec == spec
                and partner.flatten() in result_set
                and partner.flatten() < B.flatten()
            ):
                continue
            kept.append(B)
        results = kept
    yield from results
