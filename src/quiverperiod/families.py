"""Generators for every classified period-2 family, plus the regression harness.

Each family is one displayed quiver of the n=3,4,5,6 classifications, keyed by
(theorem, index).  Builders return the exchange matrix read off the display;
instantiation asserts nothing by itself — verify_theorem() and the test suite
check is_period2 for every instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .quiver import (
    ONE_CYCLE,
    TWO_CYCLE,
    ExchangeMatrix,
    Period2Spec,
    QuiverError,
    find_relabeling,
    is_connected,
    is_period2,
    mutate,
    mu1_partner,
)
from .report import Report, Row

THEOREMS = ("N3", "N4", "N5_1cycle", "N5_other", "N6")


@dataclass(frozen=True)
class FamilyId:
    theorem: str
    index: int
    params: dict = field(default_factory=dict, hash=False)

    def __str__(self):
        ps = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.theorem}#{self.index}({ps})"


@dataclass(frozen=True)
class Family:
    key: str
    theorem: str
    index: int
    spec: Period2Spec
    param_names: tuple[str, ...]
    build: Callable[..., dict]
    # minimum admissible value per parameter (all display labels must be >= 0)
    param_min: dict = field(default_factory=dict, hash=False)

    def matrix(self, **params) -> ExchangeMatrix:
        missing = set(self.param_names) - set(params)
        extra = set(params) - set(self.param_names)
        if missing or extra:
            raise QuiverError(
                f"family {self.key} takes parameters {self.param_names}, got {sorted(params)}"
            )
        for name, value in params.items():
            lo = self.param_min.get(name, 0)
            if value < lo:
                raise QuiverError(f"family {self.key}: parameter {name}={value} < {lo}")
        return ExchangeMatrix.from_entries(self.spec.n, dict(self.build(**params)))


def _spec(n, shape, k):
    return Period2Spec(n, shape, k)


# Entries are given as {(i, j): b[i][j]} for i < j; positive means arrows i -> j.
_FAMILIES: list[Family] = [
    # --- 3 vertices, sigma = (1,2,3), k = 2 ---
    Family("n3-k2-1", "N3", 1, _spec(3, ONE_CYCLE, 2), ("n",),
           lambda n: {(1, 2): n, (1, 3): n, (2, 3): n}),
    Family("n3-k2-2", "N3", 2, _spec(3, ONE_CYCLE, 2), (),
           lambda: {(1, 2): 2, (1, 3): -2, (2, 3): 2}),
    # --- 4 vertices ---
    # sigma = (1,2,3,4), k = 2: arrows 2->1, 4->1, 3->2, 3->4, weight n
    Family("n4-k2-1", "N4", 1, _spec(4, ONE_CYCLE, 2), ("n",),
           lambda n: {(1, 2): -n, (1, 4): -n, (2, 3): -n, (3, 4): n}),
    # sigma = (1,2)(3,4), k = 3
    Family("n4-2c3-1", "N4", 2, _spec(4, TWO_CYCLE, 3), ("l", "m", "n"),
           lambda l, m, n: {(1, 2): -l, (1, 3): n, (1, 4): m,
                            (2, 3): -(m + n * l), (2, 4): n, (3, 4): -l}),
    Family("n4-2c3-2", "N4", 3, _spec(4, TWO_CYCLE, 3), ("l", "m", "n", "p"),
           lambda l, m, n, p: {(1, 2): l, (1, 3): n, (1, 4): m,
                               (2, 3): -m, (2, 4): n, (3, 4): p}),
    # sigma = (1)(2,3,4), k = 2
    Family("n4-2c2-1", "N4", 4, _spec(4, TWO_CYCLE, 2), ("m", "n"),
           lambda m, n: {(1, 2): n, (1, 3): n, (1, 4): -n,
                         (2, 3): m, (2, 4): n * n + m, (3, 4): -m}),
    Family("n4-2c2-2", "N4", 5, _spec(4, TWO_CYCLE, 2), ("m", "n"),
           lambda m, n: {(1, 2): n, (1, 3): n, (1, 4): -n * (m + 1),
                         (2, 3): -m, (2, 4): n * n * (m + 1) - m, (3, 4): m}),
    # --- 5 vertices, sigma = (1,2,3,4,5) ---
    # k = 2, six families
    Family("n5-k2-1", "N5_1cycle", 1, _spec(5, ONE_CYCLE, 2), (),
           lambda: {(1, 2): -2, (1, 3): 1, (1, 4): 1, (2, 3): -2,
                    (2, 4): -1, (2, 5): 1, (3, 5): -1}),
    Family("n5-k2-2", "N5_1cycle", 2, _spec(5, ONE_CYCLE, 2), ("l",),
           lambda l: {(1, 2): -1, (1, 3): l + 1, (1, 4): -1, (1, 5): l,
                      (2, 3): -1, (2, 4): -1, (2, 5): 1,
                      (3, 4): -l, (3, 5): 1, (4, 5): -(3 * l + 1)}),
    Family("n5-k2-3", "N5_1cycle", 3, _spec(5, ONE_CYCLE, 2), ("n",),
           lambda n: {(1, 2): -n, (1, 3): 1, (1, 4): -1, (2, 3): -n,
                      (2, 4): -1, (2, 5): 1, (3, 5): 1, (4, 5): -1}),
    Family("n5-k2-4", "N5_1cycle", 4, _spec(5, ONE_CYCLE, 2), ("m",),
           lambda m: {(1, 2): -m, (1, 5): -m, (2, 3): -m, (3, 4): m, (4, 5): m}),
    Family("n5-k2-5", "N5_1cycle", 5, _spec(5, ONE_CYCLE, 2), ("p",),
           lambda p: {(1, 2): -1, (1, 4): p, (1, 5): -1, (2, 3): -1,
                      (3, 4): 1, (3, 5): -p, (4, 5): p + 1}),
    Family("n5-k2-6", "N5_1cycle", 6, _spec(5, ONE_CYCLE, 2), ("m",),
           lambda m: {(1, 3): -m, (1, 4): m, (2, 4): m, (2, 5): -m,
                      (3, 5): -m, (4, 5): m * m}),
    # k = 3, eight families
    Family("n5-k3-1", "N5_1cycle", 7, _spec(5, ONE_CYCLE, 3), ("m", "n"),
           lambda m, n: {(1, 2): -m, (1, 3): -n, (1, 4): -n, (1, 5): -m,
                         (2, 3): m, (2, 4): -n, (2, 5): n,
                         (3, 4): -m, (3, 5): -n, (4, 5): m}),
    Family("n5-k3-2", "N5_1cycle", 8, _spec(5, ONE_CYCLE, 3), ("n",),
           lambda n: {(1, 2): -(n + 1), (1, 3): -n, (1, 4): 1, (1, 5): -1,
                      (2, 3): n + 1, (2, 4): -n, (2, 5): -1,
                      (3, 4): -(n + 1), (3, 5): 1, (4, 5): 1}),
    Family("n5-k3-3", "N5_1cycle", 9, _spec(5, ONE_CYCLE, 3), ("m", "n"),
           lambda m, n: {(1, 2): m, (1, 3): -n, (1, 4): -n, (1, 5): m,
                         (2, 3): m * (n - 1), (2, 4): -n, (2, 5): n * (m + 1),
                         (3, 4): m, (3, 5): -n * (m + 1), (4, 5): -m},
           param_min={"n": 1}),
    Family("n5-k3-4", "N5_1cycle", 10, _spec(5, ONE_CYCLE, 3), ("l", "n"),
           lambda l, n: {(1, 2): 1, (1, 3): -n, (1, 4): -l, (1, 5): 1,
                         (2, 3): n - 1, (2, 4): -n, (2, 5): l + n,
                         (3, 4): 1, (3, 5): -(l + n), (4, 5): -1},
           param_min={"n": 1}),
    Family("n5-k3-5", "N5_1cycle", 11, _spec(5, ONE_CYCLE, 3), ("m",),
           lambda m: {(1, 2): 1, (1, 3): -1, (1, 4): m - 1, (1, 5): m,
                      (2, 4): -1, (2, 5): 1, (3, 4): 1, (3, 5): -1,
                      (4, 5): -m},
           param_min={"m": 1}),
    Family("n5-k3-6", "N5_1cycle", 12, _spec(5, ONE_CYCLE, 3), ("n",),
           lambda n: {(1, 2): 1, (1, 3): -n, (1, 5): 1,
                      (2, 3): n - 1, (2, 4): -n, (2, 5): n,
                      (3, 4): 1, (3, 5): -n, (4, 5): -1},
           param_min={"n": 1}),
    Family("n5-k3-7", "N5_1cycle", 13, _spec(5, ONE_CYCLE, 3), ("m",),
           lambda m: {(1, 2): m, (1, 5): m, (2, 3): -m, (3, 4): m, (4, 5): -m}),
    Family("n5-k3-8", "N5_1cycle", 14, _spec(5, ONE_CYCLE, 3), ("l",),
           lambda l: {(1, 2): 1, (1, 4): -l, (1, 5): 1, (2, 3): -1,
                      (2, 5): l, (3, 4): 1, (3, 5): -l, (4, 5): -1}),
    # --- 5 vertices, other permutations ---
    # sigma = (1,2)(3,4,5), k = 3
    Family("n5-2c3-1", "N5_other", 1, _spec(5, TWO_CYCLE, 3), ("m", "n", "p"),
           lambda m, n, p: {(1, 2): m + 1, (1, 3): -n, (1, 4): -p, (1, 5): -(n + p),
                            (2, 3): n * (m + 1) + p, (2, 4): -n, (2, 5): p + n * m,
                            (3, 4): m, (3, 5): m, (4, 5): -m}),
    Family("n5-2c3-2", "N5_other", 2, _spec(5, TWO_CYCLE, 3), ("m", "n", "p"),
           lambda m, n, p: {(1, 2): 1, (1, 3): -n, (1, 4): -p, (1, 5): -(n + p),
                            (2, 3): n + p, (2, 4): -n, (2, 5): p,
                            (3, 4): -m, (3, 5): -m, (4, 5): m}),
    # sigma = (1)(2,3,4,5), k = 2
    Family("n5-2c2-1", "N5_other", 3, _spec(5, TWO_CYCLE, 2), ("m", "n"),
           lambda m, n: {(1, 2): n, (1, 3): n, (1, 4): -n, (1, 5): -n,
                         (2, 3): m, (2, 4): n * n - 2, (2, 5): n * n + m,
                         (3, 4): -m, (3, 5): 2, (4, 5): -(n * n + 3 * m)},
           param_min={"n": 2}),
    Family("n5-2c2-2", "N5_other", 4, _spec(5, TWO_CYCLE, 2), ("m",),
           lambda m: {(1, 2): 1, (1, 3): 1, (1, 4): -1, (1, 5): -1,
                      (2, 3): m, (2, 4): -1, (2, 5): m + 1,
                      (3, 4): -m, (3, 5): 2, (4, 5): -(3 * m + 1)}),
    Family("n5-2c2-3", "N5_other", 5, _spec(5, TWO_CYCLE, 2), ("m", "n"),
           lambda m, n: {(1, 2): n, (1, 3): n, (1, 4): -n * (m + 1), (1, 5): -n * (m + 1),
                         (2, 3): -m, (2, 4): (n * n - 2) * (m + 1),
                         (2, 5): n * n * (m + 1) - m,
                         (3, 4): m, (3, 5): 2 * (m + 1),
                         (4, 5): -(n * n * (m + 1) - m)},
           param_min={"n": 2}),
    Family("n5-2c2-4", "N5_other", 6, _spec(5, TWO_CYCLE, 2), ("m",),
           lambda m: {(1, 2): 1, (1, 3): 1, (1, 4): -(m + 1), (1, 5): -(m + 1),
                      (2, 3): -m, (2, 4): -(m + 1), (2, 5): 1,
                      (3, 4): m, (3, 5): 2 * (m + 1), (4, 5): -1}),
    # --- 6 vertices, sigma = (1,...,6), k = 5 ---
    Family("n6-k5-1", "N6", 1, _spec(6, ONE_CYCLE, 5), ("m",),
           lambda m: {(1, 3): 1, (1, 5): -1, (1, 6): m, (2, 6): -1, (4, 6): 1}),
    Family("n6-k5-2", "N6", 2, _spec(6, ONE_CYCLE, 5), ("n",),
           lambda n: {(1, 2): -(n - 1), (1, 3): 1, (1, 5): -n, (1, 6): 1,
                      (2, 3): n - 1, (2, 4): n - 1, (2, 6): -n,
                      (3, 4): 2 * (n - 1), (3, 5): n - 1,
                      (4, 5): n - 1, (4, 6): 1, (5, 6): -(n - 1)},
           param_min={"n": 1}),
    Family("n6-k5-3", "N6", 3, _spec(6, ONE_CYCLE, 5), ("m",),
           lambda m: {(1, 2): -m, (1, 6): -m, (2, 3): m,
                      (3, 4): m, (4, 5): m, (5, 6): -m}),
]

FAMILY_BY_KEY = {f.key: f for f in _FAMILIES}
FAMILY_BY_ID = {(f.theorem, f.index): f for f in _FAMILIES}


def families_of(theorem: str) -> list[Family]:
    if theorem not in THEOREMS:
        raise QuiverError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    return [f for f in _FAMILIES if f.theorem == theorem]


def _family(fid: FamilyId) -> Family:
    fam = FAMILY_BY_ID.get((fid.theorem, fid.index))
    if fam is None:
        raise QuiverError(f"no family {fid.theorem}#{fid.index}")
    return fam


def generate_family(fid: FamilyId) -> ExchangeMatrix:
    return _family(fid).matrix(**fid.params)


def family_spec(fid: FamilyId) -> Period2Spec:
    return _family(fid).spec


def iter_instances(
    fam: Family, max_param: int
) -> Iterator[tuple[FamilyId, ExchangeMatrix]]:
    """All instances with each parameter in [its minimum, max_param]."""
    from itertools import product

    ranges = []
    for name in fam.param_names:
        lo = fam.param_min.get(name, 0)
        if lo > max_param:
            return
        ranges.append(range(lo, max_param + 1))
    for combo in product(*ranges):
        params = dict(zip(fam.param_names, combo))
        yield FamilyId(fam.theorem, fam.index, params), fam.matrix(**params)


def negate(B: ExchangeMatrix) -> ExchangeMatrix:
    return ExchangeMatrix(tuple(tuple(-x for x in row) for row in B.rows))


def expected_search_set(
    theorem: str, spec: Period2Spec, bound: int, connected_only: bool = True
) -> set[ExchangeMatrix]:
    """Family instances for one defining equation, closed under arrow reversal.

    Reversing every arrow maps solutions to solutions (the mutation correction
    term is odd under B -> -B), and the displays list the representatives with
    nonnegative labels; the raw solution set is the closure.
    """
    out: set[ExchangeMatrix] = set()
    for fam in families_of(theorem):
        if fam.spec != spec:
            continue
        # a parameter reaching `bound` on any single edge is enough: every
        # family label is monotone in the parameters, so cap at bound.
        for _, B in iter_instances(fam, bound):
            if max(abs(x) for x in B.flatten()) > bound:
                continue
            if connected_only and not is_connected(B):
                continue
            out.add(B)
            out.add(negate(B))
    return out


# (quiver A, vertex-1 mutation) -> quiver B companions stated for the 5-vertex
# one-cycle classification, checked by exhaustive relabeling search.
_PAIRING_CLAIMS = [
    ("n5-k3-2", "n5-k3-5"),
    ("n5-k3-6", "n5-k3-8"),
]


def _check_pairing(src_key: str, dst_key: str, max_param: int) -> list[Row]:
    rows = []
    src = FAMILY_BY_KEY[src_key]
    dst = FAMILY_BY_KEY[dst_key]
    for fid, B in iter_instances(src, max_param):
        mutated = mutate(B, 1)
        found = None
        for dst_fid, target in iter_instances(dst, max_param + 2):
            if find_relabeling(mutated, target) is not None:
                found = dst_fid
                break
        rows.append(
            Row(
                f"mu_1({fid}) relabels to an instance of {dst_key}",
                found is not None,
                str(found) if found else "no relabeling found",
            )
        )
    return rows


def verify_theorem(
    theorem: str,
    max_param: int,
    search_bound: int | None = None,
    jobs: int = 1,
) -> Report:
    """Instantiate every family of one classification and re-check it.

    Every instance must satisfy its period-2 equation; with search_bound set,
    the bounded exhaustive search must return exactly the family instances
    (closed under arrow reversal, connected ones only).  Failures are reported,
    not raised.
    """
    from .search import SearchJob, search

    if max_param < 0:
        raise QuiverError(f"max_param must be >= 0, got {max_param}")
    report = Report(theorem)
    fams = families_of(theorem)
    for fam in fams:
        for fid, B in iter_instances(fam, max_param):
            try:
                ok = is_period2(B, fam.spec)
            except QuiverError as exc:
                report.add(f"{fid} satisfies its period-2 equation", False, str(exc))
                continue
            note = "" if is_connected(B) else "disconnected"
            report.add(f"{fid} satisfies its period-2 equation", ok, note)
            if ok:
                B2, spec2 = mu1_partner(B, fam.spec)
                report.add(
                    f"mu_1-companion of {fid} is period 2",
                    is_period2(B2, spec2),
                )
    if search_bound is not None:
        for spec in sorted({f.spec for f in fams}, key=lambda s: (s.n, s.shape, s.k)):
            expected = expected_search_set(theorem, spec, search_bound)
            got = set(search(SearchJob(spec, search_bound, connected_only=True, jobs=jobs)))
            ok = got == expected
            detail = f"{len(got)} found, {len(expected)} expected"
            if not ok:
                extra = len(got - expected)
                missing = len(expected - got)
                detail += f"; {extra} unexpected, {missing} missing"
            report.add(
                f"search n={spec.n} {spec.shape} k={spec.k} bound={search_bound} "
                "matches the classification",
                ok,
                detail,
            )
        if theorem == "N3":
            # the other 3-vertex equation admits only disconnected solutions
            other = Period2Spec(3, TWO_CYCLE, 2)
            got = set(search(SearchJob(other, search_bound, connected_only=True, jobs=jobs)))
            report.add(
                f"search n=3 {TWO_CYCLE} k=2 bound={search_bound} finds nothing connected",
                not got,
                f"{len(got)} found",
            )
    if theorem == "N5_1cycle":
        for src, dst in _PAIRING_CLAIMS:
            report.rows.extend(_check_pairing(src, dst, max_param))
    return report


def section_family(tag: str) -> tuple[Family, str]:
    """Map a dynamics-suite tag (s81..s86) to its family and parameter name."""
    table = {
        "s81": ("n4-k2-1", "n"),
        "s82": ("n5-k2-5", "p"),
        "s83": ("n5-k3-2", "n"),
        "s84": ("n5-k3-8", "l"),
        "s85": ("n6-k5-1", "m"),
        "s86": ("n6-k5-2", "n"),
    }
    if tag not in table:
        raise QuiverError(f"unknown section tag {tag!r}")
    key, pname = table[tag]
    return FAMILY_BY_KEY[key], pname


def regression_instances(max_param: int = 2) -> list[tuple[FamilyId, Period2Spec, ExchangeMatrix]]:
    """Every family instance with parameters up to max_param (the shipped set)."""
    out = []
    for fam in _FAMILIES:
        for fid, B in iter_instances(fam, max_param):
            out.append((fid, fam.spec, B))
    return out
