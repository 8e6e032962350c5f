"""Exchange matrices, quiver mutation, permutation action and periodicity predicates.

Vertices are numbered 1..n everywhere in the public interface; b[i][j] > 0 means
b[i][j] arrows from i to j.  All values are immutable and all operations are pure.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

ONE_CYCLE = "1-cycle"
TWO_CYCLE = "2-cycle"


class QuiverError(ValueError):
    pass


class Period2Error(QuiverError):
    """A matrix that does not satisfy the period-2 equation it is used with."""


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the image tuple (image[i-1] = s(i))."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise QuiverError(f"not a bijection of 1..{self.n}: {self.image}")

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, im in enumerate(self.image, start=1):
            inv[im - 1] = i
        return Permutation(self.n, tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise QuiverError("degree mismatch")
        return Permutation(self.n, tuple(self(other(i)) for i in range(1, self.n + 1)))

    def __pow__(self, exp: int) -> "Permutation":
        """Each image walks its cycle exp steps (mod the cycle length): O(n) for any exp."""
        image = [0] * self.n
        for start in range(1, self.n + 1):
            if not image[start - 1]:
                cycle = [start]
                while (i := self(cycle[-1])) != start:
                    cycle.append(i)
                for pos, i in enumerate(cycle):
                    image[i - 1] = cycle[(pos + exp) % len(cycle)]
        return Permutation(self.n, tuple(image))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(n, tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        image = list(range(1, n + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                image[a - 1] = b
        return Permutation(n, tuple(image))

    @staticmethod
    def rotation(n: int) -> "Permutation":
        """The full cycle (1,2,...,n)."""
        return Permutation.from_cycles(n, [list(range(1, n + 1))])


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetric integer matrix of signed arrow counts."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise QuiverError("matrix is not square")
        for i in range(n):
            for j, x in enumerate(self.rows[i]):
                if type(x) is not int:
                    raise QuiverError(f"entry b[{i + 1}][{j + 1}] must be an integer")
            if self.rows[i][i] != 0:
                raise QuiverError(f"diagonal entry b[{i + 1}][{i + 1}] is nonzero")
            for j in range(i + 1, n):
                if self.rows[i][j] != -self.rows[j][i]:
                    raise QuiverError(
                        f"not skew-symmetric at ({i + 1},{j + 1}): "
                        f"{self.rows[i][j]} vs {self.rows[j][i]}"
                    )

    @staticmethod
    def _unchecked(rows: tuple[tuple[int, ...], ...]) -> "ExchangeMatrix":
        """No check: for integer rows skew-symmetric by construction."""
        B = object.__new__(ExchangeMatrix)
        object.__setattr__(B, "rows", rows)
        return B

    @property
    def n(self) -> int:
        return len(self.rows)

    def b(self, i: int, j: int) -> int:
        """Entry b[i][j], 1-based."""
        return self.rows[i - 1][j - 1]

    def first_row(self) -> tuple[int, ...]:
        """(b[1][2], ..., b[1][n])."""
        return self.rows[0][1:]

    def flatten(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "ExchangeMatrix":
        """The checked matrix of integer rows; numpy integers pass, while bools,
        floats and strings are refused."""
        return ExchangeMatrix(tuple(
            tuple(_integer(x, _ENTRY, i, j) for j, x in enumerate(row, 1))
            for i, row in enumerate(rows, 1)
        ))

    @staticmethod
    def zero(n: int) -> "ExchangeMatrix":
        return ExchangeMatrix(tuple((0,) * n for _ in range(n)))

    @staticmethod
    def from_entries(n: int, entries: dict[tuple[int, int], int]) -> "ExchangeMatrix":
        """Build from (i, j) -> b[i][j] for i < j; skew-symmetry fills the rest."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in entries.items():
            if not (1 <= i < j <= n):
                raise QuiverError(f"bad entry index ({i},{j})")
            rows[i - 1][j - 1] = v = _integer(v, _ENTRY, i, j)
            rows[j - 1][i - 1] = -v
        return ExchangeMatrix._unchecked(tuple(map(tuple, rows)))

    def __str__(self):
        width = max(len(str(x)) for row in self.rows for x in row)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.rows)


_ENTRY = "entry b[{}][{}]"


def _integer(x, what: str, *at, least: int | None = None) -> int:
    """x as an int: any integer type but bool, and at least `least` when that
    is given.  what.format(*at) names x."""
    try:
        if isinstance(x, bool):
            raise TypeError
        x = operator.index(x)
    except TypeError:
        raise QuiverError(f"{what.format(*at)} must be an integer") from None
    if least is not None and x < least:
        raise QuiverError(f"{what.format(*at)} must be >= {least}, got {x}")
    return x


@dataclass(frozen=True)
class Period2Spec:
    """One defining equation sigma mu_k mu_1 (Q) = Q.

    shape "1-cycle" takes sigma = (1,2,...,n); shape "2-cycle" takes
    sigma = (1,...,k-1)(k,...,n).  Any 2 <= k <= n is a valid equation; the
    canonical search range of the classification (k <= floor((n+1)/2), resp.
    floor((n+2)/2)) is exposed via in_canonical_range().
    """

    n: int
    shape: str
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", least=2))
        object.__setattr__(self, "k", _integer(self.k, "k"))
        if self.shape not in (ONE_CYCLE, TWO_CYCLE):
            raise QuiverError(f"unknown shape {self.shape!r}")
        if not 2 <= self.k <= self.n:
            raise QuiverError(f"k={self.k} out of range for n={self.n}")

    # a spec is immutable and hashable, so sigma and nu are built once per spec
    # value, and the tables below once per instance
    @functools.cache
    def sigma(self) -> Permutation:
        if self.shape == ONE_CYCLE:
            return Permutation.rotation(self.n)
        return Permutation.from_cycles(
            self.n, [list(range(1, self.k)), list(range(self.k, self.n + 1))]
        )

    @functools.cache
    def nu(self) -> Permutation:
        """The inverse of sigma; drives the mutation-point bookkeeping."""
        return self.sigma().inverse()

    @functools.cached_property
    def sigma_powers(self) -> tuple[tuple[int, ...], ...]:
        """The image tuples of sigma^0, sigma^1, ... up to the order of sigma."""
        s = self.sigma().image
        powers = [tuple(range(1, self.n + 1))]
        while (p := tuple(s[i - 1] for i in powers[-1])) != powers[0]:
            powers.append(p)
        return tuple(powers)

    @functools.cached_property
    def schedule(self) -> tuple[int, ...]:
        """The vertex mutated at each time u = 2r + l below twice the order L of
        sigma, nu^r(1) for l = 0 and nu^r(k) for l = 1; it repeats with period 2L."""
        ps = self.sigma_powers
        return tuple(ps[-r][i] for r in range(len(ps)) for i in (0, self.k - 1))

    def vertex_at(self, u: int) -> int:
        """The vertex mutated at time u: nu^r(1) for u = 2r, nu^r(k) for u = 2r+1."""
        return self.schedule[u % len(self.schedule)]

    def in_canonical_range(self) -> bool:
        if self.shape == ONE_CYCLE:
            return 2 <= self.k <= (self.n + 1) // 2
        return 2 <= self.k <= (self.n + 2) // 2

    def partner_k(self) -> int:
        """Second mutation vertex of the mu_1-companion equation."""
        return self.n - self.k + 1 if self.shape == ONE_CYCLE else self.n - self.k + 2


def epsilon(B: ExchangeMatrix, i: int, j: int, l: int) -> int:
    """(|b[i][j]| b[j][l] + b[i][j] |b[j][l]|) / 2, always an integer."""
    n = B.n
    for v in (i, j, l):
        if not 1 <= v <= n:
            raise QuiverError(f"vertex {v} out of range 1..{n}")
    a, c = B.b(i, j), B.b(j, l)
    return (abs(a) * c + a * abs(c)) // 2


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Quiver mutation at vertex k.

    b'[i][j] = -b[i][j] when i = k or j = k, otherwise
    b[i][j] + (|b[i][k]| b[k][j] + b[i][k] |b[k][j]|) / 2.
    """
    n = B.n
    if not 1 <= k <= n:
        raise QuiverError(f"vertex {k} out of range 1..{n}")
    k0 = k - 1
    pivot = B.rows[k0]
    return ExchangeMatrix._unchecked(tuple(
        tuple(-x for x in row) if i == k0 else _mutate_row(row, pivot, k0)
        for i, row in enumerate(B.rows)
    ))


def _mutate_row(row: tuple[int, ...], pivot: tuple[int, ...], k0: int) -> tuple[int, ...]:
    """A row i != k under mutation at k (0-based k0), pivot being row k: the
    mutate() rule, which also moves the rows of an extended matrix [B; C]."""
    bik = row[k0]
    if not bik:
        return row
    a = abs(bik)
    out = [b + (a * p + bik * abs(p)) // 2 for b, p in zip(row, pivot)]
    out[k0] = -bik
    return tuple(out)


def permute(B: ExchangeMatrix, s: Permutation) -> ExchangeMatrix:
    """Relabel vertices: the result C satisfies C[s(i)][s(j)] = B[i][j]."""
    if B.n != s.n:
        raise QuiverError(f"degree mismatch: matrix {B.n}, permutation {s.n}")
    # inv[a] = s^-1(a + 1) - 1, so C[a][b] = B[inv[a]][inv[b]]
    inv = sorted(range(B.n), key=s.image.__getitem__)
    rows = [B.rows[i] for i in inv]
    return ExchangeMatrix._unchecked(tuple([tuple([r[j] for j in inv]) for r in rows]))


def is_period1(B: ExchangeMatrix) -> bool:
    """Whether rho mu_1 (Q) = Q for rho = (1,2,...,n)."""
    return permute(mutate(B, 1), Permutation.rotation(B.n)) == B


def is_period2(B: ExchangeMatrix, spec: Period2Spec) -> bool:
    """Whether sigma mu_k mu_1 (Q) = Q for the given sigma-shape and k."""
    return _period2_mu1(B, spec) is not None


def _period2_mu1(B: ExchangeMatrix, spec: Period2Spec) -> ExchangeMatrix | None:
    """mu_1(B) if sigma mu_k mu_1 (B) = B, else None: row i of mu_k(mu_1(B))
    against (b[sigma(i)][sigma(j)])_j, up to the first row that differs (the
    last row follows from the others by skew-symmetry), building no matrix."""
    if B.n != spec.n:
        raise QuiverError(f"degree mismatch: matrix {B.n}, spec {spec.n}")
    B1 = mutate(B, 1)
    k0 = spec.k - 1
    pivot = B1.rows[k0]
    s = [t - 1 for t in spec.sigma().image]
    read = operator.itemgetter(*s)  # n >= 2, so it returns a tuple
    for i, row in enumerate(B1.rows[:-1]):
        mu = tuple(-x for x in row) if i == k0 else _mutate_row(row, pivot, k0)
        if mu != read(B.rows[s[i]]):
            return None
    return B1


def period1_from_row(row: Sequence[int]) -> ExchangeMatrix:
    """The unique mutation-periodic matrix with the given first row (b[1][2..n]).

    The row must be palindromic (row[j] = row[n+2-j] in b[1][j] indexing).
    rho mu_1 (B) = B reads b[i+1][j+1] = mu_1(B)[i][j], so row i+1 is row i of
    mu_1(B) (the negated first row for i = 1, the mutate() rule otherwise)
    shifted one place right behind its entry b[i+1][1] = -b[1][i+1].
    """
    row = tuple(_integer(x, _ENTRY, 1, j) for j, x in enumerate(row, 2))
    n = len(row) + 1
    for j in range(2, n + 1):
        # row index t holds b[1][t+1]
        if row[j - 2] != row[n - j]:
            raise QuiverError(
                f"first row is not palindromic: b[1][{j}]={row[j - 2]} "
                f"!= b[1][{n + 2 - j}]={row[n - j]}"
            )
    first = (0, *row)
    rows = [first]
    for i in range(1, n):
        mu = tuple(-x for x in first) if i == 1 else _mutate_row(rows[-1], first, 0)
        rows.append((-first[i], *mu[:-1]))
    return ExchangeMatrix._unchecked(tuple(rows))


def mu1_partner(
    B: ExchangeMatrix, spec: Period2Spec
) -> tuple[ExchangeMatrix, Period2Spec]:
    """Mutate at 1 and relabel so the companion solves its own period-2 equation,
    the one with k' = spec.partner_k().

    The relabeling is the inverse of i -> i+k-1 (mod n); for the two-cycle
    shape it is followed by the cycle (k',...,n), which moves the mutation
    vertex to k'.
    """
    if (B1 := _period2_mu1(B, spec)) is None:
        raise Period2Error("input does not satisfy its period-2 equation")
    n, kp = spec.n, spec.partner_k()
    s = Permutation.rotation(n) ** (1 - spec.k)
    if spec.shape == TWO_CYCLE:
        s = Permutation.from_cycles(n, [list(range(kp, n + 1))]).compose(s)
    return permute(B1, s), Period2Spec(n, spec.shape, kp)


def is_connected(B: ExchangeMatrix) -> bool:
    """Connectivity of the underlying undirected graph (edge iff b[i][j] != 0)."""
    n = B.n
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and B.rows[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def find_relabeling(A: ExchangeMatrix, B: ExchangeMatrix) -> Permutation | None:
    """A permutation s with permute(A, s) == B, or None.  Exhaustive over n!."""
    from itertools import permutations as iterperms

    if A.n != B.n:
        return None
    # permute(A, s) == B iff b[s(i)][s(j)] = a[i][j], with s(i) = image[i] + 1
    for image in iterperms(range(A.n)):
        if all(a == tuple([B.rows[s][t] for t in image]) for a, s in zip(A.rows, image)):
            return Permutation(A.n, tuple(i + 1 for i in image))
    return None
