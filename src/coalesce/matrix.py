"""Exact stochastic matrices over the rationals.

The matrix file format is plain UTF-8 text: one row per line, entries are
integers or "p/q" rationals separated by whitespace, '#' starts a comment,
blank lines are skipped. Rows must sum exactly to one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    EntryOutOfRange,
    NonSquare,
    NotationError,
    NotIrreducible,
    RowSumNotOne,
)
from .mapfun import MapFunction
from .rational import format_rational, parse_rational

_ZERO = Fraction(0)


@dataclass(frozen=True)
class StochasticMatrix:
    """An n-by-n row-stochastic matrix with Fraction entries, immutable."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0:
            raise NonSquare("empty matrix")
        for idx, row in enumerate(self.entries):
            if len(row) != n:
                raise NonSquare(f"row {idx + 1} has {len(row)} entries, expected {n}")
            for v in row:
                if v < 0 or v > 1:
                    raise EntryOutOfRange(f"entry {v} outside [0, 1]")
            total = sum(row, _ZERO)
            if total != 1:
                raise RowSumNotOne(idx + 1, total)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "StochasticMatrix":
        ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(ent)

    @classmethod
    def identity(cls, n: int) -> "StochasticMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def uniform(cls, n: int) -> "StochasticMatrix":
        w = Fraction(1, n)
        return cls.from_rows([[w] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    @cached_property
    def row_supports(self) -> tuple[tuple[int, ...], ...]:
        """For each row, the columns carrying positive probability."""
        return tuple(
            tuple(j for j, v in enumerate(row) if v > 0) for row in self.entries
        )

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): the entries as integers over the lcm of their
        denominators, so that entry (i, j) is rows[i][j] / den."""
        den = lcm(*(v.denominator for row in self.entries for v in row))
        return den, tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in self.entries)

    def to_text(self) -> str:
        lines = []
        for row in self.entries:
            lines.append(" ".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> StochasticMatrix:
    """Parse the whitespace/'#'-comment matrix format described above."""
    rows: list[list[Fraction]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_rational(tok) for tok in line.split()])
    if not rows:
        raise NonSquare("no rows found")
    return StochasticMatrix(tuple(tuple(r) for r in rows))


def _reachable(adj: Sequence[Sequence[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_irreducible(P: StochasticMatrix) -> bool:
    """True when the directed graph of positive entries is strongly connected."""
    n = P.n
    fwd = P.row_supports
    back: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in fwd[i]:
            back[j].append(i)
    return len(_reachable(fwd, 0)) == n and len(_reachable(back, 0)) == n


def period(P: StochasticMatrix) -> int:
    """The gcd of cycle lengths through state 0; requires irreducibility."""
    if not is_irreducible(P):
        raise NotIrreducible("period is defined here for irreducible matrices")
    n = P.n
    level = [-1] * n
    level[0] = 0
    queue = [0]
    g = 0
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v in P.row_supports[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    g = gcd(g, level[u] + 1 - level[v])
        queue = nxt
    return abs(g) if g else 1


def is_doubly_stochastic(P: StochasticMatrix) -> bool:
    n = P.n
    for j in range(n):
        if sum(P.entries[i][j] for i in range(n)) != 1:
            return False
    return True


def invariant_distribution(P: StochasticMatrix) -> tuple[Fraction, ...]:
    """The unique pi with pi P = pi and sum(pi) = 1, solved exactly.

    Raises NotIrreducible when the chain is not irreducible, since uniqueness
    is only guaranteed there.
    """
    if not is_irreducible(P):
        raise NotIrreducible("invariant distribution requires irreducibility")
    n = P.n
    scale = lcm(*(v.denominator for row in P.entries for v in row))
    # Augmented rows of scale * (P^T - I) x = 0 plus the normalisation row
    # sum(x) = 1, all integral.
    rows = [
        [int(scale * (P.entries[i][j] - (i == j))) for i in range(n)] + [0]
        for j in range(n)
    ]
    rows.append([1] * (n + 1))
    d, pivots = row_reduce(rows, n)
    # an irreducible chain has exactly one invariant law, so rank n
    assert len(pivots) == n, "irreducible chain with a singular invariant system"
    return tuple(Fraction(rows[r][n], d) for _, r in pivots)


def _pivot(M: list[list[int]], r: int, e: int, d: int) -> int:
    """One fraction-free (Bareiss) Gauss-Jordan pivot on p = M[r][e], in place.

    M holds integer rows over the common denominator d > 0. Every other
    row becomes (p * M[i] - M[i][e] * M[r]) / d, a division that is always
    exact. A negative p has its sign flipped into every row, so that the
    returned new denominator |p| stays positive and a pivoted column reads
    |p| in its pivot row and 0 elsewhere.
    """
    top = M[r]
    s = -1 if top[e] < 0 else 1
    q = s * top[e]
    for i, row in enumerate(M):
        f = s * row[e]
        if i == r:
            if s < 0:
                M[i] = [-x for x in row]
        elif f:
            M[i] = [(q * x - f * y) // d for x, y in zip(row, top)]
        elif q != d:
            M[i] = [q * x // d for x in row]
    return q


def row_reduce(M: list[list[int]], ncols: int) -> tuple[int, list[tuple[int, int]]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    pivoting on the first ncols columns only; rows are not reordered.

    Returns (d, pivots): the final denominator d > 0, so that M / d is the
    reduced form, and the (column, row) of each pivot in column order. Each
    column pivots on the first row not yet pivoted with a nonzero entry in
    it; a column with none is dependent on the columns before it and is
    skipped.
    """
    d, pivots, free = 1, [], list(range(len(M)))
    for c in range(ncols):
        r = next((r for r in free if M[r][c]), None)
        if r is None:
            continue
        d = _pivot(M, r, c, d)
        free.remove(r)
        pivots.append((c, r))
    return d, pivots


def relabel(P: StochasticMatrix, sigma: MapFunction) -> StochasticMatrix:
    """Conjugate by a permutation: entry (sigma(i), sigma(j)) = p_{i,j}."""
    if sigma.n != P.n:
        raise DimensionMismatch(f"permutation on n={sigma.n}, matrix on n={P.n}")
    if not sigma.is_permutation():
        raise NotationError("relabel requires a permutation")
    n = P.n
    out = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma(i)][sigma(j)] = P.entries[i][j]
    return StochasticMatrix(tuple(tuple(r) for r in out))
