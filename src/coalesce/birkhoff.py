"""Birkhoff-von Neumann decomposition of doubly stochastic matrices.

Greedy peeling: repeatedly pick the lexicographically least perfect matching
on the positive entries, subtract the smallest matched entry times that
permutation, and stop when the residual is zero.

Greedy peeling needs at most (n-1)^2 + 1 permutations, whatever matching it
picks at each step (Johnson, Dulmage & Mendelsohn 1960), the dimension bound
for the polytope of doubly stochastic matrices. Every residual has equal row
and column sums, so it has total support: its positive pattern splits into
strongly connected components. Let T = 1 + sum(p_i - 2 n_i + 1) over the
components of size n_i >= 2, where p_i counts the positive entries of
component i. A step that splits a component into m parts zeroes at least m
of its entries, since those parts were strongly connected; a component of
size 1 (whose term is 0) is zeroed only by the last step. So each step
before the last lowers T by at least one while T stays at least 1, and at
the start T <= 1 + sum (n_i - 1)^2 <= (n-1)^2 + 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDoublyStochastic
from .matrix import StochasticMatrix, is_doubly_stochastic
from .mapfun import MapFunction

_ZERO = Fraction(0)


@dataclass(frozen=True)
class BirkhoffDecomposition:
    """Permutations with positive rational weights that re-sum to the input."""

    n: int
    terms: tuple[tuple[MapFunction, Fraction], ...]

    def __post_init__(self):
        total = sum((w for _, w in self.terms), _ZERO)
        if total != 1:
            raise NotDoublyStochastic(f"weights sum to {total}, expected 1")
        for perm, w in self.terms:
            if w <= 0:
                raise NotDoublyStochastic("decomposition weights must be positive")
            if not perm.is_permutation() or perm.n != self.n:
                raise NotDoublyStochastic("decomposition terms must be permutations")

    def __len__(self) -> int:
        return len(self.terms)

    def resum(self) -> StochasticMatrix:
        n = self.n
        out = [[_ZERO] * n for _ in range(n)]
        for perm, w in self.terms:
            for i in range(n):
                out[i][perm(i)] += w
        return StochasticMatrix(tuple(tuple(r) for r in out))


def _max_matching(adj: list[list[int]], n: int, fixed: list[int]) -> bool:
    """Does a perfect matching exist that extends the given row->col fixing?

    fixed[i] is a column index or -1. Kuhn's augmenting path search on the
    remaining rows.
    """
    col_of_row = list(fixed)
    row_of_col = [-1] * n
    for i, c in enumerate(col_of_row):
        if c >= 0:
            if row_of_col[c] >= 0:
                return False
            row_of_col[c] = i
    used_cols = {c for c in col_of_row if c >= 0}

    def try_row(i: int, seen: list[bool]) -> bool:
        for c in adj[i]:
            if c in used_cols or seen[c]:
                continue
            seen[c] = True
            if row_of_col[c] < 0 or try_row(row_of_col[c], seen):
                row_of_col[c] = i
                col_of_row[i] = c
                return True
        return False

    for i in range(n):
        if col_of_row[i] >= 0:
            continue
        if not try_row(i, [False] * n):
            return False
    return True


def _lex_least_matching(positive: list[list[bool]]) -> list[int]:
    """The lexicographically least perfect matching on the positive pattern.

    Rows are decided in order; each row takes the smallest column for which a
    perfect matching on the remainder still exists.
    """
    n = len(positive)
    adj = [[j for j in range(n) if positive[i][j]] for i in range(n)]
    fixed = [-1] * n
    for i in range(n):
        taken = set(fixed[:i])
        chosen = -1
        for c in adj[i]:
            if c in taken:
                continue
            trial = list(fixed)
            trial[i] = c
            if _max_matching(adj, n, trial):
                chosen = c
                break
        if chosen < 0:
            raise NotDoublyStochastic("positive pattern admits no perfect matching")
        fixed[i] = chosen
    return fixed


def birkhoff_decomposition(P: StochasticMatrix) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into a convex permutation sum.

    Deterministic: the same matrix always yields the same terms, in peel
    order. Raises NotDoublyStochastic when some column does not sum to one.
    """
    if not is_doubly_stochastic(P):
        raise NotDoublyStochastic("birkhoff decomposition needs a doubly stochastic matrix")
    n = P.n
    residual = [list(row) for row in P.entries]
    terms: list[tuple[MapFunction, Fraction]] = []
    remaining = Fraction(1)
    while remaining > 0:
        pattern = [[residual[i][j] > 0 for j in range(n)] for i in range(n)]
        match = _lex_least_matching(pattern)
        theta = min(residual[i][match[i]] for i in range(n))
        perm = MapFunction(tuple(match))
        terms.append((perm, theta))
        for i in range(n):
            residual[i][match[i]] -= theta
        remaining -= theta
    assert len(terms) <= (n - 1) ** 2 + 1
    decomp = BirkhoffDecomposition(n, tuple(terms))
    assert decomp.resum().entries == P.entries
    return decomp
