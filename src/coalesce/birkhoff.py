"""Birkhoff-von Neumann decomposition of doubly stochastic matrices.

Greedy peeling: repeatedly pick the lexicographically least perfect matching
on the positive entries, subtract the smallest matched entry times that
permutation, and stop when the residual is zero. A Caratheodory reduction
pass then guarantees at most (n-1)^2 + 1 terms, the dimension bound for the
polytope of doubly stochastic matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotDoublyStochastic
from .matrix import StochasticMatrix, is_doubly_stochastic, row_reduce
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
    terms = _caratheodory_reduce(terms, n)
    decomp = BirkhoffDecomposition(n, tuple(terms))
    assert decomp.resum().entries == P.entries
    return decomp


def _caratheodory_reduce(
    terms: list[tuple[MapFunction, Fraction]], n: int
) -> list[tuple[MapFunction, Fraction]]:
    """Shrink a decomposition to at most (n-1)^2 + 1 terms.

    While too many terms remain, the permutation matrices are affinely
    dependent, so a rational null direction can shift weight until one term
    vanishes without changing the weighted sum.
    """
    bound = (n - 1) ** 2 + 1
    while len(terms) > bound:
        gamma = _affine_dependency([p for p, _ in terms], n)
        # Move along -gamma until the first weight with positive gamma hits 0.
        t = min(w / g for (_, w), g in zip(terms, gamma) if g > 0)
        new_terms = []
        for (p, w), g in zip(terms, gamma):
            nw = w - t * g
            if nw > 0:
                new_terms.append((p, nw))
        terms = new_terms
    return terms


def _affine_dependency(perms: list[MapFunction], n: int) -> list[Fraction]:
    """A nonzero gamma with sum(gamma) = 0 and sum(gamma_i M_i) = 0."""
    m = len(perms)
    # Columns are the vectorised permutation matrices with a trailing 1.
    rows = n * n + 1
    A = [[_ZERO] * m for _ in range(rows)]
    for c, p in enumerate(perms):
        for i in range(n):
            A[i * n + p(i)][c] = Fraction(1)
        A[n * n][c] = Fraction(1)
    # Row-reduce and read a kernel vector off the first free column.
    pivots = row_reduce(A, m)
    free = next(c for c in range(m) if c not in pivots)
    gamma = [_ZERO] * m
    gamma[free] = Fraction(1)
    for r, c in enumerate(pivots):
        gamma[c] = -A[r][free]
    if any(g > 0 for g in gamma):
        return gamma
    return [-g for g in gamma]
