"""Birkhoff-von Neumann decomposition of doubly stochastic matrices.

Greedy peeling: find a perfect matching on the positive entries of the
residual, subtract the smallest matched entry times that permutation, and
stop when the residual is zero. The residual is held in integers over the
lcm of P's denominators; each weight becomes a Fraction as its term is
emitted. Each peel runs one matching: every row takes its least free column,
then Kuhn's augmenting paths (Kuhn 1955) place the rows left over, searching
columns in increasing order. Nothing else enters, so the same matrix always
yields the same terms in the same order.

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


def _matching(adj: list[list[int]]) -> list[int]:
    """A perfect matching on a positive pattern: the column of each row.

    adj[i] lists row i's positive columns in increasing order. A residual
    has equal positive line sums, so it has a perfect matching and a row
    that no augmenting path places is a fault.
    """
    n = len(adj)
    col_of_row = [-1] * n
    row_of_col = [-1] * n
    for i, cols in enumerate(adj):
        for c in cols:
            if row_of_col[c] < 0:
                row_of_col[c], col_of_row[i] = i, c
                break

    def augment(i: int, seen: list[bool]) -> bool:
        for c in adj[i]:
            if seen[c]:
                continue
            seen[c] = True
            if row_of_col[c] < 0 or augment(row_of_col[c], seen):
                row_of_col[c], col_of_row[i] = i, c
                return True
        return False

    for i in range(n):
        placed = col_of_row[i] >= 0 or augment(i, [False] * n)
        assert placed, "residual pattern admits no perfect matching"
    return col_of_row


def birkhoff_decomposition(P: StochasticMatrix) -> BirkhoffDecomposition:
    """Decompose a doubly stochastic matrix into a convex permutation sum.

    Deterministic: the same matrix always yields the same terms, in peel
    order. Raises NotDoublyStochastic when some column does not sum to one.
    """
    if not is_doubly_stochastic(P):
        raise NotDoublyStochastic("birkhoff decomposition needs a doubly stochastic matrix")
    n = P.n
    den, scaled = P.scaled  # P = residual / den
    residual = [list(row) for row in scaled]
    terms: list[tuple[MapFunction, Fraction]] = []
    remaining = den
    while remaining:
        match = _matching([[j for j, a in enumerate(row) if a] for row in residual])
        theta = min(residual[i][match[i]] for i in range(n))
        terms.append((MapFunction(tuple(match)), Fraction(theta, den)))
        for i in range(n):
            residual[i][match[i]] -= theta
        remaining -= theta
    assert len(terms) <= (n - 1) ** 2 + 1
    decomp = BirkhoffDecomposition(n, tuple(terms))
    assert decomp.resum().entries == P.entries
    return decomp
