"""Exact feasibility of coupling supports, by rational linear programming.

Given a transition matrix P and a finite set S of candidate functions, ask:
is there a grand coupling of P whose support is exactly S? Writing w_f for
the weight on f, the constraints are

    sum over f in S with f(i) = j of w_f  =  P[i][j]   for every cell (i, j),
    w_f > 0 for every f in S.

The open positivity condition is settled exactly: maximize each coordinate
w_f over the closed polytope (w_f >= 0). If every maximum is positive, the
average of the maximizing points is a strictly positive solution; if some
maximum is zero, no solution can use that function.

Everything here runs over Fractions. The simplex is a dense two-phase
tableau with Bland's rule, so it terminates without any tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coupling import ExplicitCoupling
from .errors import DimensionMismatch
from .mapfun import MapFunction, Support
from .matrix import StochasticMatrix, pivot_step, row_reduce

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityWitness:
    """Strictly positive weights on a support, resumming to the matrix."""

    matrix: StochasticMatrix
    weights: tuple[tuple[MapFunction, Fraction], ...]

    def __post_init__(self):
        if any(w <= 0 for _, w in self.weights):
            raise ValueError("witness weights must be strictly positive")
        if self.as_coupling().induced.entries != self.matrix.entries:
            raise ValueError("witness weights do not resum to the matrix")

    def __bool__(self) -> bool:
        return True

    def as_coupling(self) -> ExplicitCoupling:
        return ExplicitCoupling.from_pairs(self.weights)

    def support(self) -> Support:
        return Support.of(f for f, _ in self.weights)


@dataclass(frozen=True)
class Infeasible:
    """Why no coupling has exactly the requested support.

    reason is one of:
      'unsupported-function'  some f maps a state onto a zero cell of P
      'uncovered-cell'        a positive cell of P is hit by no f in S
      'no-solution'           the equality system itself has no solution
      'zero-forced'           solvable, but some w_f is zero in every solution
    """

    reason: str
    detail: str

    def __bool__(self) -> bool:
        return False


class _Simplex:
    """Dense exact two-phase simplex with Bland's rule.

    Solves the system A x = b, x >= 0 once (phase 1), then answers repeated
    maximize-one-coordinate queries warm-starting from the last basis.
    """

    def __init__(self, columns: list[list[Fraction]], b: list[Fraction]):
        m = len(b)
        nv = len(columns)
        self.m, self.nv = m, nv
        # tableau rows: nv real columns, m artificials, then the rhs
        self.T = []
        for r in range(m):
            sign = -1 if b[r] < 0 else 1
            row = [sign * columns[j][r] for j in range(nv)]
            row += [_ONE if r == k else _ZERO for k in range(m)]
            row.append(sign * b[r])
            self.T.append(row)
        self.basis = [nv + r for r in range(m)]
        self.feasible = self._phase1()

    def _pivot(self, r: int, e: int):
        pivot_step(self.T, r, e)
        self.basis[r] = e

    def _solve(self, cost: list[Fraction], allowed: list[int]) -> Fraction:
        """Minimize cost . x over the current system; Bland anticycling."""
        T = self.T
        m = self.m
        width = len(T[0])
        z = [-c for c in cost] + [_ZERO] * (width - len(cost))
        for r in range(m):
            cb = cost[self.basis[r]] if self.basis[r] < len(cost) else _ZERO
            if cb != 0:
                z = [x + cb * y for x, y in zip(z, T[r])]
        while True:
            e = -1
            for j in allowed:
                if z[j] > 0:
                    e = j
                    break
            if e < 0:
                return z[-1]
            r_best, ratio = -1, None
            for r in range(m):
                if T[r][e] > 0:
                    cand = T[r][-1] / T[r][e]
                    if ratio is None or cand < ratio or (
                        cand == ratio and self.basis[r] < self.basis[r_best]
                    ):
                        r_best, ratio = r, cand
            if r_best < 0:
                raise ArithmeticError("unbounded coordinate in a bounded polytope")
            coef = z[e]
            self._pivot(r_best, e)
            z = [x - coef * y for x, y in zip(z, self.T[r_best])]

    def _phase1(self) -> bool:
        nv, m = self.nv, self.m
        cost = [_ZERO] * nv + [_ONE] * m
        val = self._solve(cost, list(range(nv + m)))
        if val != 0:
            return False
        # expel artificials still basic at level zero, dropping dead rows
        for r in range(m):
            if self.basis[r] >= nv:
                e = next((j for j in range(nv) if self.T[r][j] != 0), None)
                if e is not None:
                    self._pivot(r, e)
        return True

    def maximize_coord(self, j: int) -> tuple[Fraction, list[Fraction]]:
        """Max value of x_j over the feasible region, with an attaining point."""
        cost = [_ZERO] * self.nv
        cost[j] = -_ONE
        val = -self._solve(cost, list(range(self.nv)))
        x = [_ZERO] * self.nv
        for r, bj in enumerate(self.basis):
            if bj < self.nv:
                x[bj] = self.T[r][-1]
        return val, x


class SupportTester:
    """Repeated exact-support queries against one matrix and allowed set.

    The equality system over the full allowed set is row-reduced once; the
    surviving independent rows are valid for every subset, because a row
    dependency in the augmented system restricts to every column subset.
    """

    def __init__(self, P: StochasticMatrix, allowed: Support):
        if allowed.n != P.n:
            raise DimensionMismatch(f"support on n={allowed.n}, matrix on n={P.n}")
        self.P = P
        self.functions = allowed.sorted_functions()
        n = P.n
        self.cells = [
            (i, j) for i in range(n) for j in range(n) if P.entries[i][j] > 0
        ]
        cell_index = {c: pos for pos, c in enumerate(self.cells)}
        self.masks = []
        for f in self.functions:
            mask = 0
            for i in range(n):
                pos = cell_index.get((i, f(i)))
                if pos is None:
                    raise ValueError(
                        f"{f.to_notation()} hits a zero cell; filter the support first"
                    )
                mask |= 1 << pos
            self.masks.append(mask)
        self.full_mask = (1 << len(self.cells)) - 1
        rows = [
            [(_ONE if mask >> pos & 1 else _ZERO) for mask in self.masks]
            for pos in range(len(self.cells))
        ]
        b = [P.entries[i][j] for i, j in self.cells]
        self._row_idx = _independent_rows(rows, b)
        self._columns = [
            [rows[r][c] for r in self._row_idx] for c in range(len(self.functions))
        ]
        self._b = [b[r] for r in self._row_idx]

    def cover_mask(self, idxs) -> int:
        mask = 0
        for c in idxs:
            mask |= self.masks[c]
        return mask

    def covers(self, idxs) -> bool:
        return self.cover_mask(idxs) == self.full_mask

    def _simplex(self, idxs) -> _Simplex:
        return _Simplex([self._columns[c] for c in idxs], self._b)

    def decide(self, idxs) -> bool:
        """True iff some coupling of P has support exactly {functions[c] for c in idxs}.

        Coordinates already strictly positive in a previously found optimum
        are skipped, which usually collapses the solve count well below the
        support size.
        """
        idxs = list(idxs)
        if not self.covers(idxs):
            return False
        sx = self._simplex(idxs)
        if not sx.feasible:
            return False
        pending = set(range(len(idxs)))
        while pending:
            j = min(pending)
            val, x = sx.maximize_coord(j)
            if val == 0:
                return False
            pending -= {c for c in pending if x[c] > 0}
        return True

    def witness(self, idxs) -> FeasibilityWitness | Infeasible:
        """Strictly positive weights, or the reason none exist.

        When feasible, the returned weights are the plain average of the
        coordinate-maximizing vertices, one per support function, taken in
        function order. That makes the output deterministic.
        """
        idxs = list(idxs)
        if not self.covers(idxs):
            missing = self.cover_mask(idxs) ^ self.full_mask
            pos = (missing & -missing).bit_length() - 1
            i, j = self.cells[pos]
            return Infeasible(
                "uncovered-cell",
                f"no support function sends state {i + 1} to state {j + 1} "
                f"(cell has probability {self.P.entries[i][j]})",
            )
        sx = self._simplex(idxs)
        if not sx.feasible:
            return Infeasible("no-solution", "the marginal equations have no solution")
        k = len(idxs)
        acc = [_ZERO] * k
        for j in range(k):
            val, x = sx.maximize_coord(j)
            if val == 0:
                f = self.functions[idxs[j]]
                return Infeasible(
                    "zero-forced",
                    f"every solution puts zero weight on {f.to_notation()}",
                )
            for c in range(k):
                acc[c] += x[c]
        weights = tuple(
            (self.functions[idxs[c]], acc[c] / k) for c in range(k)
        )
        return FeasibilityWitness(self.P, weights)


def _independent_rows(rows: list[list[Fraction]], b: list[Fraction]) -> list[int]:
    """Indices of the augmented rows [A | b] that are independent of the
    rows before them: the pivot columns of the transpose."""
    transpose = [list(col) for col in zip(*rows)] + [list(b)]
    return row_reduce(transpose, len(rows))


def _split_unsupported(P: StochasticMatrix, support: Support):
    good, bad = [], []
    for f in support.sorted_functions():
        hit = next((i for i in range(P.n) if P.entries[i][f(i)] == 0), None)
        (bad if hit is not None else good).append((f, hit))
    return good, bad


def necessary_support_filter(P: StochasticMatrix, support: Support) -> Support:
    """Drop functions that hit a zero cell of P; no coupling can use them."""
    if support.n != P.n:
        raise DimensionMismatch(f"support on n={support.n}, matrix on n={P.n}")
    good, _ = _split_unsupported(P, support)
    if not good:
        raise ValueError("no function in the support is compatible with the matrix")
    return Support.of(f for f, _ in good)


def feasible_weights(P: StochasticMatrix, support: Support) -> FeasibilityWitness | Infeasible:
    """Weights making the support exactly achievable, or the obstruction."""
    if support.n != P.n:
        raise DimensionMismatch(f"support on n={support.n}, matrix on n={P.n}")
    good, bad = _split_unsupported(P, support)
    if bad:
        f, i = bad[0]
        return Infeasible(
            "unsupported-function",
            f"{f.to_notation()} sends state {i + 1} to state {f(i) + 1}, "
            "a zero entry of the matrix",
        )
    tester = SupportTester(P, support)
    return tester.witness(range(len(tester.functions)))


def is_feasible_support(P: StochasticMatrix, support: Support) -> bool:
    """Decision form of feasible_weights, with early exits."""
    if support.n != P.n:
        raise DimensionMismatch(f"support on n={support.n}, matrix on n={P.n}")
    good, bad = _split_unsupported(P, support)
    if bad:
        return False
    tester = SupportTester(P, support)
    return tester.decide(range(len(tester.functions)))


def is_weakly_feasible(P: StochasticMatrix, support: Support) -> bool:
    """Can the matrix be written with weights carried inside the set at all?

    Zero weights are allowed here, so this asks whether some subset of the
    given functions is an exactly-feasible support. Unlike the exact
    question, this notion is monotone: enlarging a set never breaks weak
    feasibility, hence a weakly infeasible set has only weakly infeasible
    subsets.
    """
    if support.n != P.n:
        raise DimensionMismatch(f"support on n={support.n}, matrix on n={P.n}")
    good, _ = _split_unsupported(P, support)
    if not good:
        return False
    tester = SupportTester(P, Support.of(f for f, _ in good))
    idxs = list(range(len(tester.functions)))
    if not tester.covers(idxs):
        return False
    return tester._simplex(idxs).feasible
