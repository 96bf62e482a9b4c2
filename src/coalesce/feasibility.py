"""Exact feasibility of coupling supports, by rational linear programming.

Given a transition matrix P and a finite set S of candidate functions, ask:
is there a grand coupling of P whose support is exactly S? Writing w_f for
the weight on f, the constraints are

    sum over f in S with f(i) = j of w_f  =  P[i][j]   for every cell (i, j),
    w_f > 0 for every f in S.

The open positivity condition is settled by linear programming: maximize
each coordinate w_f over the closed polytope (w_f >= 0). If every maximum
is positive, the average of the maximizing points is a strictly positive
solution; if some maximum is zero, no solution can use that function.

The K(P) loop asks a narrower question: is S the support of a vertex of
the polytope of weightings of all the allowed functions? That holds iff the columns of S are independent and the
unique solution of the augmented system [A_S | b] is strictly positive, so
one elimination decides it, with no simplex.

Everything is exact. The right-hand side is P's positive cells as read
from StochasticMatrix.scaled, over one common denominator, so the system is
integral. The elimination and the simplex, a dense two-phase tableau with
Bland's rule, share the one fraction-free (Bareiss) pivot of
matrix.row_reduce over Python integers: neither needs a tolerance, and
Fractions are built only for the weights the simplex reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coupling import ExplicitCoupling, is_consistent
from .errors import DimensionMismatch
from .mapfun import MapFunction, Support
from .matrix import StochasticMatrix, _pivot, row_reduce

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasibilityWitness:
    """Strictly positive weights on a support, resumming to the matrix."""

    matrix: StochasticMatrix
    weights: tuple[tuple[MapFunction, Fraction], ...]

    def __post_init__(self):
        if any(w <= 0 for _, w in self.weights):
            raise ValueError("witness weights must be strictly positive")
        if not is_consistent(self.as_coupling(), self.matrix):
            raise ValueError("witness weights do not resum to the matrix")

    def __bool__(self) -> bool:
        return True

    def as_coupling(self) -> ExplicitCoupling:
        return ExplicitCoupling.from_pairs(self.weights)


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
    """Fraction-free two-phase simplex with Bland's rule.

    Solves the integer system A x = b, x >= 0 (b >= 0 is the true right-hand
    side times scale) once (phase 1), then answers repeated
    maximize-one-coordinate queries warm-starting from the last basis.

    The tableau, cost row included, is kept as integers M over one common
    denominator d = |det B| of the current basis, so the true tableau is
    M / d, and pivots with _pivot.
    """

    def __init__(self, columns: list[list[int]], b: list[int], scale: int):
        m = len(b)
        nv = len(columns)
        self.m, self.nv, self.scale = m, nv, scale
        # rows: nv real columns, m artificials, then the rhs; row m is the cost row
        self.M = [
            [col[r] for col in columns] + [int(r == k) for k in range(m)] + [b[r]]
            for r in range(m)
        ]
        self.M.append([0] * (nv + m + 1))
        self.d = 1
        self.basis = [nv + r for r in range(m)]
        self.feasible = self._phase1()

    def _pivot(self, r: int, e: int):
        # only a phase-1 expel pivot can be negative
        self.d = _pivot(self.M, r, e, self.d)
        self.basis[r] = e

    def _solve(self, cost: list[int], allowed) -> int:
        """Minimize cost . x over the current system; Bland anticycling.
        Returns the optimum times d * scale."""
        M, m, d = self.M, self.m, self.d
        z = [-c * d for c in cost] + [0] * (len(M[0]) - len(cost))
        for r in range(m):
            cb = cost[self.basis[r]] if self.basis[r] < len(cost) else 0
            if cb:
                z = [x + cb * y for x, y in zip(z, M[r])]
        M[m] = z
        while True:
            z = M[m]
            e = next((j for j in allowed if z[j] > 0), -1)
            if e < 0:
                return z[-1]
            # min ratio M[r][-1] / M[r][e] over M[r][e] > 0, by cross-multiplication
            r_best, num, den = -1, 0, 1
            for r in range(m):
                a = M[r][e]
                if a > 0:
                    lhs, rhs = M[r][-1] * den, num * a
                    if r_best < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[r] < self.basis[r_best]
                    ):
                        r_best, num, den = r, M[r][-1], a
            if r_best < 0:
                raise ArithmeticError("unbounded coordinate in a bounded polytope")
            self._pivot(r_best, e)

    def _phase1(self) -> bool:
        nv, m = self.nv, self.m
        if self._solve([0] * nv + [1] * m, range(nv + m)) != 0:
            return False
        # expel artificials still basic at level zero, dropping dead rows
        for r in range(m):
            if self.basis[r] >= nv:
                e = next((j for j in range(nv) if self.M[r][j] != 0), None)
                if e is not None:
                    self._pivot(r, e)
        return True

    def maximize_coord(self, j: int) -> tuple[Fraction, list[Fraction]]:
        """Max value of x_j over the feasible region, with an attaining point."""
        cost = [0] * self.nv
        cost[j] = -1
        z = self._solve(cost, range(self.nv))
        den = self.d * self.scale
        x = [_ZERO] * self.nv
        for r, bj in enumerate(self.basis):
            if bj < self.nv:
                x[bj] = Fraction(self.M[r][-1], den)
        return Fraction(-z, den), x


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
        self.cells = [(i, j) for i, cols in enumerate(P.row_supports) for j in cols]
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
            [mask >> pos & 1 for mask in self.masks] for pos in range(len(self.cells))
        ]
        # b: P's positive cells over one denominator, so the system is integral
        self._scale, scaled = P.scaled
        b = [scaled[i][j] for i, j in self.cells]
        keep = _independent_rows(rows, b)
        self._rows = [rows[r] for r in keep]
        self._columns = [
            [row[c] for row in self._rows] for c in range(len(self.functions))
        ]
        self._b = [b[r] for r in keep]
        # rank of the marginal system: no vertex of its polytope has more
        # positive coordinates
        self.rank = len(self._b)

    def cover_mask(self, idxs) -> int:
        mask = 0
        for c in idxs:
            mask |= self.masks[c]
        return mask

    def _simplex(self, idxs) -> _Simplex:
        return _Simplex([self._columns[c] for c in idxs], self._b, self._scale)

    def decide(self, idxs) -> bool:
        """True iff {functions[c] for c in idxs} is the support of a vertex
        of the coupling polytope {w >= 0 : A w = b}.

        That is, the columns of A_S are independent and the unique solution
        of A_S w = b is strictly positive, which one elimination of
        [A_S | b] decides. An uncovered positive cell needs no check of its
        own: its row reads 0 = b > 0, so the system is inconsistent. Whether
        some coupling has exactly this support, vertex or not, is witness's
        question.
        """
        idxs = list(idxs)
        M = [[row[c] for c in idxs] + [v] for row, v in zip(self._rows, self._b)]
        _, pivots = row_reduce(M, len(idxs))
        if len(pivots) < len(idxs):
            return False
        # the solution is M[r][-1] / d on each pivot row r; every other row
        # reads 0 = M[r][-1] / d, consistent only when it is 0
        solution = {r: M[r][-1] for _, r in pivots}
        consistent = not any(M[r][-1] for r in range(len(M)) if r not in solution)
        return consistent and all(v > 0 for v in solution.values())

    def witness(self, idxs) -> FeasibilityWitness | Infeasible:
        """Strictly positive weights, or the reason none exist.

        When feasible, the returned weights are the plain average of the
        coordinate-maximizing vertices, one per support function, taken in
        function order. That makes the output deterministic.
        """
        idxs = list(idxs)
        missing = self.cover_mask(idxs) ^ self.full_mask
        if missing:
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


def _independent_rows(rows: list[list[int]], b: list[int]) -> list[int]:
    """Indices of the augmented rows [A | b] that are independent of the
    rows before them: the pivot columns of the transpose."""
    transpose = [list(col) for col in (*zip(*rows), b)]
    return [c for c, _ in row_reduce(transpose, len(rows))[1]]


def _split_unsupported(P: StochasticMatrix, support: Support):
    if support.n != P.n:
        raise DimensionMismatch(f"support on n={support.n}, matrix on n={P.n}")
    good, bad = [], []
    for f in support.sorted_functions():
        hit = next((i for i in range(P.n) if P.entries[i][f(i)] == 0), None)
        (bad if hit is not None else good).append((f, hit))
    return good, bad


def feasible_weights(P: StochasticMatrix, support: Support) -> FeasibilityWitness | Infeasible:
    """Weights making the support exactly achievable, or the obstruction.

    The result is truthy exactly when the support is feasible, so
    bool(feasible_weights(P, S)) is the yes/no question.
    """
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


def is_weakly_feasible(P: StochasticMatrix, support: Support) -> bool:
    """Can the matrix be written with weights carried inside the set at all?

    Zero weights are allowed here, so this asks whether some subset of the
    given functions is an exactly-feasible support. Unlike the exact
    question, this notion is monotone: enlarging a set never breaks weak
    feasibility, hence a weakly infeasible set has only weakly infeasible
    subsets.
    """
    good, _ = _split_unsupported(P, support)
    if not good:
        return False
    tester = SupportTester(P, Support.of(f for f, _ in good))
    return tester._simplex(range(len(tester.functions))).feasible
