import random
from fractions import Fraction

import pytest

import oracles
from coalesce import matrix
from coalesce import (
    EntryOutOfRange,
    MapFunction,
    NonSquare,
    NotIrreducible,
    RowSumNotOne,
    StochasticMatrix,
    invariant_distribution,
    is_doubly_stochastic,
    is_irreducible,
    parse_matrix,
    period,
    relabel,
)

H = Fraction(1, 2)


def test_parse_basic(ex10):
    assert ex10.n == 3
    assert ex10.entry(0, 1) == H
    assert ex10.entry(1, 0) == 0
    assert ex10.row(2) == (H, Fraction(0), H)


def test_parse_comments_and_blanks():
    P = parse_matrix("# cyclic walk\n\n0 1\n1 0  # back\n")
    assert P.entries == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))


def test_parse_rejects_non_square():
    with pytest.raises(NonSquare):
        parse_matrix("1/2 1/2\n1\n")
    with pytest.raises(NonSquare):
        parse_matrix("")


def test_parse_rejects_bad_row_sum():
    with pytest.raises(RowSumNotOne):
        parse_matrix("1/2 1/3\n0 1\n")


def test_parse_rejects_negative():
    with pytest.raises(EntryOutOfRange):
        parse_matrix("3/2 -1/2\n0 1\n")


def test_to_text_roundtrip(ex11):
    assert parse_matrix(ex11.to_text()).entries == ex11.entries


def test_constructors():
    assert StochasticMatrix.identity(3).entry(2, 2) == 1
    U = StochasticMatrix.uniform(4)
    assert all(v == Fraction(1, 4) for row in U.entries for v in row)


def test_row_supports(ex10):
    assert ex10.row_supports == ((0, 1), (1, 2), (0, 2))


def test_scaled_is_the_least_common_denominator():
    P = StochasticMatrix.from_rows([["1/2", "1/2", 0], ["1/3", "1/6", "1/2"], [0, 0, 1]])
    assert P.scaled == (6, ((3, 3, 0), (2, 1, 3), (0, 0, 6)))
    assert StochasticMatrix.identity(3).scaled == (1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_irreducible(ex10, ex11):
    assert is_irreducible(ex10)
    assert is_irreducible(ex11)
    assert not is_irreducible(parse_matrix("1 0\n1/2 1/2\n"))


def test_period():
    assert period(parse_matrix("0 1\n1 0\n")) == 2
    assert period(parse_matrix("0 1 0\n0 0 1\n1 0 0\n")) == 3
    with pytest.raises(NotIrreducible):
        period(parse_matrix("1 0\n1/2 1/2\n"))


def test_period_aperiodic(ex10, ex11):
    assert period(ex10) == 1
    assert period(ex11) == 1


def test_invariant_two_state():
    P = parse_matrix("0 1\n1/2 1/2\n")
    assert invariant_distribution(P) == (Fraction(1, 3), Fraction(2, 3))


def test_invariant_doubly_stochastic_is_uniform(ex10, ex11):
    assert invariant_distribution(ex10) == (Fraction(1, 3),) * 3
    assert invariant_distribution(ex11) == (Fraction(1, 4),) * 4


def test_invariant_is_stationary_random():
    rng = random.Random(71)
    # the first matrix mixes the coprime denominators 7, 9 and 97
    coprime = [
        [Fraction(2, 7), Fraction(5, 7), 0],
        [0, Fraction(5, 9), Fraction(4, 9)],
        [Fraction(1, 97), 0, Fraction(96, 97)],
    ]
    for rows in [coprime] + [oracles.random_stochastic(rng, rng.randint(2, 5)) for _ in range(25)]:
        n = len(rows)
        P = StochasticMatrix.from_rows(rows)
        pi = invariant_distribution(P)
        assert sum(pi) == 1
        assert all(v > 0 for v in pi)
        for j in range(n):
            assert sum(pi[i] * rows[i][j] for i in range(n)) == pi[j]


def test_row_reduce_matches_fraction_reduction(monkeypatch):
    # integer entries of both signs, so that negative pivots flip signs,
    # and a later column sometimes a multiple of an earlier one, so that
    # dependent columns are skipped before independent ones
    flips = []
    pivot = matrix._pivot

    def traced(M, r, e, d):
        flips.append(M[r][e] < 0)
        return pivot(M, r, e, d)

    monkeypatch.setattr(matrix, "_pivot", traced)
    rng = random.Random(74)
    tally = {"full rank": 0, "rank-deficient": 0, "skipped": 0}
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        M = [[rng.randint(-4, 4) for _ in range(ncols + 1)] for _ in range(nrows)]
        if ncols > 1 and rng.random() < 0.5:
            a, b = sorted(rng.sample(range(ncols), 2))
            k = rng.randint(-2, 2)
            for row in M:
                row[b] = k * row[a]
        want, want_pivots = oracles.reduce_exact(M, ncols)
        d, pivots = matrix.row_reduce(M, ncols)
        assert pivots == want_pivots
        assert d > 0 and all(type(v) is int for row in M for v in row)
        assert [[Fraction(v, d) for v in row] for row in M] == want
        tally["full rank" if len(pivots) == min(nrows, ncols) else "rank-deficient"] += 1
        # a dependent column with a pivot column after it
        tally["skipped"] += pivots[-1][0] >= len(pivots) if pivots else 0
    assert tally == {"full rank": 51, "rank-deficient": 9, "skipped": 7}
    assert flips.count(True) == 76


def test_doubly_stochastic(ex10, ex11):
    assert is_doubly_stochastic(ex10)
    assert is_doubly_stochastic(ex11)
    assert not is_doubly_stochastic(parse_matrix("0 1\n1/2 1/2\n"))


def test_relabel_conjugates(ex10):
    sigma = MapFunction.from_notation("231")
    Q = relabel(ex10, sigma)
    for i in range(3):
        for j in range(3):
            assert Q.entry(sigma(i), sigma(j)) == ex10.entry(i, j)


def test_relabel_equivariance_random():
    rng = random.Random(72)
    for _ in range(15):
        n = rng.randint(2, 5)
        P = StochasticMatrix.from_rows(oracles.random_stochastic(rng, n))
        sigma = MapFunction(oracles.random_permutation_image(rng, n))
        Q = relabel(P, sigma)
        assert period(Q) == period(P)
        pi = invariant_distribution(P)
        rho = invariant_distribution(Q)
        assert all(rho[sigma(i)] == pi[i] for i in range(n))


def test_relabel_rejects_non_permutation(ex10):
    from coalesce import NotationError

    with pytest.raises(NotationError):
        relabel(ex10, MapFunction.from_notation("131"))
