import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from coalesce import matrix
from coalesce import (
    CoalesceError,
    EntryOutOfRange,
    MalformedRational,
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
    single_pair_balance,
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


def test_rejects_an_entry_that_is_neither_int_nor_fraction():
    # a float used to pass and then break the first exact reader
    with pytest.raises(MalformedRational, match=r"^row 2 entry 0\.25 is not an int or Fraction$"):
        StochasticMatrix(((H, H), (0.25, 0.75)))
    with pytest.raises(MalformedRational, match=r"^row 1 entry '1/2' is not an int or Fraction$"):
        StochasticMatrix((("1/2", "1/2"), (0, 1)))
    # from_rows still converts what Fraction accepts
    P = StochasticMatrix.from_rows(((0.5, 0.5), (0.25, 0.75)))
    assert P.entries == ((H, H), (Fraction(1, 4), Fraction(3, 4)))


_DENS = (1, 2, 3, 7, 9, 97)


def _broken_rows(rng: random.Random, rows):
    """rows with some of them broken, each its own way: ragged, a negative
    entry, an entry above 1 (sometimes offset by a negative one so the sum
    stays 1), or a wrong sum with every entry in range; some integral
    entries become ints. Returns the rows and the ways used."""
    out, ways = [], set()
    for row in rows:
        row = [int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in row]
        way = rng.choice(("valid", "valid", "valid", "ragged", "negative", "above", "sum"))
        j, k = rng.randrange(len(row)), rng.randrange(len(row))
        x = Fraction(rng.randint(1, 5), rng.choice(_DENS))
        if way == "ragged":
            if rng.random() < 0.5:
                del row[j]
            else:
                row.insert(j, rng.choice((0, x)))
        elif way == "negative":
            row[j] = -x
        elif way == "above":
            row[j] += 1
            if j != k and rng.random() < 0.5:
                row[k] -= 1
        elif way == "sum":
            row = [v * Fraction(rng.randint(1, 8), 9) for v in row]
        out.append(tuple(row))
        ways.add(way)
    return tuple(out), ways - {"valid"}


def test_validation_matches_the_fraction_rule():
    rng = random.Random(75)
    outcomes, mixed = Counter(), 0
    for trial in range(600):
        valid = oracles.random_stochastic_denominators(rng, rng.randint(1, 5), _DENS) if trial else ()
        rows, ways = _broken_rows(rng, valid)
        want = oracles.oracle_validation_error(rows)
        outcomes[want[0] if want else None] += 1
        mixed += len(ways) > 1
        if want is None:
            assert StochasticMatrix(rows).entries == rows
            continue
        with pytest.raises(CoalesceError) as info:
            StochasticMatrix(rows)
        assert (type(info.value).__name__, str(info.value)) == want
    assert min(outcomes.values()) >= 60, outcomes
    assert mixed >= 100


def test_exact_readers_match_fraction_sums():
    rng = random.Random(76)
    seen = Counter()
    for trial in range(240):
        n = rng.randint(1, 6)
        kind = trial % 3
        if kind == 0:
            rows = oracles.random_stochastic_denominators(rng, n, _DENS)
        elif kind == 1:
            rows = oracles.random_permutation_mixture(rng, n, _DENS)
        else:
            a, b, rows = oracles.random_balanced_pair(rng, max(n, 3), _DENS)
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
        P = StochasticMatrix(tuple(map(tuple, rows)))
        if kind == 2:
            assert single_pair_balance(P, a, b)
        assert P.row_supports == oracles.oracle_row_supports(rows)
        ds = is_doubly_stochastic(P)
        assert ds == oracles.oracle_doubly_stochastic(rows)
        seen[f"doubly stochastic {ds}"] += 1
        for a, b in combinations(range(P.n), 2):
            balanced = single_pair_balance(P, a, b)
            assert balanced == oracles.oracle_pair_balance(rows, a, b)
            seen[f"balanced {balanced}"] += 1
        if oracles.strongly_connected(rows):
            assert invariant_distribution(P) == tuple(oracles.oracle_invariant(rows))
            seen["invariant"] += 1
    assert min(seen.values()) >= 40, seen


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
