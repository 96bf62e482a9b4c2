import random
from fractions import Fraction

import pytest

import oracles
from coalesce import birkhoff
from coalesce import (
    MapFunction,
    NotDoublyStochastic,
    StochasticMatrix,
    birkhoff_decomposition,
    parse_matrix,
)
from coalesce.birkhoff import _matching


def test_cycle_walk_two_terms(ex10):
    dec = birkhoff_decomposition(ex10)
    assert sorted((f.to_notation(), w) for f, w in dec.terms) == [
        ("123", Fraction(1, 2)),
        ("231", Fraction(1, 2)),
    ]
    assert dec.resum().entries == ex10.entries


def test_permutation_matrix_single_term():
    P = parse_matrix("0 1 0\n0 0 1\n1 0 0\n")
    dec = birkhoff_decomposition(P)
    assert len(dec.terms) == 1
    assert dec.terms[0][0].to_notation() == "231"
    assert dec.terms[0][1] == 1


def test_rejects_non_doubly_stochastic():
    with pytest.raises(NotDoublyStochastic):
        birkhoff_decomposition(parse_matrix("1 0\n1/2 1/2\n"))


def test_random_roundtrips_and_term_bound():
    rng = random.Random(80)
    for _ in range(40):
        n = rng.randint(2, 6)
        P = StochasticMatrix.from_rows(oracles.random_doubly_stochastic(rng, n))
        dec = birkhoff_decomposition(P)
        assert dec.resum().entries == P.entries
        assert len(dec.terms) <= (n - 1) ** 2 + 1
        assert all(f.is_permutation() for f, _ in dec.terms)
        assert len({f for f, _ in dec.terms}) == len(dec.terms)
        assert birkhoff_decomposition(P).terms == dec.terms
        assert all(w > 0 for _, w in dec.terms)
        assert sum(w for _, w in dec.terms) == 1


def test_stranded_row_is_placed_by_an_augmenting_path():
    # least free columns give rows 1-3 columns 1-3 and leave row 4 with none;
    # the augmenting path moves row 2 to column 4
    P = parse_matrix("1 0 0 0\n0 1/2 0 1/2\n0 0 1/2 1/2\n0 1/2 1/2 0\n")
    dec = birkhoff_decomposition(P)
    assert [(f.to_notation(), w) for f, w in dec.terms] == [
        ("1432", Fraction(1, 2)),
        ("1243", Fraction(1, 2)),
    ]


def test_pattern_without_perfect_matching_is_a_fault():
    # every residual has one, so this is a fault of the program (exit 4),
    # not bad input
    with pytest.raises(AssertionError, match="no perfect matching"):
        _matching([[0], [0]])


def test_resum_check_catches_a_corrupted_term(monkeypatch):
    # swap two images of the first emitted permutation: still a permutation
    # with the same weight, so only the resum against P can notice
    built = []

    def corrupting(image):
        if not built:
            image = (image[1], image[0]) + image[2:]
        built.append(image)
        return MapFunction(image)

    P = StochasticMatrix.uniform(3)
    assert len(birkhoff_decomposition(P)) == 3
    monkeypatch.setattr(birkhoff, "MapFunction", corrupting)
    with pytest.raises(AssertionError, match="do not resum to P"):
        birkhoff_decomposition(P)
    assert len(built) == 3


def test_uniform_matrix(ex11):
    U = StochasticMatrix.uniform(4)
    dec = birkhoff_decomposition(U)
    assert dec.resum().entries == U.entries
    assert len(dec.terms) <= 10
    dec11 = birkhoff_decomposition(ex11)
    assert dec11.resum().entries == ex11.entries


def test_integer_peeling_matches_fraction_peeling():
    # the package peels integers over the lcm of P's denominators; the
    # oracle peels Fractions with the same matching rule, so every term and
    # its place in peel order must agree
    rng = random.Random(2029)
    for _ in range(180):
        rows = oracles.random_permutation_mixture(rng, rng.randint(1, 8), (1, 2, 3, 7, 9, 97))
        dec = birkhoff_decomposition(StochasticMatrix.from_rows(rows))
        assert [(f.image, w) for f, w in dec.terms] == oracles.oracle_peeling(rows, _matching)
