"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Each test prints a `[cN] PASS/FAIL` line (visible under -s or in captured
output) and enforces the pinned value and wall-clock budget for that check.
Budgets are generous for slow machines but still catch algorithmic
regressions by an order of magnitude.
"""

import contextlib
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from coalesce import (
    DidNotCoalesce,
    MapFunction,
    Partition,
    RngStream,
    StochasticMatrix,
    Support,
    birkhoff_decomposition,
    can_exclude_second_largest,
    cftp_sample,
    coalescence_number,
    coalescing_pairs,
    doeblin_coupling,
    equidistribution_report,
    expand_support,
    invariant_distribution,
    is_consistent,
    k_set_exact,
    limiting_partitions,
    parse_matrix,
    path_walk,
    permutation_coupling,
    sample_counts,
    single_pair_balance,
    to_explicit,
    total_variation,
    uniform_divisor_coupling,
)

EX10 = parse_matrix("1/2 1/2 0\n0 1/2 1/2\n1/2 0 1/2\n")
EX11 = parse_matrix("1/2 1/2 0 0\n0 1/2 1/2 0\n0 0 1/2 1/2\n1/2 0 0 1/2\n")

TV_TOLERANCE = Fraction(2, 100)
GAP_TOLERANCE = Fraction(2, 100)


@contextlib.contextmanager
def criterion(cid: str, desc: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{cid}] FAIL {desc} ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"[{cid}] PASS {desc} ({time.monotonic() - t0:.2f}s)")


@pytest.fixture(scope="module")
def enum_3state():
    t0 = time.monotonic()
    report = k_set_exact(EX10, prune=False, collect_feasible=True)
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def enum_4state():
    t0 = time.monotonic()
    report = k_set_exact(EX11, collect_feasible=True)
    return report, time.monotonic() - t0


def test_c01_three_state_enumeration(enum_3state):
    with criterion("c1", "3-state cycle walk: K = {1,3} over all 255 supports, < 1s"):
        report, elapsed = enum_3state
        assert report.exact
        assert sorted(report.values) == [1, 3]
        assert report.subsets_enumerated == 255
        assert elapsed < 1.0


def test_c02_four_state_enumeration(enum_4state):
    with criterion("c2", "4-state cycle walk: K = {1,2,4} over <= 65535 supports, < 60s"):
        report, elapsed = enum_4state
        assert report.exact
        assert sorted(report.values) == [1, 2, 4]
        assert report.subsets_enumerated <= 65535
        assert elapsed < 60.0


def test_c03_four_function_support():
    with criterion("c3", "4-function support: k = 2 with both alternating partitions, < 1s"):
        t0 = time.monotonic()
        sup = Support.of(
            MapFunction.from_notation(s) for s in ("3434", "4334", "3412", "3421")
        )
        assert coalescence_number(sup) == 2
        assert limiting_partitions(sup) == frozenset(
            {Partition.parse("1,3|2,4"), Partition.parse("1,4|2,3")}
        )
        assert time.monotonic() - t0 < 1.0


def test_c04_divisor_couplings():
    with criterion("c4", "uniform-matrix block couplings: consistent for n <= 12, k = l for n <= 6"):
        for n in range(2, 13):
            U = StochasticMatrix.uniform(n)
            for l in range(1, n + 1):
                if n % l:
                    continue
                mu = uniform_divisor_coupling(n, l)
                assert is_consistent(mu, U)
                if n <= 6:
                    assert coalescence_number(expand_support(mu)) == l


def test_c05_second_largest_excluded():
    with criterion("c5", "reflecting walks n in 3..8: every pair fails balance, n-1 excluded, < 1s"):
        t0 = time.monotonic()
        for n in range(3, 9):
            P = path_walk(n)
            for a, b in combinations(range(n), 2):
                assert not single_pair_balance(P, a, b)
            assert can_exclude_second_largest(P)
        assert time.monotonic() - t0 < 1.0


def test_c06_exact_sampler_distribution():
    with criterion("c6", "100000 exact samples on the 3-state walk: TV to uniform < 0.02, < 2min"):
        t0 = time.monotonic()
        mu = to_explicit(doeblin_coupling(EX10))
        counts, failures = sample_counts(mu, RngStream(20260818), 100_000)
        assert failures == 0
        assert sum(counts.values()) == 100_000
        tv = total_variation(counts, invariant_distribution(EX10))
        assert tv < TV_TOLERANCE
        assert time.monotonic() - t0 < 120.0


def test_c07_backward_forward_equidistribution():
    with criterion("c7", "50000 backward and forward runs on the 2-state walk: CDF gap < 0.02, < 1min"):
        t0 = time.monotonic()
        mu = to_explicit(doeblin_coupling(path_walk(2)))
        report = equidistribution_report(mu, RngStream(7), runs=50_000)
        assert report.backward_failures == 0
        assert report.forward_failures == 0
        assert report.max_cdf_gap < GAP_TOLERANCE
        assert report.passed(GAP_TOLERANCE)
        assert time.monotonic() - t0 < 60.0


def test_c08_birkhoff_roundtrips():
    with criterion("c8", "200 random doubly stochastic matrices n <= 8: exact resum, term bound, < 10s"):
        t0 = time.monotonic()
        rng = random.Random(20260818)
        for _ in range(200):
            n = rng.randint(2, 8)
            P = StochasticMatrix.from_rows(oracles.random_doubly_stochastic(rng, n))
            dec = birkhoff_decomposition(P)
            assert dec.resum().entries == P.entries
            assert len(dec.terms) <= (n - 1) ** 2 + 1
        assert time.monotonic() - t0 < 10.0


def test_c09_unique_limiting_partition(enum_3state):
    with criterion("c9", "every feasible support of the 3-state walk has exactly one limiting partition"):
        report, _ = enum_3state
        assert report.subsets_enumerated == 255
        assert len(report.feasible) == 45
        for sup, _k in report.feasible:
            assert len(limiting_partitions(sup)) == 1


def test_c10_pair_count_dichotomies(enum_3state, enum_4state):
    with criterion("c10", "over all collected feasible supports: |pairs| = 0 iff k = n, |pairs| = 1 iff k = n-1"):
        for report, n in ((enum_3state[0], 3), (enum_4state[0], 4)):
            assert report.feasible
            for sup, k in report.feasible:
                pairs = coalescing_pairs(sup)
                assert (len(pairs) == 0) == (k == n)
                assert (len(pairs) == 1) == (k == n - 1)


def test_c11_coupling_dichotomy_on_path_walk():
    with criterion("c11", "5-state walk: permutation coupling fails 100/100 at t_max 10^4, product coupling succeeds 100/100, < 10s"):
        t0 = time.monotonic()
        P5 = path_walk(5)
        perm = permutation_coupling(P5)
        iid = to_explicit(doeblin_coupling(P5))
        for i in range(100):
            out = cftp_sample(perm, RngStream(99).fork(i), t_max=10_000)
            assert isinstance(out, DidNotCoalesce)
            assert out.t_max == 10_000
        # spot-check that the structural short circuit matches a full walk
        for i in range(3):
            honest = cftp_sample(
                perm, RngStream(99).fork(i), t_max=10_000, short_circuit=False
            )
            assert isinstance(honest, DidNotCoalesce)
        for i in range(100):
            out = cftp_sample(iid, RngStream(98).fork(i), t_max=10_000)
            assert isinstance(out, int)
        assert time.monotonic() - t0 < 10.0


def test_c12_monotonicity_and_word_oracle():
    with criterion("c12", "1000 nested supports keep k antitone; word oracle agrees on 200 supports"):
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(2, 5)
            sub = {
                tuple(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            }
            extra = {
                tuple(rng.randrange(n) for _ in range(n))
                for _ in range(rng.randint(1, 2))
            }
            k_sub = coalescence_number(Support.of(MapFunction(t) for t in sub))
            k_super = coalescence_number(
                Support.of(MapFunction(t) for t in sub | extra)
            )
            assert k_super <= k_sub
        for _ in range(200):
            n = rng.randint(2, 4)
            images = list(
                {
                    tuple(rng.randrange(n) for _ in range(n))
                    for _ in range(rng.randint(1, 4))
                }
            )
            sup = Support.of(MapFunction(t) for t in images)
            assert coalescence_number(sup) == oracles.bounded_min_image(images, 2**n)
