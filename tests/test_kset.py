import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from coalesce import blocks, feasibility, kset
from coalesce import (
    BudgetExceeded,
    Partition,
    StochasticMatrix,
    allowed_functions,
    can_exclude_second_largest,
    coalescence_number,
    construct_block_measure,
    expand_support,
    feasible_weights,
    is_block_measure,
    is_consistent,
    k_set_certificates,
    k_set_exact,
    k_set_report,
    parse_matrix,
    single_pair_balance,
)
from coalesce.reference import CERTGAP_MATRIX, path_walk


@pytest.fixture(scope="module")
def ex11_report():
    ex11 = parse_matrix(
        "1/2 1/2 0 0\n0 1/2 1/2 0\n0 0 1/2 1/2\n1/2 0 0 1/2\n"
    )
    return ex11, k_set_exact(ex11, collect_feasible=True)


def test_cycle_walk_achievable_set(ex10):
    # the single-pair criterion rules out 2, so the loop stops once 1 and 3
    # have witnesses
    report = k_set_report(ex10)
    assert sorted(report.values) == [1, 3]
    assert report.exact
    assert report.subsets_enumerated == 20
    assert [(e.k, e.reason) for e in report.exclusions] == [(2, "single-pair-criterion")]
    for m in report.members:
        assert is_consistent(m.coupling, ex10)
        assert coalescence_number(expand_support(m.coupling)) == m.k


def test_cycle_walk_without_pruning(ex10):
    report = k_set_exact(ex10, prune=False, collect_feasible=True)
    assert sorted(report.values) == [1, 3]
    assert report.subsets_enumerated == 255
    assert report.pruned == 0
    assert report.cover_skipped == 62
    assert report.lp_decided == 193
    assert len(report.feasible) == 45
    # every collected support is genuinely feasible and carries its k
    for sup, k in report.feasible:
        assert feasible_weights(ex10, sup)
        assert coalescence_number(sup) == k


def test_four_state_achievable_set(ex11_report):
    ex11, report = ex11_report
    assert sorted(report.values) == [1, 2, 4]
    assert report.exact
    assert report.subsets_enumerated == 65535
    assert [(e.k, e.reason) for e in report.exclusions] == [(3, "exhaustive")]
    for m in report.members:
        assert is_consistent(m.coupling, ex11)
        assert coalescence_number(expand_support(m.coupling)) == m.k


def test_four_state_pruning_stats(ex11_report):
    _, report = ex11_report
    assert report.pruned == 58833
    assert report.lp_decided == 4942
    assert len(report.feasible) == 48


def test_vertex_rule_matches_oracle():
    # the supports k_set_exact decides feasible, mostly from the vertex
    # supports found before them, are exactly the covering subsets the
    # vertex-enumeration oracle accepts
    rng = random.Random(81)
    checked = 0
    while checked < 60:
        rows = oracles.random_stochastic_denominators(
            rng, rng.randint(2, 3), (2, 3, 7, 9, 97)
        )
        images = oracles.allowed_images(rows)
        # matrices with nine functions make the oracle ten times slower
        if len(images) > 8:
            continue
        n = len(rows)
        cells = {(i, j) for i in range(n) for j in range(n) if rows[i][j] > 0}
        want = set()
        for size in range(1, len(images) + 1):
            for chosen in combinations(images, size):
                covers = {(i, f[i]) for f in chosen for i in range(n)} == cells
                if covers and oracles.oracle_exact_feasible(rows, list(chosen)):
                    want.add(frozenset(chosen))
        P = StochasticMatrix.from_rows(rows)
        report = k_set_exact(P, prune=False, collect_feasible=True)
        assert {frozenset(f.image for f in sup) for sup, _ in report.feasible} == want
        assert k_set_exact(P).values == report.values
        checked += 1


def test_simplex_runs_only_on_vertex_candidates(ex10, ex11, monkeypatch):
    # decided subsets (lp_decided) against the vertex candidates that reach
    # decide, and the simplexes built there: none, since one elimination
    # decides every candidate
    calls, built = [], []
    decide, simplex = feasibility.SupportTester.decide, feasibility.SupportTester._simplex

    def counting(self, idxs):
        calls.append(idxs)
        self.deciding = True
        try:
            return decide(self, idxs)
        finally:
            self.deciding = False

    def building(self, idxs):
        if getattr(self, "deciding", False):
            built.append(idxs)
        return simplex(self, idxs)

    monkeypatch.setattr(feasibility.SupportTester, "decide", counting)
    monkeypatch.setattr(feasibility.SupportTester, "_simplex", building)
    for P, kwargs, decided, candidates in (
        (ex10, {}, 46, 22),
        (ex10, {"prune": False}, 193, 22),
        (ex11, {}, 4942, 1840),
    ):
        calls.clear()
        built.clear()
        report = k_set_exact(P, **kwargs)
        assert report.lp_decided == decided
        assert len(calls) == candidates
        assert built == []


def test_two_state_walk():
    report = k_set_report(path_walk(2))
    assert sorted(report.values) == [1, 2]
    assert report.exact


def test_three_state_walk():
    report = k_set_report(path_walk(3))
    assert sorted(report.values) == [1, 3]
    assert [(e.k, e.reason) for e in report.exclusions] == [(2, "single-pair-criterion")]


def test_certificates_on_uniform_matrix():
    # 3^27 - 1 candidate supports: enumeration is hopeless, certificates not
    U = StochasticMatrix.uniform(3)
    report = k_set_certificates(U)
    assert not report.exact
    assert sorted(report.values) == [1, 3]
    assert [(m.k, m.how) for m in report.members] == [
        (1, "aperiodicity"),
        (3, "double-stochasticity"),
    ]
    assert [(e.k, e.reason) for e in report.exclusions] == [
        (2, "single-pair-criterion")
    ]


def _block_permuting_rows(rng, n):
    # an even mixture of block-permuting maps, which lumps; None when the
    # chain is reducible
    _, images = oracles.random_block_permuting(rng, n, rng.randint(1, 3))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for image in images:
        for i in range(n):
            rows[i][image[i]] += Fraction(1, len(images))
    return rows if oracles.strongly_connected(rows) else None


def test_certificates_agree_with_exact_route():
    # members the certificates claim are achievable, and values they exclude
    # are not, on random irreducible matrices inside a 2^12 subset budget:
    # plain ones, permutation mixtures (which may be periodic) and mixtures
    # of block-permuting maps (which lump)
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        n, kind = rng.randint(3, 4), rng.randrange(3)
        if kind == 0:
            rows = oracles.random_stochastic(rng, n)
        elif kind == 1:
            rows = oracles.random_doubly_stochastic(rng, n, max_perms=3)
        else:
            rows = _block_permuting_rows(rng, n)
            if rows is None:
                continue
        P = StochasticMatrix.from_rows(rows)
        try:
            exact = k_set_exact(P, cap=2**12)
        except BudgetExceeded:
            continue
        certified = k_set_certificates(P)
        assert certified.values <= exact.values
        assert not {e.k for e in certified.exclusions} & exact.values
        checked += 1


def _random_irreducible(rng, n):
    # plain, denominator-based, doubly stochastic, or lumpable
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            return oracles.random_stochastic(rng, n)
        if kind == 1:
            return oracles.random_stochastic_denominators(rng, n, (2, 3, 7, 9, 97))
        if kind == 2:
            return oracles.random_doubly_stochastic(rng, n, max_perms=3)
        rows = _block_permuting_rows(rng, n)
        if rows is not None:
            return rows


def _small_panel(seed, count, states, max_functions=12):
    # random irreducible matrices with at most max_functions allowed
    # functions, so that the unsteered loop fits the test's time
    rng = random.Random(seed)
    panel = []
    while len(panel) < count:
        P = StochasticMatrix.from_rows(_random_irreducible(rng, rng.choice(states)))
        if math.prod(len(s) for s in P.row_supports) <= max_functions:
            panel.append(P)
    return panel


def test_steered_report_matches_unsteered_loop():
    # the certified exclusions only stop and prune the loop: values and
    # witnesses are those of the loop run with no exclusions, and of the
    # full run with no prune and no early stop, which finds the same first
    # support for each value
    steered_total = plain_total = 0
    for P in _small_panel(2601, 40, (3, 4)):
        full = k_set_exact(P, prune=False, collect_feasible=True)
        plain = k_set_exact(P)
        steered = k_set_report(P)
        assert steered.exact
        for report in (plain, steered):
            assert report.values == full.values
            assert [(m.k, m.how, m.coupling.support()) for m in report.members] == [
                (m.k, m.how, m.coupling.support()) for m in full.members
            ]
            assert [m.coupling for m in report.members] == [m.coupling for m in full.members]
            assert [e.k for e in report.exclusions] == [e.k for e in full.exclusions]
        assert steered.subsets_enumerated <= plain.subsets_enumerated
        steered_total += steered.subsets_enumerated
        plain_total += plain.subsets_enumerated
    assert steered_total < plain_total


def test_certificates_settle_three_states():
    # for an irreducible 3-state chain the certificates decide every value:
    # 1 by aperiodicity, 3 by double stochasticity, and 2 either way (see
    # the kset module docstring)
    for P in _small_panel(2602, 90, (3,)):
        report = k_set_report(P, cap=0)
        assert report.exact
        assert report.subsets_enumerated == 0
        assert report.values == k_set_exact(P).values


def test_pair_balance_criterion(ex10):
    assert not single_pair_balance(ex10, 0, 1)
    assert all(
        not single_pair_balance(ex10, a, b)
        for a in range(3)
        for b in range(a + 1, 3)
    )
    with pytest.raises(ValueError):
        single_pair_balance(ex10, 1, 1)


def test_exclude_second_largest_on_reflecting_walks():
    for n in range(3, 6):
        assert can_exclude_second_largest(path_walk(n))
    # n = 2 has no pair criterion to apply
    assert not can_exclude_second_largest(path_walk(2))


def test_divisor_members():
    # on the uniform chain the certificates find every divisor of 6 and
    # rule out 5, the second largest
    U6 = StochasticMatrix.uniform(6)
    report = k_set_certificates(U6)
    assert sorted(report.values) == [1, 2, 3, 6]
    assert [(e.k, e.reason) for e in report.exclusions] == [(5, "single-pair-criterion")]
    assert not report.exact
    for m in report.members:
        assert is_consistent(m.coupling, U6)


def test_budget_checked_before_functions_are_built(monkeypatch):
    # 9-state cycle, each state to itself and both neighbours: 3^9 = 19,683
    # allowed functions
    P = StochasticMatrix.from_rows(
        [[Fraction(1, 3) if (j - i) % 9 in (0, 1, 8) else 0 for j in range(9)] for i in range(9)]
    )

    def fail(_):
        raise AssertionError("allowed functions built before the budget check")

    monkeypatch.setattr(kset, "allowed_functions", fail)
    with pytest.raises(BudgetExceeded, match=r"^2\^19683 - 1 candidate supports"):
        k_set_exact(P)
    third = Fraction(1, 3)
    P3 = StochasticMatrix.from_rows([[third] * 3, [1, 0, 0], [0, 1, 0]])
    with pytest.raises(BudgetExceeded, match=r"^2\^3 - 1 .* budget of 6;"):
        k_set_exact(P3, cap=6)
    monkeypatch.undo()
    assert k_set_exact(P3, cap=7).subsets_enumerated <= 7


def test_budget_fallback(ex10):
    # an impossible subset budget forces the certificate path, which on the
    # 3-state walk settles every value
    report = k_set_report(ex10, cap=10)
    assert report.exact
    assert any("exceed" in note for note in report.notes)
    assert sorted(report.values) == [1, 3]
    assert report.subsets_enumerated == 0
    # on certgap the certificates leave 2 open, so the fallback is inexact
    report = k_set_report(parse_matrix(CERTGAP_MATRIX), cap=10)
    assert not report.exact
    assert any("exceed" in note for note in report.notes)
    assert sorted(report.values) == [1]
    assert [e.k for e in report.exclusions] == [3, 4]


def test_certificates_match_the_oracle_scan():
    # the block values are those of the scan the search replaced: each open
    # l from 2 to n-1 whose partitions (every set partition in
    # restricted-growth order, filtered by the oracle) hold one whose block
    # measure verifies, on the K(P) panel up to 8 states
    found = 0
    for name, rows in oracles.kset_panel(3202, 6, range(3, 9)):
        n = len(rows)
        P = StochasticMatrix.from_rows(rows)
        report = k_set_certificates(P)
        assert not report.notes
        excluded = {e.k for e in report.exclusions}
        scan = {}
        for l in range(2, n):
            if l in excluded:
                continue
            partitions = [Partition.from_blocks(b) for b in oracles.oracle_lumpable_partitions(rows, l)]
            if any(is_block_measure(construct_block_measure(P, q), q) for q in partitions):
                scan[l] = partitions
        members = {m.k: m for m in report.members if m.how == "block-partition"}
        assert members.keys() == scan.keys(), name
        for l, m in members.items():
            assert m.coupling.partition in scan[l]
            assert is_block_measure(m.coupling)
        found += len(members)
    assert found >= 10


def _three_permutation_mixture(rng, n):
    # three random permutations with random weights: uniform pi
    while True:
        perms = [oracles.random_permutation_image(rng, n) for _ in range(3)]
        raw = [rng.randint(1, 9) for _ in perms]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for perm, a in zip(perms, raw):
            for i in range(n):
                rows[i][perm[i]] += Fraction(a, sum(raw))
        if oracles.strongly_connected(rows):
            return rows


def _planted(rng, n, l):
    # lumpable over a random partition into l blocks of n/l states, with the
    # lazy l-cycle as block matrix and every state of a target block in
    # reach, so that the block coupling merges each block
    states = rng.sample(range(n), n)
    m = n // l
    parts = [sorted(states[r * m:(r + 1) * m]) for r in range(l)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for r, blk in enumerate(parts):
        for i in blk:
            for s in (r, (r + 1) % l):
                raw = [rng.randint(1, 4) for _ in parts[s]]
                for j, a in zip(parts[s], raw):
                    rows[i][j] = Fraction(a, 2 * sum(raw))
    return rows, Partition.from_blocks(parts)


def test_block_members_past_eight_states():
    # the set-partition scan stopped after 20,000 partitions, short of
    # Bell(9): these were cut short, and the divisors 4 and 6 of 12 and the
    # planted blocks were missed
    report = k_set_certificates(StochasticMatrix.uniform(12))
    assert sorted(report.values) == [1, 2, 3, 4, 6, 12]
    assert not report.notes
    rng = random.Random(3203)
    for l in (3, 4):
        rows, planted = _planted(rng, 12, l)
        report = k_set_certificates(StochasticMatrix.from_rows(rows))
        assert not report.notes
        member = next(m for m in report.members if m.k == l)
        assert (member.how, member.coupling.partition) == ("block-partition", planted)


def test_partition_search_charges_its_budget(monkeypatch):
    # nothing lumps over equal masses on these mixtures: at 16 states every
    # candidate block is formed within the budget, at 20 the search forms
    # exactly the budget's worth and the report says it stopped
    charged = []
    charge = blocks._PartitionSearch._charge

    def counting(search):
        charged.append(search)
        charge(search)

    monkeypatch.setattr(blocks._PartitionSearch, "_charge", counting)
    rng = random.Random(7)
    report = k_set_certificates(StochasticMatrix.from_rows(_three_permutation_mixture(rng, 16)))
    assert sorted(report.values) == [1, 16] and not report.notes
    assert 1000 < len(charged) < blocks.MAX_CANDIDATE_BLOCKS
    charged.clear()
    report = k_set_certificates(StochasticMatrix.from_rows(_three_permutation_mixture(rng, 20)))
    assert sorted(report.values) == [1, 20]
    assert report.notes == (
        f"lumpable-partition search stopped after {blocks.MAX_CANDIDATE_BLOCKS} candidate blocks",
    )
    # the charge that finds the budget spent raises before its block forms
    assert len(charged) == blocks.MAX_CANDIDATE_BLOCKS + 1
    assert charged[-1].formed == blocks.MAX_CANDIDATE_BLOCKS
