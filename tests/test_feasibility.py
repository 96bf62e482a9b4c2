import inspect
import random
import textwrap
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from coalesce import feasibility
from coalesce import (
    FeasibilityWitness,
    Infeasible,
    MapFunction,
    StochasticMatrix,
    Support,
    SupportTester,
    allowed_functions,
    feasible_weights,
    is_consistent,
    is_weakly_feasible,
    k_set_exact,
)

Q = Fraction(1, 4)


def sup(*notations):
    return Support.of(MapFunction.from_notation(s) for s in notations)


def decides(P, support):
    """The general exact-support question: does some coupling of P have
    exactly this support?"""
    return bool(SupportTester(P, support).witness(range(len(support))))


def test_quarter_support_weights(ex11, quarter_coupling):
    res = feasible_weights(ex11, quarter_coupling.support())
    assert isinstance(res, FeasibilityWitness)
    assert all(w == Q for _, w in res.weights)
    assert is_consistent(res.as_coupling(), ex11)


def test_full_allowed_support_feasible(ex10):
    res = feasible_weights(ex10, allowed_functions(ex10))
    assert isinstance(res, FeasibilityWitness)
    assert len(res.weights) == 8
    assert all(w > 0 for _, w in res.weights)
    assert sum(w for _, w in res.weights) == 1
    assert res.as_coupling().induced.entries == ex10.entries


def test_pair_support_feasible(ex10):
    res = feasible_weights(ex10, sup("123", "231"))
    assert isinstance(res, FeasibilityWitness)
    assert sorted((f.to_notation(), w) for f, w in res.weights) == [
        ("123", Fraction(1, 2)),
        ("231", Fraction(1, 2)),
    ]


def test_unsupported_function_reason(ex10):
    res = feasible_weights(ex10, sup("132", "123"))
    assert isinstance(res, Infeasible)
    assert res.reason == "unsupported-function"
    assert "132" in res.detail


def test_uncovered_cell_reason(ex10):
    res = feasible_weights(ex10, sup("123"))
    assert isinstance(res, Infeasible)
    assert res.reason == "uncovered-cell"


def test_zero_forced_reason(ex10):
    # the identity/cycle pair already fills every cell, starving 133
    res = feasible_weights(ex10, sup("123", "231", "133"))
    assert isinstance(res, Infeasible)
    assert res.reason == "zero-forced"
    assert "133" in res.detail


def test_no_solution_reason(ex10):
    # cells force weight(121) = 0 from one equation and 1/2 from another
    res = feasible_weights(ex10, sup("121", "133", "223"))
    assert isinstance(res, Infeasible)
    assert res.reason == "no-solution"


def test_all_subsets_of_cycle_walk_match_oracle(ex10):
    fs = list(allowed_functions(ex10))
    rows = [list(ex10.row(i)) for i in range(3)]
    tally = {"feasible": 0, "zero-forced": 0, "uncovered-cell": 0, "no-solution": 0}
    for r in range(1, len(fs) + 1):
        for c in combinations(fs, r):
            res = feasible_weights(ex10, Support.of(c))
            feasible = not isinstance(res, Infeasible)
            assert feasible == oracles.oracle_exact_feasible(
                rows, [f.image for f in c]
            )
            tally["feasible" if feasible else res.reason] += 1
    assert tally == {
        "feasible": 45,
        "zero-forced": 132,
        "uncovered-cell": 62,
        "no-solution": 16,
    }


def test_weak_feasibility(ex10):
    # zero-forced supports still admit a coupling inside the support
    assert is_weakly_feasible(ex10, sup("123", "231", "133"))
    assert not decides(ex10, sup("123", "231", "133"))
    # contradictory cell equations do not
    assert not is_weakly_feasible(ex10, sup("121", "133", "223"))
    # unsupported functions are dropped before deciding
    assert is_weakly_feasible(ex10, sup("132", "123", "231"))
    assert not is_weakly_feasible(ex10, sup("132", "123"))


def test_weak_feasibility_is_monotone(ex10):
    fs = list(allowed_functions(ex10))
    rng = random.Random(77)
    for _ in range(80):
        base = rng.sample(fs, rng.randint(1, 6))
        extra = rng.sample(fs, rng.randint(1, 2))
        if is_weakly_feasible(ex10, Support.of(base)):
            assert is_weakly_feasible(ex10, Support.of(base + extra))


def test_random_matrices_match_oracle():
    rng = random.Random(78)
    checked = 0
    for _ in range(25):
        n = rng.randint(2, 3)
        rows = (
            oracles.random_doubly_stochastic(rng, n)
            if rng.random() < 0.5
            else oracles.random_stochastic(rng, n)
        )
        P = StochasticMatrix.from_rows(rows)
        fs = list(allowed_functions(P))
        for _ in range(8):
            chosen = rng.sample(fs, rng.randint(1, min(5, len(fs))))
            got = decides(P, Support.of(chosen))
            want = oracles.oracle_exact_feasible(rows, [f.image for f in chosen])
            assert got == want
            weak_got = is_weakly_feasible(P, Support.of(chosen))
            weak_want = oracles.oracle_weakly_feasible(rows, [f.image for f in chosen])
            assert weak_got == weak_want
            checked += 1
    assert checked == 200


def test_random_four_state_spot_checks(ex11):
    rng = random.Random(79)
    rows = [list(ex11.row(i)) for i in range(4)]
    fs = list(allowed_functions(ex11))
    for _ in range(40):
        chosen = rng.sample(fs, rng.randint(1, 5))
        got = decides(ex11, Support.of(chosen))
        want = oracles.oracle_exact_feasible(rows, [f.image for f in chosen])
        assert got == want


def test_witness_support_matches_input(ex11, quarter_coupling):
    res = feasible_weights(ex11, quarter_coupling.support())
    assert res.support() == quarter_coupling.support()


def _integral(sx):
    return all(type(v) is int for row in sx.M for v in row) and type(sx.d) is int


def test_integer_simplex_matches_fraction_reference_and_oracle(monkeypatch):
    # count pivots made outside _solve: the phase-1 expel of artificials
    # still basic at level zero, the only place a pivot can be negative
    expel = {"pivots": 0, "negative": 0}
    solve, pivot = feasibility._Simplex._solve, feasibility._Simplex._pivot

    def traced_solve(self, *args):
        self.solving = True
        try:
            return solve(self, *args)
        finally:
            self.solving = False

    def traced_pivot(self, r, e):
        if not getattr(self, "solving", False):
            expel["pivots"] += 1
            expel["negative"] += self.M[r][e] < 0
        pivot(self, r, e)

    monkeypatch.setattr(feasibility._Simplex, "_solve", traced_solve)
    monkeypatch.setattr(feasibility._Simplex, "_pivot", traced_pivot)
    rng = random.Random(80)
    tally = {"feasible": 0, "infeasible": 0}
    for _ in range(40):
        rows = oracles.random_stochastic_denominators(rng, rng.randint(3, 4), (2, 3, 7, 9, 97))
        P = StochasticMatrix.from_rows(rows)
        tester = SupportTester(P, allowed_functions(P))
        m = len(tester.functions)
        for _ in range(5):
            idxs = sorted(rng.sample(range(m), rng.randint(1, min(7, m))))
            images = [tester.functions[c].image for c in idxs]
            want = oracles.oracle_exact_feasible(rows, images)
            assert tester.decide(idxs) == oracles.oracle_vertex_support(rows, images)
            res = tester.witness(idxs)
            assert bool(res) == want
            tally["feasible" if want else "infeasible"] += 1
            if tester.cover_mask(idxs) != tester.full_mask:
                continue
            sx = tester._simplex(idxs)
            ref = oracles.FractionSimplex(
                [tester._columns[c] for c in idxs], tester._b, tester._scale
            )
            assert sx.feasible == ref.feasible
            assert sx.basis == ref.basis
            if not sx.feasible:
                continue
            for j in range(len(idxs)):
                assert sx.maximize_coord(j) == ref.maximize_coord(j)
                assert sx.basis == ref.basis
                assert _integral(sx)
    assert tally == {"feasible": 18, "infeasible": 182}
    assert expel["pivots"] > 0 and expel["negative"] > 0


def _decide_mutant(old, new):
    """SupportTester.decide with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(feasibility.SupportTester.decide))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(feasibility), namespace)
    return namespace["decide"]


def test_elimination_decides_independent_columns_like_oracle_and_simplex(monkeypatch):
    # decide is the vertex-support test: independent columns, so that
    # A_S w = b has at most one solution, and that solution strictly
    # positive. The panel holds random draws of at most rank-many
    # functions, covering or not, independent or not; a vertex support
    # plus one more function, whose unique solution, if any, has a zero
    # coordinate; and the union of two vertex supports, which some coupling
    # has as its exact support (the midpoint of the two vertices) but no
    # vertex does
    rng = random.Random(82)
    panel = []
    tally = dict.fromkeys(
        ("positive", "inconsistent", "zero", "negative", "dependent", "uncovered", "union"), 0
    )
    for t in range(40):
        n = rng.randint(3, 4)
        rows = (
            oracles.random_doubly_stochastic(rng, n, max_perms=3)
            if t % 2
            else oracles.random_stochastic_denominators(rng, n, (2, 3, 7, 9, 97))
        )
        P = StochasticMatrix.from_rows(rows)
        tester = SupportTester(P, allowed_functions(P))
        m = len(tester.functions)
        draws = [sorted(rng.sample(range(m), rng.randint(1, min(tester.rank, m)))) for _ in range(10)]
        for idxs in draws:
            images = [tester.functions[c].image for c in idxs]
            cols, b = oracles._cell_system(rows, images)
            A = [[col[r] for col in cols] for r in range(len(b))]
            independent = oracles.gauss_rank(A) == len(idxs)
            w = oracles.solve_exact(A, b)
            kind = (
                "uncovered" if tester.cover_mask(idxs) != tester.full_mask
                else "dependent" if not independent
                else "inconsistent" if w is None
                else "negative" if min(w) < 0
                else "zero" if min(w) == 0
                else "positive"
            )
            tally[kind] += 1
            want = independent and w is not None and min(w) > 0
            assert want == (kind == "positive")
            assert bool(tester.witness(idxs)) == oracles.oracle_exact_feasible(rows, images)
            panel.append((tester, idxs, want))
            if want and len(idxs) < m:
                draws.append(sorted(idxs + [rng.choice([c for c in range(m) if c not in idxs])]))
        # the simplex's coordinate maximizers are vertices of the polytope
        sx, vertices = tester._simplex(range(m)), []
        for j in range(m):
            x = sx.maximize_coord(j)[1]
            idxs = [c for c in range(m) if x[c] > 0]
            if idxs not in vertices:
                vertices.append(idxs)
        for first, second in combinations(vertices[:3], 2):
            idxs = sorted(set(first) | set(second))
            vertex = [
                oracles.oracle_vertex_support(rows, [tester.functions[c].image for c in v])
                for v in (first, second, idxs)
            ]
            assert vertex == [True, True, False]
            assert tester.witness(idxs)
            tally["union"] += 1
            panel.append((tester, idxs, False))
    assert tally == {
        "positive": 16, "inconsistent": 35, "zero": 18, "negative": 45,
        "dependent": 10, "uncovered": 283, "union": 107,
    }

    def no_simplex(self, idxs):
        raise AssertionError("decide built a simplex")

    monkeypatch.setattr(SupportTester, "_simplex", no_simplex)
    assert all(tester.decide(idxs) == want for tester, idxs, want in panel)
    # accepting a zero coordinate, or a solution of the pivot rows that the
    # rows left without a pivot contradict, must be caught by the panel
    for old, new in (("v > 0", "v >= 0"), ("consistent and ", "")):
        mutant = _decide_mutant(old, new)
        assert any(mutant(tester, idxs) != want for tester, idxs, want in panel)


def test_large_denominators_stay_exact():
    rows = [
        [Fraction(2, 7), Fraction(5, 7), 0],
        [0, Fraction(5, 9), Fraction(4, 9)],
        [Fraction(1, 97), 0, Fraction(96, 97)],
    ]
    P = StochasticMatrix.from_rows(rows)
    tester = SupportTester(P, allowed_functions(P))
    assert tester._scale == 7 * 9 * 97
    res = tester.witness(range(len(tester.functions)))
    assert isinstance(res, FeasibilityWitness)
    assert res.as_coupling().induced.entries == P.entries
    assert sum(w for _, w in res.weights) == 1


def test_witness_golden_weights(ex11):
    # pinned from the Fraction tableau this simplex replaced: the pivot
    # sequence, and with it every witness, is unchanged
    res = feasible_weights(ex11, sup("2344", "1331", "2241", "1234", "2341"))
    assert [(f.to_notation(), w) for f, w in res.weights] == [
        ("1234", Fraction(7, 20)),
        ("1331", Fraction(3, 20)),
        ("2241", Fraction(3, 20)),
        ("2341", Fraction(1, 5)),
        ("2344", Fraction(3, 20)),
    ]


@pytest.mark.parametrize(
    "fixture, golden",
    [
        ("ex10", {1: ["121", "233"], 3: ["123", "231"]}),
        ("ex11", {1: ["1231", "2344"], 2: ["1331", "2244"], 4: ["1234", "2341"]}),
    ],
)
def test_kset_witness_golden(fixture, golden, request):
    report = k_set_exact(request.getfixturevalue(fixture))
    got = {
        m.k: [(f.to_notation(), w) for f, w in m.coupling.terms] for m in report.members
    }
    half = Fraction(1, 2)
    assert got == {k: [(s, half) for s in fs] for k, fs in golden.items()}
