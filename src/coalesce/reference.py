"""Bundled worked examples with pinned expected results.

Each example is a named bundle of checks over a small chain or function
family. Running one recomputes everything from scratch and compares against
the stored answers, so any behavioral drift in the library shows up as a
failed row instead of passing silently. The three single-matrix examples
accept a replacement matrix, which is useful as a negative control: feeding
a different chain through the same checks should fail them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .birkhoff import birkhoff_decomposition
from .blocks import (
    check_lumpability,
    construct_block_measure,
    is_block_measure,
    uniform_divisor_coupling,
)
from .cftp import DidNotCoalesce, RngStream, cftp_sample
from .coupling import (
    ExplicitCoupling,
    doeblin_coupling,
    is_consistent,
    permutation_coupling,
    to_explicit,
)
from .errors import InvalidOption
from .feasibility import feasible_weights
from .kset import can_exclude_second_largest, k_set_certificates, k_set_exact
from .mapfun import MapFunction, Partition, Support
from .matrix import StochasticMatrix, parse_matrix
from .semigroup import coalescence_number, coalescing_pairs, limiting_partitions

EX10_MATRIX = "1/2 1/2 0\n0 1/2 1/2\n1/2 0 1/2\n"

EX11_MATRIX = "1/2 1/2 0 0\n0 1/2 1/2 0\n0 0 1/2 1/2\n1/2 0 0 1/2\n"

# Support of the equal-weight coupling of the four-state chain above; the
# four functions move the alternating blocks {1,3} and {2,4} rigidly.
EX11_QUARTER_SUPPORT = ("1234", "1331", "2244", "2341")

# K(P) = {1, 2}. The certificate route certifies 1 and excludes 3 and 4, but
# no block partition certifies 2. The coupling below reaches k = 2 with two
# limiting partitions, so it keeps no single block structure.
CERTGAP_MATRIX = "0 1/4 3/4 0\n3/4 0 1/4 0\n0 1/4 0 3/4\n0 3/4 1/4 0\n"

CERTGAP_COUPLING = (("2323", Fraction(1, 4)), ("3142", Fraction(3, 4)))

EX7_FUNCTIONS = ("3434", "4334", "3412", "3421")


@dataclass(frozen=True)
class ExampleRow:
    """One check: what was expected, what came out, and whether they agree."""

    example: str
    check: str
    expected: str
    computed: str
    passed: bool


def _row(example: str, check: str, expected, computed) -> ExampleRow:
    return ExampleRow(example, check, str(expected), str(computed), expected == computed)


def _pairs_onebased(pairs) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(tuple(sorted(v + 1 for v in p)) for p in pairs))


def _partitions_onebased(parts: Iterable[Partition]) -> tuple[str, ...]:
    return tuple(sorted(p.format_onebased() for p in parts))


def ex7_support() -> Support:
    return Support.of(MapFunction.from_notation(s) for s in EX7_FUNCTIONS)


def path_walk(n: int) -> StochasticMatrix:
    """Reflecting walk on a path, lazy at the two ends.

    Interior states split evenly between their neighbours; the end states
    hold with probability 1/2. Doubly stochastic and aperiodic for n >= 2.
    """
    half = Fraction(1, 2)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[max(i - 1, 0)] += half
        row[min(i + 1, n - 1)] += half
        rows.append(row)
    return StochasticMatrix.from_rows(rows)


def _run_ex7(override: StochasticMatrix | None) -> list[ExampleRow]:
    support = ex7_support()
    rows = [
        _row("ex7", "coalescence number", 2, coalescence_number(support)),
        _row(
            "ex7",
            "coalescing pairs",
            ((1, 3), (1, 4), (2, 3), (2, 4)),
            _pairs_onebased(coalescing_pairs(support)),
        ),
        _row(
            "ex7",
            "limiting partitions",
            ("1,3|2,4", "1,4|2,3"),
            _partitions_onebased(limiting_partitions(support)),
        ),
    ]
    return rows


def _run_ex10(override: StochasticMatrix | None) -> list[ExampleRow]:
    P = override if override is not None else parse_matrix(EX10_MATRIX)
    report = k_set_exact(P, prune=False)
    rows = [
        _row("ex10", "achievable coalescence numbers", (1, 3), tuple(sorted(report.values))),
        _row("ex10", "support subsets enumerated", 255, report.subsets_enumerated),
    ]
    decomp = birkhoff_decomposition(P)
    rows.append(
        _row(
            "ex10",
            "permutation mixture",
            (("123", "1/2"), ("231", "1/2")),
            tuple(sorted((f.to_notation(), str(w)) for f, w in decomp.terms)),
        )
    )
    return rows


def _run_ex11(override: StochasticMatrix | None) -> list[ExampleRow]:
    P = override if override is not None else parse_matrix(EX11_MATRIX)
    report = k_set_exact(P)
    rows = [
        _row("ex11", "achievable coalescence numbers", (1, 2, 4), tuple(sorted(report.values)))
    ]

    quarter = Support.of(MapFunction.from_notation(s) for s in EX11_QUARTER_SUPPORT)
    witness = feasible_weights(P, quarter)
    if witness:
        computed = tuple((f.to_notation(), str(w)) for f, w in witness.weights)
        mu = witness.as_coupling()
        k = coalescence_number(mu)
        # 1331 breaks the block structure of both two-block candidates, so
        # this coupling achieves k=2 without being a block measure.
        block_a = is_block_measure(mu, Partition.parse("1,2|3,4"))
        block_b = is_block_measure(mu, Partition.parse("1,3|2,4"))
    else:
        computed, k = witness.reason, "infeasible"
        block_a = block_b = "infeasible"
    rows.append(
        _row(
            "ex11",
            "equal-weight support feasible",
            tuple((s, "1/4") for s in EX11_QUARTER_SUPPORT),
            computed,
        )
    )
    rows.append(_row("ex11", "equal-weight coupling classes", 2, k))
    rows.append(_row("ex11", "equal-weight block measure for 1,2|3,4", False, block_a))
    rows.append(_row("ex11", "equal-weight block measure for 1,3|2,4", False, block_b))

    adjacent = check_lumpability(P, Partition.parse("1,2|3,4"))
    rows.append(_row("ex11", "partition 1,2|3,4 lumpable", False, bool(adjacent)))
    alternating = check_lumpability(P, Partition.parse("1,3|2,4"))
    rows.append(
        _row(
            "ex11",
            "partition 1,3|2,4 lumped matrix",
            "1/2 1/2\n1/2 1/2\n",
            alternating.to_text() if alternating else "not lumpable",
        )
    )
    if alternating:
        canonical = construct_block_measure(P, Partition.parse("1,3|2,4"))
        rows.append(
            _row(
                "ex11",
                "canonical 1,3|2,4 coupling classes",
                4,
                coalescence_number(canonical),
            )
        )
    return rows


def _run_certgap(override: StochasticMatrix | None) -> list[ExampleRow]:
    P = override if override is not None else parse_matrix(CERTGAP_MATRIX)
    exact = k_set_exact(P)
    certified = k_set_certificates(P)
    members = tuple(m.k for m in certified.members)
    excluded = tuple(e.k for e in certified.exclusions)
    mu = ExplicitCoupling.from_pairs(
        (MapFunction.from_notation(f), w) for f, w in CERTGAP_COUPLING
    )
    return [
        _row("certgap", "achievable coalescence numbers", (1, 2), tuple(sorted(exact.values))),
        _row("certgap", "certificate members", (1,), members),
        _row("certgap", "certificate exclusions", (3, 4), excluded),
        _row(
            "certgap",
            "left open by the certificates",
            (2,),
            tuple(k for k in range(1, P.n + 1) if k not in members + excluded),
        ),
        _row("certgap", "2323 + 3142 coupling consistent", True, is_consistent(mu, P)),
        _row("certgap", "2323 + 3142 coupling classes", 2, coalescence_number(mu)),
        _row(
            "certgap",
            "2323 + 3142 limiting partitions",
            ("1,2|3,4", "1,3|2,4"),
            _partitions_onebased(limiting_partitions(mu)),
        ),
    ]


def _run_divisors(override: StochasticMatrix | None) -> list[ExampleRow]:
    n = 6
    U = StochasticMatrix.uniform(n)
    rows = []
    for l in (1, 2, 3, 6):
        mu = uniform_divisor_coupling(n, l)
        rows.append(_row("divisors", f"l={l} coupling matches uniform chain", True, is_consistent(mu, U)))
        rows.append(_row("divisors", f"l={l} coupling is a block measure", True, is_block_measure(mu)))
    return rows


def _run_exclusion(override: StochasticMatrix | None) -> list[ExampleRow]:
    rows = []
    for n in range(3, 9):
        rows.append(
            _row(
                "exclusion",
                f"n={n}: {n - 1} classes ruled out by pair balance",
                True,
                can_exclude_second_largest(path_walk(n)),
            )
        )
    return rows


def _run_dichotomy(override: StochasticMatrix | None) -> list[ExampleRow]:
    runs, t_max = 20, 10_000
    P = path_walk(5)
    perm = permutation_coupling(P)
    iid = to_explicit(doeblin_coupling(P))
    rows = [
        _row("dichotomy", "permutation coupling consistent", True, is_consistent(perm, P)),
        _row("dichotomy", "independent coupling consistent", True, is_consistent(iid, P)),
    ]
    stream = RngStream(20_260_818)
    capped = sum(
        isinstance(cftp_sample(perm, stream.fork(r), t_max=t_max), DidNotCoalesce)
        for r in range(runs)
    )
    rows.append(_row("dichotomy", f"permutation runs hitting the {t_max} cap", runs, capped))
    met = sum(
        isinstance(cftp_sample(iid, stream.fork(runs + r), t_max=t_max), int)
        for r in range(runs)
    )
    rows.append(_row("dichotomy", "independent runs coalescing", runs, met))
    return rows


@dataclass(frozen=True)
class Example:
    example_id: str
    takes_matrix: bool
    run: Callable[[StochasticMatrix | None], list[ExampleRow]]


REGISTRY: dict[str, Example] = {
    e.example_id: e
    for e in (
        Example("ex7", False, _run_ex7),
        Example("ex10", True, _run_ex10),
        Example("ex11", True, _run_ex11),
        Example("certgap", True, _run_certgap),
        Example("divisors", False, _run_divisors),
        Example("exclusion", False, _run_exclusion),
        Example("dichotomy", False, _run_dichotomy),
    )
}


def example_ids() -> list[str]:
    return list(REGISTRY)


def _example(example_id: str, override: StochasticMatrix | None) -> Example:
    ex = REGISTRY.get(example_id)
    if ex is None:
        raise InvalidOption(f"unknown example id {example_id!r}; know {sorted(REGISTRY)}")
    if override is not None and not ex.takes_matrix:
        raise InvalidOption(f"example {example_id!r} does not take a replacement matrix")
    return ex


def run_all(
    only: Iterable[str] | None = None,
    overrides: dict[str, StochasticMatrix] | None = None,
) -> list[ExampleRow]:
    """Run the given examples (all by default) in order and collect their rows.

    overrides maps example ids to replacement matrices. Every id and every
    override is checked before any example runs: an unknown id, an override
    for an example that is not run, or one for an example that takes no
    matrix raises InvalidOption, and so does an id named twice.
    """
    ids = list(only) if only is not None else example_ids()
    for i, example_id in enumerate(ids):
        if example_id in ids[:i]:
            raise InvalidOption(f"example id {example_id!r} is named more than once")
    overrides = overrides or {}
    for example_id in overrides:
        if example_id not in ids:
            raise InvalidOption(f"--override for {example_id!r} which did not run")
    examples = [_example(i, overrides.get(i)) for i in ids]
    rows: list[ExampleRow] = []
    for ex in examples:
        rows.extend(ex.run(overrides.get(ex.example_id)))
    return rows
