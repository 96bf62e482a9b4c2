"""The achievable set of coalescence numbers of a transition matrix.

K(P) collects every value k for which some grand coupling consistent with P
has coalescence number k. Since k depends only on the support, and supports
live inside the finite set of row-compatible functions, K(P) is computable
by exhaustive enumeration: test each candidate support for exact
feasibility, and find the coalescence number of each feasible one.

Most supports are decided without a linear program. Let Q be the polytope
{w >= 0 : A w = b} of couplings of P over the allowed functions, with r the
rank of A. The weightings carried inside a support S form a face of Q, and
a point in the relative interior of a face is positive exactly on the union
of the supports of the face's vertices. So S is exactly feasible iff S is
the union of the supports of the vertices of Q that lie inside S. A vertex
support covers every positive cell (each cell has positive mass) and has at
most r functions (its columns are independent). Supports are searched by
size, and the pruned up-set only grows, so every vertex support strictly
inside a decided subset was itself decided earlier, and recorded when it
was found feasible. Hence:

- if recorded vertex supports lie inside S, S is feasible iff they cover it;
- if none does and S has more than r functions, S is infeasible;
- otherwise S is feasible only as a vertex support, with independent
  columns and a strictly positive unique solution: one elimination decides
  it.

Certificates settle part of K(P) with no subset search: aperiodicity
settles membership of 1, double stochasticity settles n, a per-pair balance
condition can rule out n-1, and lumpable partitions with doubly stochastic
block matrices contribute verified block-measure members. Those partitions
are the ones blocks.lumpable_partitions lists: blocks of equal invariant
mass, built block by block in order of their least state, each inside the
class of states that agree on the masses into the blocks before it. For
each open l the witness is the first partition into l blocks, in that
order, whose block measure verifies. k_set_report
hands the exclusions to the enumeration, which stops once every value from
k(allowed) to n is achieved or excluded, so it searches only for the values
the theorems leave open. Past the subset budget the certificates alone
answer, one-sided in general.

For an irreducible chain on three states they answer exactly. 1 and 3 are
decided both ways. If 2 is in K(P), a coupling with k = 2 has one
coalescing pair {a, b}, which must pass the single-pair balance, so 2 is
excluded unless some pair passes it. If {a, b} passes it, P(a,c) = P(b,c)
= P(c,a) + P(c,b) = x for the third state c: P is lumpable over ab|c, with
the doubly stochastic block matrix [[1-x, x], [x, 1-x]], and x > 0 since
the chain is irreducible. The block coupling built over ab|c then swaps the
blocks with probability x, sending a and b both to c, so it merges {a, b}:
it is a block measure with two blocks. Its block matrix is doubly
stochastic, so ab and c have invariant mass 1/2 each, and the partition
search lists ab|c among the partitions into two blocks. The witness for 2
may be an earlier partition in the search's order, but one is found, and 2
is a certified member.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

from .blocks import _PartitionSearch, construct_block_measure, is_block_measure
from .coupling import GrandCoupling, doeblin_coupling, permutation_coupling
from .errors import BudgetExceeded
from .feasibility import FeasibilityWitness, SupportTester
from .mapfun import MapFunction, Support
from .matrix import StochasticMatrix, is_doubly_stochastic, period
from .semigroup import DEFAULT_CLOSURE_CAP, coalescence_number

DEFAULT_SUBSET_BUDGET = 2**20


@dataclass(frozen=True)
class KMember:
    """One achieved coalescence number, with the coupling that achieves it."""

    k: int
    coupling: GrandCoupling
    how: str  # 'exhaustive' | 'aperiodicity' | 'double-stochasticity' | 'block-partition'


@dataclass(frozen=True)
class KExclusion:
    """One ruled-out coalescence number, with the reason it is impossible."""

    k: int
    reason: str  # 'exhaustive' | 'aperiodicity' | 'double-stochasticity' | 'single-pair-criterion'
    detail: str = ""


@dataclass(frozen=True)
class KSetReport:
    """The outcome of either route to K(P).

    The four counters are filled by the exact route, and are zero when the
    certificates alone answered. subsets_enumerated counts every subset
    considered before the loop stopped, not the 2^m - 1 it would visit
    without the stop; cover_skipped those failing the cell cover, pruned
    those skipped by the prune antichain, and lp_decided the rest, every
    subset whose feasibility was decided. Only those with no
    recorded vertex support inside and at most r functions reach
    SupportTester.decide, the vertex-support test, which one elimination
    answers with no linear program (see the module docstring); the name is
    kept for the output.
    """

    n: int
    members: tuple[KMember, ...]
    exclusions: tuple[KExclusion, ...]
    exact: bool
    subsets_enumerated: int = 0
    lp_decided: int = 0
    cover_skipped: int = 0
    pruned: int = 0
    feasible: tuple[tuple[Support, int], ...] | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        overlap = self.values & {e.k for e in self.exclusions}
        if overlap:
            raise ValueError(f"values {sorted(overlap)} both included and excluded")

    @property
    def values(self) -> frozenset[int]:
        return frozenset(m.k for m in self.members)



def allowed_functions(P: StochasticMatrix) -> Support:
    """Every function whose graph stays inside the positive cells of P.

    These are exactly the functions any consistent coupling may charge; the
    count is the product of the row support sizes.
    """
    return Support.of(
        MapFunction(combo) for combo in itertools.product(*P.row_supports)
    )


def single_pair_balance(P: StochasticMatrix, a: int, b: int) -> bool:
    """Necessary balance for {a, b} to be the only coalescing pair.

    If some coupling of P can merge the pair {a, b} and nothing else, then
    the mass a and b send outside the pair must agree, and must also equal
    the total mass the other states send into the pair. All three sums are
    compared exactly. States are 0-based here.
    """
    n = P.n
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise ValueError("need two distinct states")
    others = [i for i in range(n) if i not in (a, b)]
    rows = P.scaled[1]  # all three sums over one denominator
    out_a = sum(rows[a][j] for j in others)
    out_b = sum(rows[b][j] for j in others)
    into = sum(rows[i][a] + rows[i][b] for i in others)
    return out_a == out_b == into


def can_exclude_second_largest(P: StochasticMatrix) -> bool:
    """True when k = n-1 is impossible because every pair fails the balance.

    A coupling with k = n-1 has exactly one coalescing pair, and that pair
    must satisfy single_pair_balance. Only meaningful for n >= 3.
    """
    n = P.n
    if n < 3:
        return False
    return not any(
        single_pair_balance(P, a, b) for a, b in itertools.combinations(range(n), 2)
    )


def k_set_exact(
    P: StochasticMatrix,
    cap: int = DEFAULT_SUBSET_BUDGET,
    prune: bool = True,
    collect_feasible: bool = False,
    max_closure: int = DEFAULT_CLOSURE_CAP,
    excluded: Mapping[int, KExclusion] | None = None,
) -> KSetReport:
    """K(P) by exhaustive support enumeration. Exact, but exponential.

    Every non-empty subset of the allowed functions is considered, smallest
    first. Subsets failing the cell-cover precheck are discarded without
    solving; feasible ones contribute their coalescence number.

    Feasibility follows from the vertex supports found so far: a subset is
    feasible iff the recorded vertex supports inside it cover it. With none
    inside, a subset with more functions than the rank r of the marginal
    system is infeasible, and a smaller one is feasible iff
    SupportTester.decide finds it a vertex support, which is recorded. This
    is exact because subsets come by size, vertex supports always pass the
    cover check, and the pruned up-set only grows, so no vertex support
    inside a decided subset was skipped.

    excluded maps values already proven outside K(P), by the certificates'
    theorems, to their exclusions. A value is settled once it is achieved
    or excluded. An unachieved value keeps the exclusion given for it, and
    is otherwise excluded as 'exhaustive'. With prune=True (safe for the resulting set), a subset is skipped when it
    contains an already-feasible subset T such that every value between
    k(allowed) and k(T) is settled: enlarging a support can only move k
    within that interval, so no superset achieves a new value. Those T form
    an antichain with no filtering: a new one was not pruned, so it contains
    no earlier one, and subsets come by non-decreasing size, each once, so
    no earlier one contains it. The loop stops once every value from
    k(allowed) to n is settled. Witnesses are kept for the first support
    achieving each value; the order does not depend on excluded, and no
    such support is pruned, so they are the witnesses found without it.
    With collect_feasible=True every feasible support actually tested is
    recorded with its k, and no early stop is taken.

    Raises BudgetExceeded when there are more than cap non-empty subsets,
    before any function is built.
    """
    m = math.prod(len(s) for s in P.row_supports)
    # 2^m - 1 > cap, without building 2^m when m is past cap's bit length
    if m > cap.bit_length() or (1 << m) - 1 > cap:
        raise BudgetExceeded(
            f"2^{m} - 1 candidate supports exceed the budget of {cap}; "
            "use the certificate route instead"
        )
    allowed = allowed_functions(P)
    tester = SupportTester(P, allowed)
    functions = tester.functions
    n = P.n
    excluded = excluded or {}
    k_floor = coalescence_number(allowed, max_closure=max_closure)
    achieved: dict[int, FeasibilityWitness] = {}

    def settled(top: int) -> bool:
        return all(v in achieved or v in excluded for v in range(k_floor, top + 1))

    records: list[tuple[Support, int]] = []
    prune_list: list[int] = []  # antichain of subset masks
    vertex_masks: list[int] = []  # supports of the vertices found so far
    enumerated = lp_decided = cover_skipped = pruned = 0
    bit = [1 << c for c in range(m)]
    cell_masks, full_mask = tester.masks, tester.full_mask
    stop = False
    for size in range(1, m + 1):
        if stop:
            break
        for idxs in itertools.combinations(range(m), size):
            enumerated += 1
            mask = cover = 0
            for c in idxs:
                mask |= bit[c]
                cover |= cell_masks[c]
            if cover != full_mask:
                cover_skipped += 1
                continue
            # the antichain is empty unless prune is set
            for pm in prune_list:
                if pm & mask == pm:
                    break
            else:
                pm = 0
            if pm:
                pruned += 1
                continue
            lp_decided += 1
            # feasible iff the vertex supports inside cover it
            inside = 0
            for vm in vertex_masks:
                if vm & mask == vm:
                    inside |= vm
            if inside:
                feasible = inside == mask
            else:
                feasible = size <= tester.rank and tester.decide(idxs)
                if feasible:
                    vertex_masks.append(mask)
            if not feasible:
                continue
            k_s = coalescence_number(
                [functions[c] for c in idxs], max_closure=max_closure
            )
            if collect_feasible:
                records.append((Support.of(functions[c] for c in idxs), k_s))
            if k_s not in achieved:
                witness = tester.witness(idxs)
                assert isinstance(witness, FeasibilityWitness)
                achieved[k_s] = witness
            if prune and settled(k_s):
                prune_list.append(mask)
            if not collect_feasible and settled(n):
                stop = True
                break
    members = tuple(
        KMember(k, achieved[k].as_coupling(), "exhaustive") for k in sorted(achieved)
    )
    exclusions = tuple(
        excluded.get(k, KExclusion(k, "exhaustive"))
        for k in range(1, n + 1)
        if k not in achieved
    )
    return KSetReport(
        n=n,
        members=members,
        exclusions=exclusions,
        exact=True,
        subsets_enumerated=enumerated,
        lp_decided=lp_decided,
        cover_skipped=cover_skipped,
        pruned=pruned,
        feasible=tuple(records) if collect_feasible else None,
    )


def _certified_exclusions(P: StochasticMatrix) -> tuple[KExclusion, ...]:
    """The values the theorems rule out of K(P), with no search.

    1 is out when P is periodic, n when P is not doubly stochastic, and n-1
    when every state pair fails the single-pair balance. These are the
    exclusions of k_set_certificates, which k_set_report hands to the
    subset loop before it starts.
    """
    n = P.n
    exclusions = []
    if period(P) != 1:
        exclusions.append(
            KExclusion(1, "aperiodicity", "periodic chains admit no coalescing coupling")
        )
    if can_exclude_second_largest(P):
        exclusions.append(
            KExclusion(
                n - 1,
                "single-pair-criterion",
                "every pair fails the balance required of a lone coalescing pair",
            )
        )
    if not is_doubly_stochastic(P):
        exclusions.append(
            KExclusion(
                n,
                "double-stochasticity",
                "a coupling with no coalescing pair must ride on permutations",
            )
        )
    return tuple(exclusions)


def k_set_certificates(P: StochasticMatrix) -> KSetReport:
    """One-sided conclusions about K(P) that avoid subset enumeration.

    Membership of 1 is equivalent to aperiodicity (witnessed by the product
    coupling), membership of n to double stochasticity (witnessed by a
    permutation coupling). The value n-1 is excluded when every state pair
    fails the single-pair balance. Lumpable partitions whose block matrix
    is doubly stochastic contribute members after their constructed coupling
    verifies as a block measure; is_block_measure reads that coupling's
    state pairs from its structure, so every such partition is decided,
    whatever the size of the coupling's support.

    Those partitions are found by blocks.lumpable_partitions, block by
    block, asked only for the values l from 2 to n-1 that the theorems
    leave open, in increasing order. The witness for l is the first of
    them, in the search's order, whose block measure verifies, and the
    search for l stops there.
    One budget of blocks.MAX_CANDIDATE_BLOCKS candidate blocks covers every
    l; once it is spent, the value being searched and those after it stay
    open, and a note says so. The report is marked inexact.
    """
    n = P.n
    members: list[KMember] = []
    exclusions = _certified_exclusions(P)
    notes: list[str] = []
    seen = {e.k for e in exclusions}
    if 1 not in seen:
        members.append(KMember(1, doeblin_coupling(P), "aperiodicity"))
        seen.add(1)
    if n not in seen:
        members.append(KMember(n, permutation_coupling(P), "double-stochasticity"))
        seen.add(n)
    search = _PartitionSearch(P)  # one budget for every block count
    try:
        for l in range(2, n):
            if l in seen:
                continue
            for partition in search.partitions(l):
                mu = construct_block_measure(P, partition)
                if is_block_measure(mu, partition):
                    members.append(KMember(l, mu, "block-partition"))
                    break
    except BudgetExceeded as exc:
        notes.append(str(exc))
    return KSetReport(
        n=n,
        members=tuple(sorted(members, key=lambda m: m.k)),
        exclusions=tuple(sorted(exclusions, key=lambda e: e.k)),
        exact=False,
        notes=tuple(notes),
    )


def k_set_report(
    P: StochasticMatrix,
    cap: int = DEFAULT_SUBSET_BUDGET,
    max_closure: int = DEFAULT_CLOSURE_CAP,
) -> KSetReport:
    """Exact enumeration when it fits the budget, certificates otherwise.

    The certified exclusions steer the enumeration (see k_set_exact). Past
    the budget the certificate report is exact when its members and
    exclusions settle every value from 1 to n.
    """
    excluded = {e.k: e for e in _certified_exclusions(P)}
    try:
        return k_set_exact(P, cap=cap, max_closure=max_closure, excluded=excluded)
    except BudgetExceeded as exc:
        report = k_set_certificates(P)
        settled = report.values | excluded.keys() == set(range(1, P.n + 1))
        return replace(report, exact=settled, notes=report.notes + (str(exc),))
