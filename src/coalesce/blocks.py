"""Block measures: couplings that permute the blocks of a partition.

A coupling is a block measure for a partition when almost every support
function sends each block into a single block, bijectively at the block
level, and the coalescence number equals the number of blocks. Such
couplings glue the chain down to exactly one survivor per block.

Construction goes through lumpability: if the row mass of P from any state
of block r into block s depends only on r, those masses form a block-level
matrix. When that matrix is doubly stochastic it carries a law on block
permutations, and the conditional rows inside each block complete a
BlockCoupling (BlockCoupling.conditioned). The construction is
marginal-correct by design; whether the result actually coalesces to the
block count is a separate question answered by is_block_measure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .birkhoff import birkhoff_decomposition
from .coupling import (
    DEFAULT_SUPPORT_CAP,
    BlockCoupling,
    ExplicitPermLaw,
    GrandCoupling,
    UniformPermLaw,
    _check_support_cap,
)
from .errors import BlockConditionsFail, BudgetExceeded, DimensionMismatch, NotADivisor
from .mapfun import Partition
from .matrix import StochasticMatrix, invariant_scaled, is_doubly_stochastic
from .semigroup import coalescing_pairs

MAX_CANDIDATE_BLOCKS = 100_000  # sets one lumpable-partition search forms, over every l


@dataclass(frozen=True)
class NotLumpable:
    """Certificate that two states of one block disagree on a target block."""

    block: int
    states: tuple[int, int]
    target_block: int
    masses: tuple[Fraction, Fraction]

    def __bool__(self) -> bool:
        return False

    def describe(self) -> str:
        i, j = self.states
        a, b = self.masses
        return (
            f"states {i + 1} and {j + 1} share block {self.block + 1} but send "
            f"mass {a} and {b} into block {self.target_block + 1}"
        )


def check_lumpability(
    P: StochasticMatrix, partition: Partition
) -> StochasticMatrix | NotLumpable:
    """The block-level matrix of P, or a certificate that none exists.

    Lumpable means: for every ordered pair of blocks (r, s), the total mass
    a state sends into block s is the same for all states of block r.
    """
    if partition.n != P.n:
        raise DimensionMismatch(f"partition covers {partition.n} states, matrix has {P.n}")
    den, a = P.scaled
    blocks = partition.blocks
    rows = []
    for r, blk in enumerate(blocks):
        ref, *others = sorted(blk)
        ref_masses = [sum(a[ref][j] for j in tgt) for tgt in blocks]  # den * P(ref, B_s)
        for i in others:
            for s, tgt in enumerate(blocks):
                mass = sum(a[i][j] for j in tgt)
                if mass != ref_masses[s]:
                    return NotLumpable(r, (ref, i), s, (Fraction(ref_masses[s], den), Fraction(mass, den)))
        rows.append(tuple(Fraction(m, den) for m in ref_masses))
    return StochasticMatrix(tuple(rows))


class _PartitionSearch:
    """lumpable_partitions over one P, with one budget for every l."""

    def __init__(self, P: StochasticMatrix):
        self.n = P.n
        self.rows = P.scaled[1]
        self.d, self.pi = invariant_scaled(P)
        self.formed = 0

    def partitions(self, l: int):
        if not 1 <= l <= self.n or self.d % l:
            return
        target, rows, blocks = self.d // l, self.rows, []
        into: list[list[int]] = []  # into[t][i]: den * P(i, B_t), for every state i

        def agrees(states, block) -> bool:
            first = sum(rows[states[0]][j] for j in block)
            return all(sum(rows[i][j] for j in block) == first for i in states[1:])

        def place(unplaced: list[int]):
            v = unplaced[0]
            cls = [u for u in unplaced if all(m[u] == m[v] for m in into)]
            if len(blocks) == l - 1:
                if len(cls) == len(unplaced):
                    yield Partition.from_blocks(blocks + [unplaced])
                return
            for block in self._candidates(cls, target):
                if agrees(block, block) and all(agrees(b, block) for b in blocks):
                    kept = list(block)
                    blocks.append(kept)
                    into.append([sum(row[j] for j in kept) for row in rows])
                    yield from place([u for u in unplaced if u not in kept])
                    blocks.pop()
                    into.pop()

        yield from place(list(range(self.n)))

    def _candidates(self, cls: list[int], target: int):
        """The sets of pi-mass target in cls that hold cls[0], lower states
        first in. Every set formed on the way is charged."""
        pi = self.pi
        tail = [0] * (len(cls) + 1)  # tail[k]: the pi-mass of cls[k:]
        for k in reversed(range(len(cls))):
            tail[k] = tail[k + 1] + pi[cls[k]]
        block: list[int] = []

        def grow(k: int, mass: int):
            if mass == target:
                yield block
                return
            for c in range(k, len(cls)):
                if mass + tail[c] < target:
                    return
                if mass + pi[cls[c]] <= target:
                    self._charge()
                    block.append(cls[c])
                    yield from grow(c + 1, mass + pi[cls[c]])
                    block.pop()

        self._charge()
        block.append(cls[0])
        yield from grow(1, pi[cls[0]])

    def _charge(self):
        if self.formed == MAX_CANDIDATE_BLOCKS:
            raise BudgetExceeded(
                f"lumpable-partition search stopped after {self.formed} candidate blocks"
            )
        self.formed += 1


def lumpable_partitions(P: StochasticMatrix, l: int):
    """Every partition into l blocks, each of pi-mass 1/l, over which P lumps.

    P must be irreducible, and pi is its invariant law. These are exactly
    the partitions whose lumped matrix is doubly stochastic, since the
    block masses of pi are the invariant law of the irreducible lumped
    chain.

    Blocks are chosen in order of their least state. The next block holds
    the least unplaced state v and lies in v's class: the unplaced states
    whose masses into every earlier block equal v's. Its candidates, the
    sets of pi-mass 1/l in that class that hold v, are grown one state at
    a time, lower states first in; one is kept when the masses into it
    agree within it and within every earlier block. The last block is what
    remains, and it must be one class (rows sum to one, so the masses into
    it then agree). Each partition is yielded once. Masses and pi are read
    in integers, from P.scaled and invariant_scaled.

    Every set formed while a candidate grows is charged as a candidate
    block, so that the budget also bounds a search in which no set reaches
    mass 1/l. Raises BudgetExceeded rather than form more than
    MAX_CANDIDATE_BLOCKS.
    """
    return _PartitionSearch(P).partitions(l)


def construct_block_measure(P: StochasticMatrix, partition: Partition) -> BlockCoupling:
    """Build the block-structured coupling of P over a partition.

    Requires P lumpable over the partition, with a doubly stochastic
    block-level matrix; its Birkhoff decomposition is the law on block
    permutations, passed to BlockCoupling.conditioned.

    Raises BlockConditionsFail, carrying the lump result, when either
    requirement fails. Note that the result is always a consistent coupling,
    but not automatically a block measure: the coalescence number can exceed
    the block count. Use is_block_measure to check.
    """
    lumped = check_lumpability(P, partition)
    if not lumped:
        raise BlockConditionsFail(f"not lumpable: {lumped.describe()}", lumped)
    if not is_doubly_stochastic(lumped):
        raise BlockConditionsFail(
            "the block-level matrix is not doubly stochastic, so no law on "
            "block permutations has these marginals",
            lumped,
        )
    decomp = birkhoff_decomposition(lumped)
    law = ExplicitPermLaw(tuple((f.image, w) for f, w in decomp.terms))
    return BlockCoupling.conditioned(P, partition, law)


def is_block_measure(mu: GrandCoupling, partition: Partition | None = None) -> bool:
    """Whether mu permutes the partition's blocks and coalesces to one
    survivor per block.

    Two requirements: every support function induces a bijection of blocks,
    and the coalescence number equals the block count l. For a
    BlockCoupling over the same partition the first is automatic. Any
    other coupling is read per component of image_law on all states: all
    its maps permute the blocks exactly when each block's states have all
    their targets in one block, and those blocks are distinct (if a block
    has targets in two blocks, fix the other blocks' choices; by pigeonhole
    one of the two breaks the bijection). No support is expanded, but a
    coupling with more components than the default support cap raises
    SupportTooLarge before any is read. The state pairs always come from
    the coupling's one-step image pairs.

    The second is decided on state pairs: for a block-permuting support,
    k = l exactly when every pair of states in a common block coalesces.
    Every composite permutes the blocks, so its image has at least l
    points; if it has two in one block, the composition that merges them
    lowers the image size by at least one. Conversely a composite with l
    points in its image sends each block to a single point.
    """
    if partition is None:
        if not isinstance(mu, BlockCoupling):
            raise ValueError("a partition is required for explicit couplings")
        partition = mu.partition
    if partition.n != mu.n:
        raise DimensionMismatch(f"partition on n={partition.n}, coupling on n={mu.n}")
    foreign = not (isinstance(mu, BlockCoupling) and mu.partition == partition)
    if foreign:
        _check_support_cap(mu.component_count(), DEFAULT_SUPPORT_CAP)
        block_of = partition.block_of()
        for _, dists in mu.image_law(range(mu.n)):
            lands = [{block_of[t] for x in blk for t, _ in dists[x]} for blk in partition.blocks]
            if any(len(s) > 1 for s in lands) or len(set().union(*lands)) < partition.size:
                return False
    pairs = coalescing_pairs(mu)
    return all(
        frozenset(p) in pairs
        for blk in partition.blocks
        for p in combinations(sorted(blk), 2)
    )


def uniform_divisor_coupling(n: int, l: int) -> BlockCoupling:
    """A block measure of the uniform chain on n states with exactly l blocks.

    Splits the states into l consecutive blocks of size n/l, draws a uniform
    block permutation, and picks images uniformly inside the target block
    (BlockCoupling.conditioned on the uniform chain's rows).
    Every state then has marginal 1/n on every target, so this couples the
    uniform chain, and the coalescence number is exactly l. Requires l to
    divide n.
    """
    if n < 1 or l < 1:
        raise NotADivisor(f"need positive sizes, got n={n}, l={l}")
    if n % l:
        raise NotADivisor(f"{l} does not divide {n}")
    m = n // l
    partition = Partition.from_blocks(range(r * m, (r + 1) * m) for r in range(l))
    return BlockCoupling.conditioned(StochasticMatrix.uniform(n), partition, UniformPermLaw(l))
