import random
from collections import Counter
from fractions import Fraction

import pytest

import coalesce
import coalesce.blocks
import coalesce.coupling
import oracles
from coalesce import (
    BlockCoupling,
    ExplicitPermLaw,
    NotLumpable,
    Partition,
    StochasticMatrix,
    SupportTooLarge,
    UniformPermLaw,
    check_lumpability,
    coalescence_number,
    coalescing_pairs,
    construct_block_measure,
    doeblin_coupling,
    expand_support,
    is_block_measure,
    is_consistent,
    provably_never_coalesces,
    to_explicit,
    uniform_divisor_coupling,
)

H = Fraction(1, 2)


def test_adjacent_pair_partition_not_lumpable(ex11):
    res = check_lumpability(ex11, Partition.parse("1,2|3,4"))
    assert isinstance(res, NotLumpable)
    assert res.states == (0, 1)
    assert res.masses == (Fraction(1), H)
    assert "block" in res.describe()


def test_alternating_partition_lumps_to_coin_flip(ex11):
    lumped = check_lumpability(ex11, Partition.parse("1,3|2,4"))
    assert not isinstance(lumped, NotLumpable)
    assert lumped.entries == ((H, H), (H, H))


def test_block_conditions(ex11):
    part = Partition.parse("1,3|2,4")
    assert construct_block_measure(ex11, part).partition == part
    with pytest.raises(coalesce.BlockConditionsFail, match="not lumpable"):
        construct_block_measure(ex11, Partition.parse("1,2|3,4"))
    # the uniform matrix lumps over unequal blocks, but no permutation law
    # can reproduce unequal block masses
    U = StochasticMatrix.uniform(4)
    assert not isinstance(check_lumpability(U, Partition.parse("1|2,3,4")), NotLumpable)
    with pytest.raises(coalesce.BlockConditionsFail, match="not doubly stochastic"):
        construct_block_measure(U, Partition.parse("1|2,3,4"))


def test_construct_block_coupling_on_cycle_walk(ex11):
    part = Partition.parse("1,3|2,4")
    mu = construct_block_measure(ex11, part)
    assert is_consistent(mu, ex11)
    sup = expand_support(mu)
    assert sorted(f.to_notation() for f in sup) == ["1234", "2341"]
    # the construction is a valid coupling with block structure, but its
    # coalescence number is 4, not the block count, so it fails the
    # block-measure test
    assert coalescence_number(sup) == 4
    assert not is_block_measure(mu)


def test_quarter_coupling_is_not_a_block_measure(quarter_coupling):
    # 1331 maps both blocks of 1,3|2,4 into a single block, and maps the
    # first block of 1,2|3,4 across blocks, so neither induces permutations
    assert not is_block_measure(quarter_coupling, Partition.parse("1,3|2,4"))
    assert not is_block_measure(quarter_coupling, Partition.parse("1,2|3,4"))
    assert not is_block_measure(quarter_coupling, Partition.parse("1,4|2,3"))
    # trivial partitions fail on the coalescence number: k is 2, not 4 or 1
    assert coalescence_number(expand_support(quarter_coupling)) == 2
    assert not is_block_measure(quarter_coupling, Partition.singletons(4))
    assert not is_block_measure(quarter_coupling, Partition.single_block(4))


def test_explicit_couplings_need_a_partition(quarter_coupling):
    with pytest.raises(ValueError):
        is_block_measure(quarter_coupling)


def test_uniform_divisor_coupling_is_block_measure():
    mu = uniform_divisor_coupling(4, 2)
    assert is_block_measure(mu)
    assert is_block_measure(mu, Partition.parse("1,2|3,4"))
    # and detection also works from the flattened explicit form
    assert is_block_measure(to_explicit(mu), Partition.parse("1,2|3,4"))
    assert not is_block_measure(to_explicit(mu), Partition.parse("1,3|2,4"))


def test_single_block_coupling_coalesces():
    mu = uniform_divisor_coupling(2, 1)
    assert coalescence_number(expand_support(mu)) == 1
    assert is_block_measure(mu)


def _block_coupling(blocks, perms, within) -> BlockCoupling:
    """A BlockCoupling with uniform weights on oracles.random_block_structure's data."""
    l = len(blocks)
    if perms is None:
        law = UniformPermLaw(l)
    else:
        law = ExplicitPermLaw(tuple((p, Fraction(1, len(perms))) for p in perms))
    return BlockCoupling(
        Partition.from_blocks(blocks),
        law,
        tuple(
            tuple((s, tuple((j, Fraction(1, len(js))) for j in js)) for s, js in sorted(entry.items()))
            for entry in within
        ),
    )


def _random_partition(rng: random.Random, n: int) -> Partition:
    top = rng.randint(1, n)
    labels = [rng.randrange(top) for _ in range(n)]
    return Partition.from_blocks([i for i in range(n) if labels[i] == b] for b in set(labels))


def _permutes_blocks(images, partition: Partition) -> bool:
    """Every image sends each block into one block, bijectively, map by map."""
    block_of = partition.block_of()
    for t in images:
        lands = [{block_of[t[i]] for i in blk} for blk in partition.blocks]
        if any(len(s) != 1 for s in lands) or sorted(s.pop() for s in lands) != list(range(partition.size)):
            return False
    return True


def test_structural_pairs_match_expanded_support():
    # the support and the pair graph a block coupling builds from its
    # structure, against the brute-force support images, its expanded
    # support and, where the closure is small, the brute-force pairs; and
    # the block-measure check against foreign partitions (random ones, the
    # single block and the singletons), in both forms, against the images
    rng = random.Random(82)
    seen = Counter()
    for c in range(1000):
        n = rng.randint(1, 7)
        uniform = c % 2 == 0
        blocks, perms, within = oracles.random_block_structure(rng, n, uniform)
        mu = _block_coupling(blocks, perms, within)
        images = oracles.block_support_images(blocks, perms, within)
        explicit = to_explicit(mu)
        assert [f.image for f, _ in explicit.terms] == images
        support = expand_support(mu)
        assert sorted(f.image for f in support) == images
        assert mu.support_size() == len(images)
        pairs = coalescing_pairs(mu)
        assert pairs == coalescing_pairs(support)
        never = provably_never_coalesces(mu)
        assert never == provably_never_coalesces(explicit)
        block = is_block_measure(mu)
        assert block == is_block_measure(explicit, mu.partition)
        oracle = n <= 4 and len(images) <= 16
        if oracle:
            k = oracles.oracle_min_image(images)
            assert pairs == oracles.oracle_coalescing_pairs(images)
            assert never == (k > 1)
            assert block == (k == len(blocks))
            seen["oracle"] += 1
        seen[uniform, n == 7, block, never] += 1
        trivial = Partition.single_block(n) if c % 4 < 2 else Partition.singletons(n)
        for partition in (_random_partition(rng, n), _random_partition(rng, n), trivial):
            foreign = is_block_measure(mu, partition)
            assert foreign == is_block_measure(explicit, partition)
            permutes = _permutes_blocks(images, partition)
            if oracle:
                assert foreign == (permutes and k == partition.size)
            else:
                assert foreign <= permutes
            seen["foreign", partition != mu.partition, permutes, foreign] += 1
    assert seen["oracle"] >= 300
    # against a partition other than its own, a block coupling is found to
    # permute or not to permute the blocks, and a block measure or not
    for permutes, foreign in ((False, False), (True, False), (True, True)):
        assert seen["foreign", True, permutes, foreign] >= 100, (permutes, foreign)
    # k = l > 1, k > l and k = l = 1 all occur at n = 7 under both laws
    # (k = 1 forces one block, since every composite permutes the blocks)
    for uniform in (True, False):
        for block, never in ((True, True), (False, True), (True, False)):
            assert seen[uniform, True, block, never], (uniform, block, never)


def _unread(*args, **kwargs):
    raise AssertionError("a support was expanded or a component read")


def test_foreign_partition_is_read_from_components(monkeypatch):
    # (12,6) carries 720 * 2^12 support maps, past the support cap, in 720
    # components; against four blocks of four the identity component already
    # sends 1,2,3,4 into the two blocks 1,2 and 3,4
    mu = uniform_divisor_coupling(12, 6)
    for module in (coalesce.coupling, coalesce.blocks, coalesce):
        monkeypatch.setattr(module, "expand_support", _unread, raising=False)
    monkeypatch.setattr(BlockCoupling, "support", _unread)
    assert not is_block_measure(mu, Partition.parse("1,2,3,4|5,6,7,8|9,10,11,12"))


def test_foreign_partition_charges_the_cap_on_components(monkeypatch):
    # (20,10) has 10! components, past the 10^6 support cap: refused on the
    # count, before any component is read
    mu = uniform_divisor_coupling(20, 10)
    monkeypatch.setattr(BlockCoupling, "image_law", _unread)
    with pytest.raises(SupportTooLarge, match="3628800"):
        is_block_measure(mu, Partition.parse("1,2,3,4|5,6,7,8|9,10,11,12|13,14,15,16|17,18,19,20"))


def _oracle_within(rows, blocks):
    """within from its definition: for each block s with P(i, B_s) > 0, in
    block order, the pairs (j, P(i, j) / P(i, B_s)) over the j in B_s with
    P(i, j) > 0, in state order."""
    within = []
    for row in rows:
        entry = []
        for s, blk in enumerate(sorted((sorted(b) for b in blocks), key=min)):
            mass = sum(row[j] for j in blk)
            if mass > 0:
                entry.append((s, tuple((j, row[j] / mass) for j in blk if row[j] > 0)))
        within.append(tuple(entry))
    return tuple(within)


def _builder_panel():
    """(construct, rows, blocks) for the three constructors on a seeded
    panel: lumpable mixtures of block-permuting maps, random irreducible
    matrices, and every divisor coupling with n <= 12."""
    rng = random.Random(28)
    for _ in range(300):
        n = rng.randint(1, 7)
        blocks, images = oracles.random_block_permuting(rng, n, rng.randint(1, 5))
        raw = [rng.randint(1, 5) for _ in images]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for t, a in zip(images, raw):
            for i in range(n):
                rows[i][t[i]] += Fraction(a, sum(raw))
        P = StochasticMatrix.from_rows(rows)
        yield (lambda P=P, blocks=blocks: construct_block_measure(P, Partition.from_blocks(blocks))), rows, blocks
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = oracles.random_stochastic(rng, n)
        P = StochasticMatrix.from_rows(rows)
        yield (lambda P=P: doeblin_coupling(P)), rows, [range(n)]
    for n in range(1, 13):
        for l in range(1, n + 1):
            if n % l == 0:
                m = n // l
                blocks = [range(r * m, (r + 1) * m) for r in range(l)]
                rows = [[Fraction(1, n)] * n for _ in range(n)]
                yield (lambda n=n, l=l: uniform_divisor_coupling(n, l)), rows, blocks


def test_constructors_move_each_state_by_its_conditioned_row():
    zero_mass = 0
    for construct, rows, blocks in _builder_panel():
        mu = construct()
        assert mu.within == _oracle_within(rows, blocks)
        assert is_consistent(mu, StochasticMatrix.from_rows(rows))
        zero_mass += sum(len(entry) < len(blocks) for entry in mu.within)
    # rows that miss a block are common, so the mutant below is exercised
    assert zero_mass >= 100
    with pytest.raises(coalesce.DimensionMismatch):
        BlockCoupling.conditioned(StochasticMatrix.uniform(3), Partition.single_block(4), UniformPermLaw(1))


def test_a_builder_keeping_zero_mass_blocks_is_rejected(monkeypatch):
    # a builder that lists every block, reached or not, is refused by
    # BlockCoupling's reachable-blocks check wherever a row misses a block
    def keeps_zero_mass_blocks(cls, P, partition, law):
        within = tuple(
            tuple(
                (s, tuple((j, row[j] / sum(row[k] for k in blk)) for j in sorted(blk) if row[j] > 0))
                for s, blk in enumerate(partition.blocks)
            )
            for row in P.entries
        )
        return cls(partition, law, within)

    monkeypatch.setattr(BlockCoupling, "conditioned", classmethod(keeps_zero_mass_blocks))
    rejected = 0
    for construct, rows, blocks in _builder_panel():
        try:
            construct()
        except coalesce.CouplingFormatError as exc:
            assert "do not match reachable blocks" in str(exc)
            rejected += 1
    assert rejected >= 100


def test_integer_lumpability_matches_fraction_block_sums():
    # lumpable matrices over random partitions, the same with one state's
    # mass moved between two target blocks, and unstructured matrices: the
    # block matrix or the certificate must be the one Fraction sums give
    rng = random.Random(2030)
    later_blocks = 0  # certificates whose first target block agrees
    for _ in range(400):
        blocks, rows = oracles.random_lumpable(rng, rng.randint(1, 8))
        kind = rng.randrange(3)
        wide = [blk for blk in blocks if len(blk) > 1]
        if kind == 1 and wide and len(blocks) > 1:
            i = rng.choice(rng.choice(wide)[1:])
            j = rng.choice([j for j in range(len(rows)) if rows[i][j]])
            k = rng.choice([k for blk in blocks if j not in blk for k in blk])
            moved = rows[i][j] * Fraction(rng.randint(1, 4), 4)
            rows[i][j] -= moved
            rows[i][k] += moved
        elif kind == 2:
            rows = oracles.random_stochastic(rng, len(rows), irreducible=False)
        want = oracles.oracle_lumpability(rows, blocks)
        got = check_lumpability(StochasticMatrix.from_rows(rows), Partition.from_blocks(blocks))
        if isinstance(want, list):
            assert got == StochasticMatrix.from_rows(want)
        else:
            assert got == NotLumpable(*want)
            later_blocks += want[2] > 0
    assert later_blocks >= 10
