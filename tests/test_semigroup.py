import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial, prod

import pytest

import oracles
from coalesce import (
    BlockCoupling,
    ClosureTooLarge,
    ExplicitCoupling,
    ExplicitPermLaw,
    MapFunction,
    Partition,
    StochasticMatrix,
    Support,
    UniformPermLaw,
    close,
    coalescence_number,
    coalescing_pairs,
    compose,
    construct_block_measure,
    expand_support,
    is_block_measure,
    limiting_partitions,
    provably_never_coalesces,
    relabel,
    to_explicit,
    uniform_divisor_coupling,
)
from coalesce.semigroup import coalescence_number_and_pairs


def _support_of(images):
    return Support.of(MapFunction(t) for t in images)


def test_four_function_example_k(ex7_support):
    assert coalescence_number(ex7_support) == 2


def test_four_function_example_pairs(ex7_support):
    pairs = coalescing_pairs(ex7_support)
    assert set(pairs) == {
        frozenset(p) for p in ((0, 2), (0, 3), (1, 2), (1, 3))
    }


def test_four_function_example_limiting_partitions(ex7_support):
    parts = limiting_partitions(ex7_support)
    assert parts == frozenset(
        {Partition.parse("1,3|2,4"), Partition.parse("1,4|2,3")}
    )


def _pullback(kappa: Partition, f: MapFunction) -> Partition:
    label = kappa.block_of()
    return MapFunction(tuple(label[v] for v in f.image)).kernel()


def test_orbit_contains_seed_and_is_closed(ex7_support):
    for text in ("1|2|3|4", "1,2,3,4", "1,3|2,4", "1,2|3|4", "1|2,3,4"):
        seed = Partition.parse(text)
        orbit = close(ex7_support, seed)
        assert orbit[0] == seed
        assert len(set(orbit)) == len(orbit)
        for kappa in orbit:
            for f in ex7_support:
                assert _pullback(kappa, f) in orbit


def _with_redundant_products(rng, images):
    """images plus up to three composites of them."""
    images = set(images)
    for _ in range(rng.randint(1, 3)):
        f, g = rng.choice(sorted(images)), rng.choice(sorted(images))
        images.add(oracles.compose_images(f, g))
    return images


def _random_partition(rng, n):
    labels = [rng.randrange(n) for _ in range(n)]
    return Partition.from_blocks(
        [i for i in range(n) if labels[i] == b] for b in set(labels)
    )


def _random_block_coupling(rng, n, uniform):
    """A random block coupling of oracles.random_block_structure's form, with
    random weights, and its support images by brute force."""
    blocks, perms, within = oracles.random_block_structure(rng, n, uniform)

    def weights(items):
        raw = [rng.randint(1, 4) for _ in items]
        return tuple(zip(items, (Fraction(w, sum(raw)) for w in raw)))

    law = UniformPermLaw(len(blocks)) if uniform else ExplicitPermLaw(weights(perms))
    dists = tuple(
        tuple((s, weights(js)) for s, js in sorted(entry.items())) for entry in within
    )
    mu = BlockCoupling(Partition.from_blocks(blocks), law, dists)
    return mu, oracles.block_support_images(blocks, perms, within)


def _blocks_of(parts):
    return {frozenset(frozenset(b) for b in p.blocks) for p in parts}


def _check_against_oracle(rng, forms, images):
    n = len(images[0])
    closure = oracles.word_closure(images)
    kernels = oracles.oracle_limiting_kernels(images)
    seed = _random_partition(rng, n)
    for support in forms:
        k, _, e0 = coalescence_number_and_pairs(support)
        # e0 is a least-rank composite (the identity when nothing merges)
        assert e0.image_size() == k == min(oracles.image_size(t) for t in closure)
        assert e0.image in closure or e0 == MapFunction.identity(n)
        assert _blocks_of(limiting_partitions(support)) == kernels
        orbit = close(support, seed)
        assert orbit[0] == seed and len(set(orbit)) == len(orbit)
        assert _blocks_of(orbit) == oracles.oracle_pullback_orbit(closure, seed.blocks)


def test_closure_matches_oracle(ex7_support):
    # the pullback orbit, the greedy's e0 and the limiting partitions against
    # the word closure, on random supports and on random block couplings in
    # block and explicit form
    rng = random.Random(77)
    supports = [[f.image for f in ex7_support]]
    for _ in range(40):
        n = rng.randint(2, 5)
        count = rng.randint(1, 3)
        supports.append(sorted({tuple(rng.randrange(n) for _ in range(n)) for _ in range(count)}))
    for i in range(150):
        n = rng.randint(2, 5)
        if i % 2:  # permutation-heavy
            base = [oracles.random_permutation_image(rng, n) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                base.append(tuple(rng.randrange(n) for _ in range(n)))
        else:
            base = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        supports.append(sorted(_with_redundant_products(rng, base)))
    supports.append([(0,)])
    for images in supports:
        _check_against_oracle(rng, [_support_of(images)], images)
    checked = 0
    for c in range(400):
        mu, images = _random_block_coupling(rng, 1 + c % 5, c % 2 == 0)
        if len(images) <= 24:
            _check_against_oracle(rng, [mu, to_explicit(mu)], images)
            checked += 1
    assert checked >= 300


@pytest.mark.parametrize("n, l", [(4, 1), (4, 2), (4, 4), (5, 5), (6, 2), (6, 3), (6, 6)])
def test_divisor_coupling_support_is_closed(n, l):
    # a block coupling's support maps send each block into one block, so its
    # partition pulls back to itself, and the least-rank maps glue exactly
    # the blocks; the same from the coupling and from its expanded support
    mu = uniform_divisor_coupling(n, l)
    for form in (mu, expand_support(mu)):
        assert close(form, mu.partition) == (mu.partition,)
        assert limiting_partitions(form) == frozenset({mu.partition})


def test_single_permutation_closure():
    cyc = Support.of([MapFunction.from_notation("231")])
    orbit = close(cyc, Partition.parse("1,2|3"))
    assert set(orbit) == {Partition.parse(t) for t in ("1,2|3", "1,3|2", "1|2,3")}
    assert close(cyc, Partition.singletons(3)) == (Partition.singletons(3),)
    assert limiting_partitions(cyc) == frozenset({Partition.singletons(3)})
    assert coalescence_number(cyc) == 3


def test_constant_generator_coalesces():
    sup = Support.of([MapFunction.constant(4, 1)])
    assert coalescence_number(sup) == 1
    assert limiting_partitions(sup) == frozenset({Partition.single_block(4)})


def test_closure_cap():
    # 3 random functions on 6 states blow past a pullback cap of 4 and a
    # pair cap of 4
    rng = random.Random(1)
    images = {tuple(rng.randrange(6) for _ in range(6)) for _ in range(3)}
    with pytest.raises(ClosureTooLarge):
        close(_support_of(images), Partition.singletons(6), max_size=4)
    with pytest.raises(ClosureTooLarge):
        coalescence_number(_support_of(images), max_closure=4)


def test_closure_cap_boundary():
    # the cap is exact: an orbit that forms exactly max_size pullbacks fits.
    # A set of maps forms one pullback per map and orbit member.
    rng = random.Random(2)
    images = {tuple(rng.randrange(5) for _ in range(5)) for _ in range(3)}
    sup = _support_of(images)
    for s, seed in (
        (sup, Partition.singletons(5)),
        (_support_of(_cerny(5)), Partition.parse("1,2|3|4|5")),
    ):
        orbit = close(s, seed)
        size = len(orbit) * len(s)
        assert size > len(s)
        assert close(s, seed, max_size=size) == orbit
        with pytest.raises(ClosureTooLarge):
            close(s, seed, max_size=size - 1)
    # a divisor coupling's l! block permutations each pull its partition
    # back to itself once
    for n, l in ((6, 2), (12, 6)):
        mu = uniform_divisor_coupling(n, l)
        assert close(mu, mu.partition, max_size=factorial(l)) == (mu.partition,)
        with pytest.raises(ClosureTooLarge):
            close(mu, mu.partition, max_size=factorial(l) - 1)
    # from the singletons, a block permutation pi forms one pullback per
    # choice of a label of pi's target block for each state
    mu = uniform_divisor_coupling(4, 2)
    orbit = close(mu, Partition.singletons(4))
    blocks, block_of = mu.partition.blocks, mu.partition.block_of()
    size = sum(
        prod(len({kappa.block_of()[t] for t in blocks[pi[block_of[x]]]}) for x in range(4))
        for kappa in orbit
        for pi in permutations(range(2))
    )
    assert size > factorial(2) * len(orbit)
    assert close(mu, Partition.singletons(4), max_size=size) == orbit
    with pytest.raises(ClosureTooLarge):
        close(mu, Partition.singletons(4), max_size=size - 1)
    # a coalescence number's cap counts the n(n-1)/2 = 10 state pairs
    assert coalescence_number(sup, max_closure=10) == coalescence_number(sup)
    with pytest.raises(ClosureTooLarge):
        coalescence_number(sup, max_closure=9)


def test_twelve_state_block_coupling():
    # 4,097 support maps on the 3-neighbour 12-cycle, blocks odd | even
    rows = [["1/3" if (j - i) % 12 in (0, 1, 11) else "0" for j in range(12)] for i in range(12)]
    mu = construct_block_measure(
        StochasticMatrix.from_rows(rows), Partition.parse("1,3,5,7,9,11|2,4,6,8,10,12")
    )
    sup = expand_support(mu)
    assert len(sup) == 4097
    for form in (mu, sup):
        assert coalescence_number(form) == 2
        assert coalescing_pairs(form) == {
            frozenset(p) for p in combinations(range(12), 2) if (p[0] - p[1]) % 2 == 0
        }
        assert limiting_partitions(form) == frozenset({mu.partition})


@pytest.mark.parametrize("n, l", [(7, 7), (8, 4)])
def test_divisor_coupling_k_equals_block_count(n, l):
    assert coalescence_number(expand_support(uniform_divisor_coupling(n, l))) == l


def _cerny(n):
    shift = tuple((i + 1) % n for i in range(n))
    merge = (1,) + tuple(range(1, n))  # sends state 0 to state 1
    return [shift, merge]


def test_cerny_automata_coalesce():
    # C_n needs a merging word of length (n-1)^2, so the greedy follows
    # long chains of pair steps
    for n in range(3, 13):
        images = _cerny(n)
        assert coalescence_number(_support_of(images)) == 1
        if n <= 5:
            assert oracles.oracle_min_image(images) == 1


def test_oracle_agreement_random_supports():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(2, 4)
        count = rng.randint(1, 4)
        images = list(
            {tuple(rng.randrange(n) for _ in range(n)) for _ in range(count)}
        )
        sup = _support_of(images)
        assert coalescence_number(sup) == oracles.bounded_min_image(images, 2**n)
        got = {tuple(sorted(p)) for p in coalescing_pairs(sup)}
        want = {tuple(sorted(p)) for p in oracles.oracle_coalescing_pairs(images)}
        assert got == want
    for _ in range(60):
        n = rng.randint(5, 6)
        images = list(
            {tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        )
        assert coalescence_number(_support_of(images)) == oracles.oracle_min_image(images)
    # the pair criteria: k > 1 exactly when some pair never merges, and for
    # a block-permuting support k = l exactly when every pair inside a block
    # merges
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        blocks, images = oracles.random_block_permuting(rng, n, rng.randint(1, 3))
        k = oracles.oracle_min_image(images)
        mu = ExplicitCoupling.from_pairs(
            (MapFunction(t), Fraction(1, len(images))) for t in images
        )
        partition = Partition.from_blocks(blocks)
        assert is_block_measure(mu, partition) == (k == len(blocks))
        assert provably_never_coalesces(mu) == (k > 1)
        assert coalescence_number(_support_of(images)) == k
        seen.add((k == len(blocks), k > 1))
    assert seen == {(True, True), (True, False), (False, True)}  # k = 1 forces l = 1


def test_limiting_partitions_match_oracle_kernels():
    rng = random.Random(74)
    for _ in range(60):
        n = rng.randint(2, 4)
        count = rng.randint(1, 3)
        images = list(
            {tuple(rng.randrange(n) for _ in range(n)) for _ in range(count)}
        )
        got = {
            frozenset(frozenset(b) for b in p.blocks)
            for p in limiting_partitions(_support_of(images))
        }
        assert got == oracles.oracle_limiting_kernels(images)


def test_monotone_in_support():
    # a superset of functions can only merge more, never less
    rng = random.Random(75)
    for _ in range(120):
        n = rng.randint(2, 5)
        small = {tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)}
        extra = {tuple(rng.randrange(n) for _ in range(n)) for _ in range(2)}
        big = small | extra
        assert coalescence_number(_support_of(big)) <= coalescence_number(
            _support_of(small)
        )
        assert coalescing_pairs(_support_of(small)) <= coalescing_pairs(
            _support_of(big)
        )


def test_relabel_equivariance():
    # conjugating every generator by a permutation preserves k
    rng = random.Random(76)
    for _ in range(60):
        n = rng.randint(2, 5)
        images = list(
            {tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        )
        sigma = MapFunction(oracles.random_permutation_image(rng, n))
        inv = MapFunction(tuple(sigma.image.index(v) for v in range(n)))
        conj = [compose(sigma, compose(MapFunction(t), inv)) for t in images]
        assert coalescence_number(_support_of(images)) == coalescence_number(
            Support.of(conj)
        )
