import random
from fractions import Fraction
from itertools import combinations

import pytest

import oracles
from coalesce import (
    ClosureTooLarge,
    ExplicitCoupling,
    MapFunction,
    Partition,
    StochasticMatrix,
    Support,
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
    uniform_divisor_coupling,
)


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


def test_closure_contains_generators_and_is_closed(ex7_support):
    elements = set(close(ex7_support))
    for f in ex7_support:
        assert f in elements
        for g in elements:
            assert compose(f, g) in elements


def _with_redundant_products(rng, images):
    """images plus up to three composites of them, so that the closure
    meets generators it has already generated."""
    images = set(images)
    for _ in range(rng.randint(1, 3)):
        f, g = rng.choice(sorted(images)), rng.choice(sorted(images))
        images.add(oracles.compose_images(f, g))
    return images


def test_closure_matches_oracle(ex7_support):
    rng = random.Random(77)
    supports = [ex7_support]
    for _ in range(40):
        n = rng.randint(2, 5)
        count = rng.randint(1, 3)
        supports.append(
            _support_of({tuple(rng.randrange(n) for _ in range(n)) for _ in range(count)})
        )
    for i in range(150):
        n = rng.randint(2, 5)
        if i % 2:  # permutation-heavy
            base = [oracles.random_permutation_image(rng, n) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                base.append(tuple(rng.randrange(n) for _ in range(n)))
        else:
            base = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        supports.append(_support_of(_with_redundant_products(rng, base)))
    supports.append(_support_of([(0,)]))
    for sup in supports:
        elements = close(sup)
        gens = sup.sorted_functions()
        # the generators come first, in sorted order, then discovery order
        assert elements[: len(gens)] == gens
        assert len(set(elements)) == len(elements)
        assert {f.image for f in elements} == oracles.word_closure([g.image for g in gens])


@pytest.mark.parametrize("n, l", [(4, 1), (4, 2), (4, 4), (5, 5), (6, 2), (6, 3), (6, 6)])
def test_divisor_coupling_support_is_closed(n, l):
    # a block coupling's support is every map that permutes the blocks, so
    # it is its own closure, and the least-rank maps glue exactly the blocks
    mu = uniform_divisor_coupling(n, l)
    sup = expand_support(mu)
    assert set(close(sup)) == set(sup)
    assert limiting_partitions(sup) == frozenset({mu.partition})


def test_single_permutation_closure():
    cyc = MapFunction.from_notation("231")
    elements = close(Support.of([cyc]))
    assert len(elements) == 3
    assert {f.image_size() for f in elements} == {3}
    assert coalescence_number(Support.of([cyc])) == 3


def test_constant_generator_coalesces():
    sup = Support.of([MapFunction.constant(4, 1)])
    assert coalescence_number(sup) == 1
    assert limiting_partitions(sup) == frozenset({Partition.single_block(4)})


def test_closure_cap():
    # 3 random functions on 6 states blow past a closure cap of 4
    rng = random.Random(1)
    images = {tuple(rng.randrange(6) for _ in range(6)) for _ in range(3)}
    with pytest.raises(ClosureTooLarge):
        close(_support_of(images), max_size=4)
    with pytest.raises(ClosureTooLarge):
        coalescence_number(_support_of(images), max_closure=4)


def test_closure_cap_boundary():
    # the cap is exact: a closure of exactly max_size elements fits
    rng = random.Random(2)
    images = {tuple(rng.randrange(5) for _ in range(5)) for _ in range(3)}
    sup = _support_of(images)
    # the transposition (1 2) and the shift generate S_5, and with a rank-4
    # map all 3,125 maps; their composite is a permutation sorting after
    # both, so close has generated it before it comes to it, and skips it
    swap, shift, merge = (1, 0, 2, 3, 4), (1, 2, 3, 4, 0), (0, 0, 2, 3, 4)
    product = oracles.compose_images(shift, swap)
    assert swap < shift < product
    skipping = _support_of([swap, shift, product, merge])
    assert len(close(skipping)) == 5**5
    for s in (sup, skipping):
        size = len(close(s))
        assert len(close(s, max_size=size)) == size
        with pytest.raises(ClosureTooLarge):
            close(s, max_size=size - 1)
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
    assert coalescence_number(sup) == 2
    assert coalescing_pairs(sup) == {
        frozenset(p) for p in combinations(range(12), 2) if (p[0] - p[1]) % 2 == 0
    }


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
