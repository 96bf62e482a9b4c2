import itertools
import json
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coalesce import (
    BlockCoupling,
    CouplingFormatError,
    DimensionMismatch,
    ExplicitCoupling,
    ExplicitPermLaw,
    MapFunction,
    Partition,
    StochasticMatrix,
    SupportTooLarge,
    UniformPermLaw,
    allowed_functions,
    coalescing_pairs,
    construct_block_measure,
    doeblin_coupling,
    expand_support,
    feasible_weights,
    is_consistent,
    parse_coupling,
    permutation_coupling,
    resum_mismatches,
    serialize_coupling,
    to_explicit,
    uniform_divisor_coupling,
)
from coalesce.coupling import _pick, _sampling_table

H = Fraction(1, 2)


def test_quarter_coupling_induces_cycle_walk(quarter_coupling, ex11):
    assert is_consistent(quarter_coupling, ex11)
    assert not is_consistent(quarter_coupling, StochasticMatrix.identity(4))
    assert not is_consistent(quarter_coupling, StochasticMatrix.uniform(4))


def test_weights_must_be_positive_and_sum_to_one():
    one2 = MapFunction.from_notation("12")
    two1 = MapFunction.from_notation("21")
    with pytest.raises(CouplingFormatError):
        ExplicitCoupling.from_pairs([(one2, Fraction(1)), (two1, Fraction(0))])
    with pytest.raises(CouplingFormatError):
        ExplicitCoupling.from_pairs([(one2, H)])
    with pytest.raises(CouplingFormatError):
        ExplicitCoupling.from_pairs([(one2, Fraction(3, 2)), (two1, Fraction(-1, 2))])


def test_duplicate_functions_rejected():
    one2 = MapFunction.from_notation("12")
    with pytest.raises(CouplingFormatError):
        ExplicitCoupling.from_pairs([(one2, H), (one2, H)])


def test_doeblin_product_coupling(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    assert isinstance(mu, ExplicitCoupling)
    assert mu.support_size() == 8
    assert all(w == Fraction(1, 8) for _, w in mu.iter_terms())
    assert is_consistent(mu, ex10)


def test_doeblin_lazy_form(ex10):
    mu = doeblin_coupling(ex10)
    assert isinstance(mu, BlockCoupling)
    assert mu.partition == Partition.single_block(3)
    assert is_consistent(mu, ex10)
    # both forms carry the product law: weight prod_i P[i][f(i)] on every
    # allowed map f, computed here from the rows alone
    rng = random.Random(14)
    matrices = [ex10.entries] + [oracles.random_stochastic(rng, n) for n in (2, 3, 4, 4)]
    for rows in matrices:
        P = StochasticMatrix(tuple(tuple(row) for row in rows))
        expected = sorted(
            (image, prod(rows[i][j] for i, j in enumerate(image)))
            for image in oracles.allowed_images(rows)
        )
        lazy = doeblin_coupling(P)
        for form in (lazy, to_explicit(lazy)):
            assert sorted((f.image, w) for f, w in form.iter_terms()) == expected
            assert form.support_size() == len(expected)
        assert sorted(f.image for f in expand_support(lazy)) == [i for i, _ in expected]


def test_support_cap_boundary(ex10, quarter_coupling):
    # the cap admits exactly cap support functions, for both forms
    with pytest.raises(SupportTooLarge):
        to_explicit(doeblin_coupling(ex10), cap=7)
    assert to_explicit(doeblin_coupling(ex10), cap=8).support_size() == 8
    with pytest.raises(SupportTooLarge):
        expand_support(quarter_coupling, cap=3)
    assert len(expand_support(quarter_coupling, cap=4)) == 4


def test_expand_support_cap_checks_the_permutation_count_first(monkeypatch):
    # 6! = 720 block permutations, one map each: past cap 719 on the count
    # of permutations alone, before the law is read or a map is built
    mu = uniform_divisor_coupling(6, 6)

    def unread(law, blocks):
        raise AssertionError("the law was read past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(UniformPermLaw, "image_law", unread)
        with pytest.raises(SupportTooLarge, match="720"):
            expand_support(mu, cap=719)
    assert len(expand_support(mu, cap=720)) == 720


def test_permutation_coupling_of_doubly_stochastic(ex10):
    mu = permutation_coupling(ex10)
    assert is_consistent(mu, ex10)
    terms = sorted((f.to_notation(), w) for f, w in mu.iter_terms())
    assert terms == [("123", H), ("231", H)]
    assert all(f.is_permutation() for f, _ in mu.iter_terms())


def test_uniform_divisor_coupling_support():
    mu = uniform_divisor_coupling(4, 2)
    assert is_consistent(mu, StochasticMatrix.uniform(4))
    # 2 block permutations, and 2 choices inside each of 2 blocks per source
    # block: the expanded support multiplies out to 32 distinct functions
    assert len(expand_support(mu)) == 32
    ex = to_explicit(mu)
    assert ex.support_size() == 32
    assert is_consistent(ex, StochasticMatrix.uniform(4))


def test_uniform_divisor_coupling_rejects_non_divisor():
    from coalesce import NotADivisor

    with pytest.raises(NotADivisor):
        uniform_divisor_coupling(4, 3)


def test_expand_support_cap():
    mu = uniform_divisor_coupling(4, 2)
    with pytest.raises(SupportTooLarge):
        expand_support(mu, cap=5)


def test_block_coupling_explicit_law(ex11):
    partition = Partition.parse("1,3|2,4")
    law = ExplicitPermLaw(terms=(((0, 1), H), ((1, 0), H)))
    # every state can land in either block; send it to that block's minimum
    point = {0: ((0, Fraction(1)),), 1: ((1, Fraction(1)),)}
    within = tuple(
        ((0, point[0]), (1, point[1])) for _ in range(4)
    )
    # not necessarily consistent with ex11; this just exercises the container
    mu = BlockCoupling(partition=partition, law=law, within=within)
    assert mu.n == 4
    # the law's two permutations, read on both blocks, and state 3 (in the
    # first block) following each of them into the other block's minimum
    assert [(w, list(t)) for w, t in mu.law.image_law((0, 1))] == [(H, [0, 1]), (H, [1, 0])]
    assert [(w, list(d)) for w, d in mu.image_law((2,))] == [(H, [point[0]]), (H, [point[1]])]


def test_serialize_roundtrip_explicit(quarter_coupling):
    text = serialize_coupling(quarter_coupling)
    doc = json.loads(text)
    assert doc["n"] == 4
    assert {t["map"] for t in doc["functions"]} == {"1234", "1331", "2244", "2341"}
    back = parse_coupling(text)
    assert isinstance(back, ExplicitCoupling)
    assert back.terms == quarter_coupling.terms


def test_serialize_roundtrip_block():
    mu = uniform_divisor_coupling(6, 3)
    text = serialize_coupling(mu)
    doc = json.loads(text)
    assert doc["block_perms"] == "uniform"
    back = parse_coupling(text)
    assert isinstance(back, BlockCoupling)
    assert back.partition == mu.partition
    assert isinstance(back.law, UniformPermLaw)
    assert expand_support(back) == expand_support(mu)


def test_parse_coupling_rejects_malformed():
    with pytest.raises(CouplingFormatError):
        parse_coupling("{}")
    with pytest.raises(CouplingFormatError):
        parse_coupling(json.dumps({"n": 2, "functions": []}))
    with pytest.raises(CouplingFormatError):
        parse_coupling(
            json.dumps(
                {"n": 2, "functions": [{"map": "12", "weight": "1/2"}]}
            )
        )


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"n": True, "functions": [{"map": "1", "weight": "1"}]}, "'n'"),
        ({"n": 1, "functions": [{"map": "1", "weight": "1"}], "extra": 0}, "'extra'"),
        ({"n": 2, "functions": [{"map": "12", "weight": "1", "w": 1}]}, "'w'"),
        (
            {"n": 2, "partition": [[1, 2]], "block_perms": "uniform",
             "within": [{"x": {"1": "1"}}, {"1": {"1": "1"}}]},
            "state 1: block key",
        ),
        (
            {"n": 2, "partition": [[1, 2]], "block_perms": "uniform",
             "within": [{"1": {"1": "1"}}, {"1": {"01": "1"}}]},
            "state 2, block 1: target state",
        ),
        (
            {"n": 2, "partition": [[1, 1], [2]], "block_perms": "uniform",
             "within": [{"1": {"1": "1"}}, {"2": {"2": "1"}}]},
            "state 1 appears twice",
        ),
        (
            {"n": 2, "partition": [[1.0, 2.0]], "block_perms": "uniform",
             "within": [{"1": {"1": "1"}}, {"1": {"1": "1"}}]},
            "partition block 1",
        ),
        (
            {"n": 2, "partition": [[1], [2]], "block_perms": [{"perm": [1], "weight": "1"}],
             "within": [{"1": {"1": "1"}}, {"2": {"2": "1"}}]},
            "block permutation entry 1",
        ),
        ({"n": 2, "functions": [{"map": "12", "weight": 0.5}, {"map": "21", "weight": "1/2"}]},
         "function entry 1"),
    ],
)
def test_parse_coupling_names_the_fault(doc, named):
    with pytest.raises(CouplingFormatError, match=named):
        parse_coupling(json.dumps(doc))


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["1", "2", "1/2", "0", "-1", "01", "x", "uniform"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_VALID = [
    json.loads(serialize_coupling(mu))
    for mu in (
        uniform_divisor_coupling(4, 2),
        doeblin_coupling(StochasticMatrix.uniform(2)),
        to_explicit(doeblin_coupling(StochasticMatrix.uniform(2))),
        permutation_coupling(StochasticMatrix.uniform(3)),
    )
]


_DELETE = object()


def _replace(doc, path, value):
    """doc with the node at path (a list of keys or indices) replaced, or
    deleted when value is the sentinel _DELETE."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if rest or value is not _DELETE:
        out[head] = _replace(out[head], rest, value)
    else:
        del out[head]
    return out


@st.composite
def _mutated_documents(draw):
    doc = draw(st.sampled_from(_VALID))
    for _ in range(draw(st.integers(1, 2))):
        path, node = [], doc
        while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            path.append(key)
            node = node[key]
        doc = _replace(doc, path, draw(_JSON | st.just(_DELETE)))
    if draw(st.integers(0, 3)) == 0:
        doc = {**doc, draw(st.text(max_size=4)): draw(_JSON)}
    return doc


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_mutated_documents() | _JSON)
def test_parse_coupling_accepts_or_names_the_fault(doc):
    # any JSON document parses to a coupling or raises CouplingFormatError
    try:
        mu = parse_coupling(json.dumps(doc))
    except CouplingFormatError:
        return
    assert parse_coupling(serialize_coupling(mu)) == mu


def _weights(draw, count: int) -> list[Fraction]:
    raw = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    return [Fraction(w, sum(raw)) for w in raw]


@st.composite
def _couplings(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        images = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), min_size=1,
                               max_size=5, unique=True))
        return ExplicitCoupling.from_pairs(zip(map(MapFunction, images), _weights(draw, len(images))))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = Partition.from_blocks(
        [i for i in range(n) if labels[i] == b] for b in sorted(set(labels))
    )
    l = partition.size
    if draw(st.booleans()):
        law = UniformPermLaw(l)
        reach = [set(range(l))] * l
    else:
        perms = draw(st.lists(st.permutations(range(l)).map(tuple), min_size=1, max_size=3,
                              unique=True))
        law = ExplicitPermLaw(tuple(zip(perms, _weights(draw, len(perms)))))
        reach = [{p[r] for p in perms} for r in range(l)]
    block_of = partition.block_of()
    within = []
    for i in range(n):
        entry = []
        for s in sorted(reach[block_of[i]]):
            targets = draw(st.lists(st.sampled_from(sorted(partition.blocks[s])), min_size=1,
                                    unique=True))
            entry.append((s, tuple(zip(sorted(targets), _weights(draw, len(targets))))))
        within.append(tuple(entry))
    return BlockCoupling(partition, law, tuple(within))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_couplings())
def test_serialize_parse_roundtrip_property(mu):
    assert parse_coupling(serialize_coupling(mu)) == mu


def test_sample_image_matches_support(quarter_coupling):
    rng = random.Random(5)
    seen = set()
    for _ in range(200):
        img = quarter_coupling.sample_image(rng)
        seen.add(img)
        assert MapFunction(img) in quarter_coupling.support()
    assert len(seen) == 4


def test_block_sample_image_consistent():
    mu = uniform_divisor_coupling(4, 2)
    sup = {f.image for f in expand_support(mu)}
    rng = random.Random(6)
    for _ in range(100):
        assert mu.sample_image(rng) in sup


def test_one_outcome_draw_leaves_generator_untouched():
    # a law with one outcome needs no randomness, so it reads no bits
    rng = random.Random(7)
    before = rng.getstate()
    assert _pick(rng, _sampling_table([("only", Fraction(1))])) == "only"
    assert rng.getstate() == before
    # the identity chain's product coupling has one outcome at every level
    assert to_explicit(doeblin_coupling(StochasticMatrix.identity(3))).sample_image(rng) == (0, 1, 2)
    assert rng.getstate() == before
    # two outcomes do draw
    _pick(rng, _sampling_table([("a", H), ("b", H)]))
    assert rng.getstate() != before


def _law_over(rng, den, count):
    """count weights (as i, weight pairs) whose common denominator is
    exactly den: one weight is 1/den. Half the other thresholds crowd into
    a sliver of [0, den), so that a guide bucket holds several of them."""
    if den == 1:
        return [(0, Fraction(1))]
    cuts = {1}
    lo = rng.randrange(1, den)
    hi = min(den, lo + max(2, den // (64 * count)))
    while len(cuts) < count - 1:
        cuts.add(rng.randrange(lo, hi) if rng.randrange(2) else rng.randrange(1, den))
    edges = [0] + sorted(cuts) + [den]
    return [(i, Fraction(b - a, den)) for i, (a, b) in enumerate(zip(edges, edges[1:]))]


def test_exact_draws_read_the_generator_as_randrange():
    # _pick, bare and through ExplicitCoupling.sample_image, draws what one
    # randrange(den) per draw gives and leaves the generator in the same
    # state: at den = 1 (no draw), at powers of two (half of all words
    # rejected) and at den up to 10^40 (several thresholds to a bucket)
    rng = random.Random(97)
    dens = [1, 2, 4, 8, 2**10, 2**64, 3, 6, 10**6 + 3, 10**40]
    dens += [rng.randrange(2, 10**rng.randint(2, 40)) for _ in range(30)]
    crowded = 0
    for den in dens:
        count = 1 if den == 1 else rng.randint(2, min(den, 81))
        law = _law_over(rng, den, count)
        table = _sampling_table(law)
        den_, k, shift, guide, cum, payloads = table
        assert (den_, k) == (den, den.bit_length())
        assert len(guide) <= 4 * count
        crowded += any(b - a >= 3 for a, b in zip(guide, guide[1:]))
        images = [tuple((x // 3**i) % 3 for i in range(4)) for x in rng.sample(range(81), count)]
        mu = ExplicitCoupling.from_pairs((MapFunction(img), w) for img, (_, w) in zip(images, law))
        mu_law = [(f.image, w) for f, w in mu.terms]
        seed = rng.getrandbits(32)
        for ours_draw, oracle_law in ((lambda r: _pick(r, table), law), (mu.sample_image, mu_law)):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(100):
                assert ours_draw(ours) == oracles._oracle_draw(theirs, oracle_law)
            assert ours.getstate() == theirs.getstate()
    assert crowded >= 10


def _random_weights(rng, count):
    raw = [rng.randint(1, 4) for _ in range(count)]
    return [Fraction(w, sum(raw)) for w in raw]


def test_block_draws_match_the_per_state_lookup_oracle():
    # sample_image draws the same images as the oracle's lookup per state,
    # and leaves the generator in the same state, under both law kinds
    rng = random.Random(83)
    for c in range(300):
        n = 1 + c % 6
        uniform = c % 2 == 0
        blocks, perms, within = oracles.random_block_structure(rng, n, uniform)
        law_terms = None if perms is None else list(zip(perms, _random_weights(rng, len(perms))))
        dists = [
            {s: list(zip(js, _random_weights(rng, len(js)))) for s, js in entry.items()}
            for entry in within
        ]
        mu = BlockCoupling(
            Partition.from_blocks(blocks),
            UniformPermLaw(len(blocks)) if uniform else ExplicitPermLaw(tuple(law_terms)),
            tuple(tuple(sorted((s, tuple(d)) for s, d in entry.items())) for entry in dists),
        )
        block_of = mu.partition.block_of()
        seed = rng.getrandbits(32)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert mu.sample_image(ours) == oracles.oracle_block_image(theirs, block_of, law_terms, dists)
        assert ours.getstate() == theirs.getstate()


def _pushforward(mixture):
    """The summed law of a (weight, dists) mixture of product laws."""
    law = {}
    for w, dists in mixture:
        for combo in itertools.product(*dists):
            key = tuple(j for j, _ in combo)
            law[key] = law.get(key, 0) + w * prod(v for _, v in combo)
    return law


def test_image_law_matches_brute_force():
    # image_law on random block couplings, in block and explicit form, against
    # the pushforward of their terms; the pairs and marginals it feeds against
    # the brute-force pairs of the support images and a resum of the terms
    rng = random.Random(16)
    oracle_checked = 0
    for c in range(240):
        n = 1 + c % 6
        uniform = c % 2 == 0
        blocks, perms, within = oracles.random_block_structure(rng, n, uniform)
        if uniform:
            law = UniformPermLaw(len(blocks))
        else:
            law = ExplicitPermLaw(tuple(zip(perms, _random_weights(rng, len(perms)))))
        dists = tuple(
            tuple((s, tuple(zip(js, _random_weights(rng, len(js))))) for s, js in sorted(e.items()))
            for e in within
        )
        block = BlockCoupling(Partition.from_blocks(blocks), law, dists)
        images = oracles.block_support_images(blocks, perms, within)
        pairs = None
        if len(images) <= 64:
            pairs = oracles.oracle_coalescing_pairs(images)
            oracle_checked += 1
        for mu in (block, to_explicit(block)):
            terms = list(mu.iter_terms())
            for _ in range(3):
                states = rng.sample(range(n), rng.randint(1, min(3, n)))
                expected = {}
                for f, w in terms:
                    key = tuple(f.image[x] for x in states)
                    expected[key] = expected.get(key, 0) + w
                assert _pushforward(mu.image_law(states)) == expected
            resum = [[Fraction(0)] * n for _ in range(n)]
            for f, w in terms:
                for i in range(n):
                    resum[i][f.image[i]] += w
            assert is_consistent(mu, StochasticMatrix.from_rows(resum))
            if pairs is not None:
                assert coalescing_pairs(mu) == pairs
    assert oracle_checked >= 150


def _moved_mass(rng, rows):
    """rows with a share of one positive entry moved to another entry of
    the same row, the row drawn at random."""
    rows = [list(row) for row in rows]
    i = rng.randrange(len(rows))
    j = rng.choice([j for j, v in enumerate(rows[i]) if v > 0])
    k = rng.choice([k for k in range(len(rows)) if k != j])
    moved = rows[i][j] * Fraction(rng.randint(1, 5), rng.choice((5, 7)))
    rows[i][j] -= moved
    rows[i][k] += moved
    return rows


def _resum_panel(rng):
    """(coupling, P) with the coupling consistent with P: product couplings
    of mixed-denominator matrices in both forms, block measures of lumpable
    matrices, divisor couplings, and simplex witnesses with a weight whose
    denominator does not divide P.scaled's."""
    for c in range(24):
        P = StochasticMatrix.from_rows(oracles.random_stochastic_denominators(rng, 2 + c % 3, (2, 3, 7, 9)))
        for mu in (doeblin_coupling(P), to_explicit(doeblin_coupling(P))):
            yield mu, P
    for c in range(24):
        blocks, rows = oracles.random_lumpable(rng, 2 + c % 4, doubly_stochastic=True)
        P = StochasticMatrix.from_rows(rows)
        yield construct_block_measure(P, Partition.from_blocks(blocks)), P
    for n, l in ((2, 1), (3, 3), (4, 1), (4, 2), (4, 4), (6, 2), (6, 3), (6, 6)):
        yield uniform_divisor_coupling(n, l), StochasticMatrix.uniform(n)
    witnesses = 0
    while witnesses < 24:
        n = 3 + witnesses // 18  # a 4-state witness costs a simplex per allowed map
        P = StochasticMatrix.from_rows(oracles.random_stochastic_denominators(rng, n, (2, 3, 5)))
        mu = feasible_weights(P, allowed_functions(P)).as_coupling()
        if any(P.scaled[0] % w.denominator for _, w in mu.terms):
            witnesses += 1
            yield mu, P


def test_resum_mismatches_match_the_fraction_oracle():
    # cells, values and order against Fraction sums from the definition,
    # against each coupling's own P and against P with mass moved in a row
    rng = random.Random(31)
    for mu, P in _resum_panel(rng):
        terms = [(f.image, w) for f, w in mu.iter_terms()]
        assert resum_mismatches(mu, P) == oracles.oracle_resum(terms, P.entries) == []
        moved = _moved_mass(rng, P.entries)
        want = oracles.oracle_resum(terms, moved)
        assert resum_mismatches(mu, StochasticMatrix.from_rows(moved)) == want
        assert len(want) == 2
    with pytest.raises(DimensionMismatch, match="coupling is on 3 states, matrix on 2"):
        resum_mismatches(uniform_divisor_coupling(3, 3), StochasticMatrix.uniform(2))
