"""Grand couplings: probability measures on maps of the state set.

A grand coupling assigns one random image to every state simultaneously; it
is consistent with a transition matrix P when the per-state marginals match
P's rows. Two storage forms are supported:

* ExplicitCoupling: a finite list of (function, weight) terms.
* BlockCoupling: a partition of the states, a law on block permutations, and
  per-state conditional distributions inside the permuted target block.

The block form can describe supports far too large to enumerate (for example
a uniform law over all l! block permutations), while still allowing exact
marginal computations and exact sampling. Its within-distributions come
from a document (parse_coupling) or from a matrix (BlockCoupling.conditioned).

Both forms hand over their structure through one primitive,
image_law(states): the law of (f(x) for x in states), for distinct states,
as a finite mixture of product laws, an iterable of (weight, dists) with
dists[c] the (target, weight) distribution of states[c]. The explicit form
yields one point mass per term; the block form one component per outcome of
its law's image_law(blocks), with the states' within-distributions (given
the block permutation, states move independently). coalescing_pairs reads
its pairs from the components' supports and resum_mismatches sums row i
from image_law((i,)), so neither expands the support.

The support is read from image_law(range(n)) too. On all states the
components carry disjoint sets of maps (a term each, or a block permutation
each), and a component's maps are the product of its states' supports. So
support(), support_size(cap) and iter_terms() have one body each, and each
form reports only component_count(), which support_size(cap) checks before
it reads anything: every component carries at least one map.

JSON schema (states, blocks and map notation are 1-based):

    {"n": 4, "functions": [{"map": "3434", "weight": "1/4"}, ...]}

    {"n": 4,
     "partition": [[1, 2], [3, 4]],
     "block_perms": [{"perm": [2, 1], "weight": "1"}, ...]   (or "uniform"),
     "within": [{"2": {"3": "1/2", "4": "1/2"}}, ...]}

"within" lists one object per state; keys are target block indices, values
map target states to weights. Zero-weight entries are rejected everywhere,
and so are unknown keys; parse_coupling raises CouplingFormatError, naming
the key, entry or state, for every malformed document.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod
from operator import itemgetter

from .birkhoff import birkhoff_decomposition
from .errors import (
    CouplingFormatError,
    DimensionMismatch,
    MalformedRational,
    NotationError,
    SupportTooLarge,
)
from .mapfun import MapFunction, Partition, Support
from .matrix import StochasticMatrix
from .rational import format_rational, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_SUPPORT_CAP = 10**6


def _sampling_table(pairs):
    """An exact inverse-CDF sampling table with a guide (Chen and Asau's
    indexed search).

    pairs is a sequence of (payload, Fraction weight) with weights summing to
    one. Returns (den, k, shift, guide, cum, payloads): den is the common
    denominator, k = den.bit_length(), cum the cumulative integer thresholds,
    and guide[b] the index of the first threshold above b << shift, where
    shift is the least for which the guide has at most 4 * len(payloads)
    entries, whatever den is.
    """
    weights = [w for _, w in pairs]
    den = lcm(*(w.denominator for w in weights))
    cum = list(itertools.accumulate(int(w * den) for w in weights))
    shift = 0
    while (den - 1) >> shift >= 4 * len(cum):
        shift += 1
    guide = []
    i = 0
    for b in range(((den - 1) >> shift) + 1):
        while cum[i] <= b << shift:
            i += 1
        guide.append(i)
    return den, den.bit_length(), shift, guide, cum, [p for p, _ in pairs]


def _pick(rng, table):
    """One payload of a _sampling_table, drawn exactly.

    The draw rule: read k-bit words, k = den.bit_length(), from
    rng.getrandbits until one, r, is below den; r is then uniform on
    [0, den), and the payload is the first whose threshold exceeds r, found
    by a short search from guide[r >> shift]. This reads the generator word
    for word as random.randrange(den) does. A table with den == 1 has one
    outcome and draws nothing. BlockCoupling.sample_image inlines this rule
    for a row of tables, so a change to it changes both; the randrange and
    per-state lookup oracle tests in tests/test_coupling.py pin each copy on
    its own. One shared row loop, with this as its one-table case, drew the
    same words but made the sampling benchmark's wall_s 10% slower
    (0.506 -> 0.558 s, six pairs on a 2-vCPU host), as every explicit draw and
    every explicit block-law permutation then pays for a loop and a list.
    """
    den, k, shift, guide, cum, payloads = table
    if den == 1:
        return payloads[0]
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= den:
        r = getrandbits(k)
    i = guide[r >> shift]
    while cum[i] <= r:
        i += 1
    return payloads[i]


class _Coupling:
    """What both coupling forms read from their image_law."""

    def support(self) -> Support:
        """The support maps: per component of image_law on all states, the
        product of the states' targets."""
        return Support.of(
            MapFunction(image)
            for _, dists in self.image_law(range(self.n))
            for image in itertools.product(*([j for j, _ in dist] for dist in dists))
        )

    def support_size(self, cap: int | None = None) -> int:
        """Number of support maps; stops early past cap when given, on the
        component count before any component is read."""
        count = self.component_count()
        if cap is not None and count > cap:
            return count  # already past cap, each component carries a map
        total = 0
        for _, dists in self.image_law(range(self.n)):
            total += prod(map(len, dists))
            if cap is not None and total > cap:
                break
        return total

    def iter_terms(self):
        """Yield (map, weight) over the whole support. May be huge."""
        for w, dists in self.image_law(range(self.n)):
            for combo in itertools.product(*dists):
                yield MapFunction(tuple(j for j, _ in combo)), w * prod(v for _, v in combo)


@dataclass(frozen=True)
class ExplicitCoupling(_Coupling):
    """A grand coupling given by explicit (function, weight) terms."""

    terms: tuple[tuple[MapFunction, Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise CouplingFormatError("a coupling needs at least one function")
        n = self.terms[0][0].n
        seen = set()
        total = _ZERO
        for f, w in self.terms:
            if f.n != n:
                raise DimensionMismatch("mixed state-set sizes in coupling")
            if f in seen:
                raise CouplingFormatError(f"duplicate function {f.to_notation()}")
            seen.add(f)
            if w <= 0:
                raise CouplingFormatError("weights must be strictly positive")
            total += w
        if total != 1:
            raise CouplingFormatError(f"weights sum to {total}, expected 1")
        if list(self.terms) != sorted(self.terms, key=lambda t: t[0]):
            raise CouplingFormatError("terms must be sorted by function")

    @classmethod
    def from_pairs(cls, pairs) -> "ExplicitCoupling":
        return cls(tuple(sorted(((f, Fraction(w)) for f, w in pairs), key=lambda t: t[0])))

    @property
    def n(self) -> int:
        return self.terms[0][0].n

    def component_count(self) -> int:
        return len(self.terms)

    def image_law(self, states):
        """One point-mass component per term, in support order; lazy, so a
        pair search stops reading at the first map that merges a pair."""
        return ((w, [((f.image[x], _ONE),) for x in states]) for f, w in self.terms)

    @cached_property
    def _table(self):
        return _sampling_table([(f.image, w) for f, w in self.terms])

    def sample_image(self, rng) -> tuple[int, ...]:
        return _pick(rng, self._table)


@dataclass(frozen=True)
class ExplicitPermLaw:
    """A finitely supported law on permutations of the block indices."""

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if not self.terms:
            raise CouplingFormatError("block permutation law needs at least one term")
        l = len(self.terms[0][0])
        total = _ZERO
        seen = set()
        for perm, w in self.terms:
            if sorted(perm) != list(range(l)):
                raise CouplingFormatError(f"not a block permutation: {perm}")
            if perm in seen:
                raise CouplingFormatError("duplicate block permutation")
            seen.add(perm)
            if w <= 0:
                raise CouplingFormatError("block permutation weights must be positive")
            total += w
        if total != 1:
            raise CouplingFormatError(f"block permutation weights sum to {total}")

    @property
    def l(self) -> int:
        return len(self.terms[0][0])

    def support_count(self) -> int:
        return len(self.terms)

    def image_law(self, blocks):
        """The law of (perm[b] for b in blocks): (weight, targets), one per
        term."""
        return ((w, [perm[b] for b in blocks]) for perm, w in self.terms)


@dataclass(frozen=True)
class UniformPermLaw:
    """The uniform law over all l! permutations of the block indices.

    Stored structurally so that couplings built on it stay exact even when
    l! is far beyond enumeration.
    """

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise CouplingFormatError("need at least one block")

    def support_count(self) -> int:
        return factorial(self.l)

    def image_law(self, blocks):
        """The law of (perm[b] for b in blocks): (weight, targets), one per
        injection of the d distinct blocks into the l blocks, each of weight
        (l - d)!/l!, never the l! permutations."""
        slot = {b: c for c, b in enumerate(dict.fromkeys(blocks))}
        at = [slot[b] for b in blocks]
        w = Fraction(factorial(self.l - len(slot)), factorial(self.l))
        injections = itertools.permutations(range(self.l), len(slot))
        if len(slot) < len(at):  # a repeated block: read each block's slot
            injections = map(itemgetter(*at), injections)
        return zip(itertools.repeat(w), injections)

    def sample(self, rng) -> tuple[int, ...]:
        perm = list(range(self.l))
        rng.shuffle(perm)
        return tuple(perm)


@dataclass(frozen=True)
class BlockCoupling(_Coupling):
    """A grand coupling with block structure.

    A block permutation Pi is drawn from `law`; conditionally on Pi each
    state i in block r picks its image inside block Pi(r), independently
    across states, from the stored within-distribution.

    within[i] is a tuple of (target_block, distribution) pairs sorted by
    target block, where distribution is a tuple of (state, weight) pairs.
    Every target block reachable under the law must carry a distribution,
    and no unreachable block may carry one.
    """

    partition: Partition
    law: ExplicitPermLaw | UniformPermLaw
    within: tuple[tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...], ...]

    def __post_init__(self):
        n = self.partition.n
        l = self.partition.size
        if self.law.l != l:
            raise DimensionMismatch("law and partition disagree on block count")
        if len(self.within) != n:
            raise CouplingFormatError("within must list one entry per state")
        block_of = self.partition.block_of()
        reachable = [{t for _, (t,) in self.law.image_law((r,))} for r in range(l)]
        for i, entry in enumerate(self.within):
            blocks_here = [s for s, _ in entry]
            if blocks_here != sorted(blocks_here) or len(set(blocks_here)) != len(blocks_here):
                raise CouplingFormatError("within entries must be sorted by target block")
            allowed = reachable[block_of[i]]
            if set(blocks_here) != allowed:
                raise CouplingFormatError(
                    f"state {i + 1}: within blocks {sorted(b + 1 for b in blocks_here)} "
                    f"do not match reachable blocks {sorted(b + 1 for b in allowed)}"
                )
            for s, dist in entry:
                if not dist:
                    raise CouplingFormatError("empty within-distribution")
                total = _ZERO
                for j, w in dist:
                    if j not in self.partition.blocks[s]:
                        raise CouplingFormatError(
                            f"state {i + 1} targets {j + 1} outside block {s + 1}"
                        )
                    if w <= 0:
                        raise CouplingFormatError("within weights must be positive")
                    total += w
                if total != 1:
                    raise CouplingFormatError(
                        f"within-distribution of state {i + 1} into block {s + 1} "
                        f"sums to {total}"
                    )

    @classmethod
    def conditioned(cls, P: StochasticMatrix, partition: Partition, law) -> BlockCoupling:
        """within[i] pairs each block s with P(i, B_s) > 0, in block order,
        with (j, P(i, j) / P(i, B_s)) over the j in B_s with P(i, j) > 0, in
        state order: P's row conditioned on B_s. The marginals are P's rows
        when law sends block r to s with chance P(i, B_s) for i in B_r."""
        if partition.n != P.n:
            raise DimensionMismatch(f"partition covers {partition.n} states, matrix has {P.n}")
        blocks = [sorted(b) for b in partition.blocks]
        within = []
        for a in P.scaled[1]:  # integer masses: a[j] = den * P(i, j) for one den
            entry = []
            for s, blk in enumerate(blocks):
                mass = sum(a[j] for j in blk)
                if mass:
                    entry.append((s, tuple((j, Fraction(a[j], mass)) for j in blk if a[j])))
            within.append(tuple(entry))
        return cls(partition, law, tuple(within))

    @property
    def n(self) -> int:
        return self.partition.n

    @cached_property
    def _block_of(self) -> tuple[int, ...]:
        return self.partition.block_of()

    @cached_property
    def _within_maps(self) -> tuple[dict[int, tuple[tuple[int, Fraction], ...]], ...]:
        return tuple({s: dist for s, dist in entry} for entry in self.within)

    def image_law(self, states):
        """One component per outcome of the law on the states' blocks, with
        each state's within-distribution in its target block."""
        maps = [self._within_maps[x] for x in states]
        targets_law = self.law.image_law([self._block_of[x] for x in states])
        return ((w, list(map(dict.__getitem__, maps, targets))) for w, targets in targets_law)

    def component_count(self) -> int:
        return self.law.support_count()

    @cached_property
    def _state_tables(self):
        # per state: its block, and the sampling table of its move into each
        # target block
        return tuple(
            (self._block_of[i], {s: _sampling_table(dist) for s, dist in entry})
            for i, entry in enumerate(self.within)
        )

    def _row(self, perm: tuple[int, ...]):
        """Every state's sampling table once the block permutation is perm."""
        return tuple([tables[perm[r]] for r, tables in self._state_tables])

    @cached_property
    def _law_rows(self):
        """An explicit law's sampling table with each block permutation
        replaced by its row, built once: one row per term, so memory stays
        proportional to the input. None for the uniform law, whose l! rows
        are built per draw instead."""
        if isinstance(self.law, UniformPermLaw):
            return None
        return _sampling_table([(self._row(perm), w) for perm, w in self.law.terms])

    def sample_image(self, rng) -> tuple[int, ...]:
        """Draw a block permutation, then each state's image from its table
        in that permutation's row.

        The states' draws are _pick's draw rule, inlined into one loop over
        the row so that a step makes no call per state: the same words are
        read in the same order."""
        law_rows = self._law_rows
        row = self._row(self.law.sample(rng)) if law_rows is None else _pick(rng, law_rows)
        getrandbits = rng.getrandbits
        image = []
        for den, k, shift, guide, cum, payloads in row:
            if den == 1:
                image.append(payloads[0])
                continue
            r = getrandbits(k)
            while r >= den:
                r = getrandbits(k)
            i = guide[r >> shift]
            while cum[i] <= r:
                i += 1
            image.append(payloads[i])
        return tuple(image)


GrandCoupling = ExplicitCoupling | BlockCoupling


def resum_mismatches(mu: GrandCoupling, P: StochasticMatrix) -> list:
    """(i, j, mu(f(i) = j), P(i, j)) for each cell where mu's one-step
    marginals differ from P, in row-major order: empty exactly when mu is
    consistent with P. Row i is summed from image_law((i,)), in integers
    over the lcm of P.scaled's denominator and the masses' denominators."""
    if mu.n != P.n:
        raise DimensionMismatch(f"coupling is on {mu.n} states, matrix on {P.n}")
    den, rows = P.scaled
    masses = [(i, j, w.numerator * v.numerator, w.denominator * v.denominator)
              for i in range(P.n) for w, (dist,) in mu.image_law((i,)) for j, v in dist]
    scale = lcm(den, *(d for *_, d in masses))
    got = [[0] * P.n for _ in range(P.n)]
    for i, j, a, d in masses:
        got[i][j] += a * (scale // d)
    return [(i, j, Fraction(got[i][j], scale), Fraction(want[j], den))
            for i, want in enumerate(rows) for j in range(P.n) if got[i][j] * den != want[j] * scale]


def is_consistent(mu: GrandCoupling, P: StochasticMatrix) -> bool:
    """True when mu's per-state marginals equal P row by row."""
    return not resum_mismatches(mu, P)


def _check_support_cap(size: int, cap: int) -> None:
    """Raise SupportTooLarge when a support of at least size functions is
    past cap."""
    if size > cap:
        raise SupportTooLarge(f"support of at least {size} functions exceeds cap {cap}")


def expand_support(mu: GrandCoupling, cap: int = DEFAULT_SUPPORT_CAP) -> Support:
    """The set of functions carrying positive weight.

    Raises SupportTooLarge when more than cap functions would be produced.
    """
    _check_support_cap(mu.support_size(cap=cap), cap)
    return mu.support()


def to_explicit(mu: GrandCoupling, cap: int = DEFAULT_SUPPORT_CAP) -> ExplicitCoupling:
    """Materialise any coupling as an ExplicitCoupling (subject to cap)."""
    _check_support_cap(mu.support_size(cap=cap), cap)
    if isinstance(mu, ExplicitCoupling):
        return mu
    return ExplicitCoupling.from_pairs(mu.iter_terms())


def doeblin_coupling(P: StochasticMatrix) -> BlockCoupling:
    """The independent product coupling: each state draws from its own row.

    The one-block case of BlockCoupling.conditioned (identity block
    permutation, rows as within-distributions), which samples in O(n)
    regardless of how many functions the product support would contain;
    to_explicit lists its terms.
    """
    law = ExplicitPermLaw((((0,), _ONE),))
    return BlockCoupling.conditioned(P, Partition.single_block(P.n), law)


def permutation_coupling(P: StochasticMatrix) -> ExplicitCoupling:
    """A coupling supported on permutations, via Birkhoff decomposition.

    Requires P doubly stochastic; the result never coalesces.
    """
    decomp = birkhoff_decomposition(P)
    return ExplicitCoupling.from_pairs(decomp.terms)


# --- serialization ---------------------------------------------------------


def serialize_coupling(mu: GrandCoupling) -> str:
    if isinstance(mu, ExplicitCoupling):
        doc = {
            "n": mu.n,
            "functions": [
                {"map": f.to_notation(), "weight": format_rational(w)}
                for f, w in mu.terms
            ],
        }
        return json.dumps(doc, indent=1)
    perms: object
    if isinstance(mu.law, UniformPermLaw):
        perms = "uniform"
    else:
        perms = [
            {"perm": [v + 1 for v in perm], "weight": format_rational(w)}
            for perm, w in mu.law.terms
        ]
    within = []
    for entry in mu.within:
        within.append(
            {
                str(s + 1): {str(j + 1): format_rational(w) for j, w in dist}
                for s, dist in entry
            }
        )
    doc = {
        "n": mu.n,
        "partition": [sorted(v + 1 for v in b) for b in mu.partition.blocks],
        "block_perms": perms,
        "within": within,
    }
    return json.dumps(doc, indent=1)


_EXPLICIT_KEYS = {"n", "functions"}
_BLOCK_KEYS = {"n", "partition", "block_perms", "within"}


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _object(value, keys: set[str], what: str) -> dict:
    """value as a JSON object with only the given keys, all present."""
    if not isinstance(value, dict):
        raise CouplingFormatError(f"{what} must be an object, got {_brief(value)}")
    unknown = sorted(set(value) - keys)
    if unknown:
        raise CouplingFormatError(f"unknown key {unknown[0]!r} in {what}")
    missing = sorted(keys - set(value))
    if missing:
        raise CouplingFormatError(f"{what} has no {missing[0]!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise CouplingFormatError(f"{what} must be a list, got {_brief(value)}")
    return value


def _weight(value, what: str) -> Fraction:
    """A positive weight written as a "p/q" string or a JSON integer."""
    if not (isinstance(value, str) or _is_int(value)):
        raise CouplingFormatError(f"{what}: weight must be a \"p/q\" string, got {_brief(value)}")
    try:
        w = parse_rational(str(value))
    except MalformedRational as exc:
        raise CouplingFormatError(f"{what}: {exc}") from None
    if w <= 0:
        raise CouplingFormatError(f"{what}: zero or negative weight {_brief(value)}")
    return w


def _index(value, limit: int, what: str) -> int:
    """A 1-based index in 1..limit, given as a JSON integer or as a
    canonical decimal string (object keys are always strings); returned
    0-based."""
    if isinstance(value, str):
        canonical = value.isascii() and value.isdigit() and value[:1] != "0"
        if canonical and len(value) <= len(str(limit)):
            value = int(value)
    if not _is_int(value) or not 1 <= value <= limit:
        raise CouplingFormatError(f"{what} must be one of 1..{limit}, got {_brief(value)}")
    return value - 1


def parse_coupling(text: str) -> GrandCoupling:
    """Read a coupling document (schema in the module docstring).

    Every malformed document raises CouplingFormatError naming the key,
    entry or state at fault; unknown keys are rejected, not ignored.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CouplingFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "n" not in doc:
        raise CouplingFormatError("coupling document must be an object with 'n'")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise CouplingFormatError(f"bad state count 'n': {_brief(n)}")
    if "functions" in doc:
        return _parse_explicit(_object(doc, _EXPLICIT_KEYS, "an explicit coupling"), n)
    if "partition" in doc:
        return _parse_block(_object(doc, _BLOCK_KEYS, "a block coupling"), n)
    raise CouplingFormatError("expected 'functions' or 'partition'")


def _parse_explicit(doc: dict, n: int) -> ExplicitCoupling:
    pairs = []
    for c, item in enumerate(_list(doc["functions"], "'functions'"), 1):
        what = f"function entry {c}"
        _object(item, {"map", "weight"}, what)
        text = item["map"]
        if not (isinstance(text, str) or _is_int(text)):
            raise CouplingFormatError(f"{what}: 'map' must be a string, got {_brief(text)}")
        try:
            f = MapFunction.from_notation(str(text))
        except NotationError as exc:
            raise CouplingFormatError(f"{what}: {exc}") from None
        if f.n != n:
            raise CouplingFormatError(
                f"{what}: map {_brief(text)} is on {f.n} states, 'n' is {n}"
            )
        pairs.append((f, _weight(item["weight"], what)))
    return ExplicitCoupling.from_pairs(pairs)


def _parse_block(doc: dict, n: int) -> BlockCoupling:
    blocks = []
    placed: set[int] = set()
    for r, raw in enumerate(_list(doc["partition"], "'partition'"), 1):
        block = []
        for v in _list(raw, f"partition block {r}"):
            i = _index(v, n, f"a state in partition block {r}")
            if i in placed:
                raise CouplingFormatError(f"state {i + 1} appears twice in 'partition'")
            placed.add(i)
            block.append(i)
        if not block:
            raise CouplingFormatError(f"partition block {r} is empty")
        blocks.append(block)
    if len(placed) != n:
        missing = next(i for i in range(n) if i not in placed)
        raise CouplingFormatError(f"state {missing + 1} is in no partition block")
    partition = Partition.from_blocks(blocks)
    l = partition.size
    raw_law = doc["block_perms"]
    law: ExplicitPermLaw | UniformPermLaw
    if raw_law == "uniform":
        law = UniformPermLaw(l)
    else:
        terms = []
        for c, item in enumerate(_list(raw_law, "'block_perms'"), 1):
            what = f"block permutation entry {c}"
            _object(item, {"perm", "weight"}, what)
            perm = tuple(
                _index(v, l, f"{what}: a block")
                for v in _list(item["perm"], f"{what}: 'perm'")
            )
            if len(perm) != l:
                raise CouplingFormatError(
                    f"{what}: 'perm' has {len(perm)} blocks, 'partition' has {l}"
                )
            terms.append((perm, _weight(item["weight"], what)))
        law = ExplicitPermLaw(tuple(terms))
    raw_within = _list(doc["within"], "'within'")
    if len(raw_within) != n:
        raise CouplingFormatError(
            f"'within' must list one object per state: {len(raw_within)} for {n} states"
        )
    within = []
    for i, obj in enumerate(raw_within):
        if not isinstance(obj, dict):
            raise CouplingFormatError(f"within entry for state {i + 1} is not an object")
        entry = []
        for key, dist_obj in obj.items():
            what = f"within entry for state {i + 1}"
            s = _index(key, l, f"{what}: block key")
            what += f", block {s + 1}"
            if not isinstance(dist_obj, dict) or not dist_obj:
                raise CouplingFormatError(f"{what}: not a non-empty object")
            dist = tuple(
                sorted(
                    (_index(jk, n, f"{what}: target state"), _weight(wv, what))
                    for jk, wv in dist_obj.items()
                )
            )
            entry.append((s, dist))
        within.append(tuple(sorted(entry)))
    return BlockCoupling(partition, law, tuple(within))
