"""Coupling from the past, exactly, plus coalescence-time diagnostics.

The sampler composes random functions drawn from a grand coupling. Each
sample owns one generator, seeded once from its stream's substream(0), and
reads the draw F_t at depth t as the t-th image drawn from it. Depths are
read once and in order, so every run sees the same past however far back it
looks: the past is extended, never resampled. The backward composite
G_t = F_1 o ... o F_t applies the newest draw first; the first time it is a
constant map, its value has exactly the chain's invariant distribution, with
no burn-in bias (Propp and Wilson's coupling from the past).

Checking after every draw is exact: once G_s is the constant c, every
deeper composite G_t = G_s o (F_{s+1} o ... o F_t) is c too, so the value at
the first constant time is the value at any longer horizon. Propp and
Wilson double the horizon because they re-simulate trajectories forward from
time -T; this module keeps the whole composite map instead, so one pass of
draws (_walk) serves the sampler, both coalescence records and the diagram,
and a sample costs exactly its coalescence time in draws.

Backward and forward one-step compositions become constant at the same time
in distribution (the draws are exchangeable), which gives a sharp self-test:
the empirical laws of the two times must agree.

The way draws are read from the seed is the RNG layout, recorded as
rng_layout in the CLI run manifest. Layout 2 (RNG_LAYOUT, current) seeds
one generator per sample as above. Layout 1 seeded a fresh generator for
every depth t from substream(t); reseeding cost about ten times the draw.

Some couplings can never coalesce: some pair of states is merged by no
composition of support functions. provably_never_coalesces finds such a
pair on the state-pair graph, which every coupling hands over from its
structure, and the samplers then report every run as DidNotCoalesce
without drawing.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b

from .coupling import GrandCoupling
from .semigroup import coalescing_pairs

DEFAULT_T_MAX = 2**20

# How seeded draws are laid out; see the module docstring.
RNG_LAYOUT = 2

# Default false-fail rate of the verify-equidist verdict on a correct coupling.
FALSE_FAIL_RATE = Fraction(1, 1000)


@dataclass(frozen=True)
class RngStream:
    """A reproducible tree of random generators.

    fork(i) descends to an independent child stream; substream(t) yields a
    fresh random.Random whose seed is a keyed hash of the full path, so the
    generator for a given position never depends on how much of the tree has
    been visited. A sample is addressed by its fork path and, in layout 2,
    draws everything from that path's substream(0); layout 1 took a
    substream(t) for every depth t.
    """

    seed: int
    path: tuple[int, ...] = ()

    def fork(self, index: int) -> "RngStream":
        return RngStream(self.seed, self.path + (index,))

    def substream(self, index: int) -> random.Random:
        h = blake2b(digest_size=16)
        h.update(repr((self.seed, self.path, index)).encode())
        return random.Random(int.from_bytes(h.digest(), "big"))


@dataclass(frozen=True)
class DidNotCoalesce:
    """The composition never became constant within the horizon."""

    t_max: int

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class CoalescenceRecord:
    """First time a one-step composition chain became constant, and where.

    trace, when collected, holds the number of distinct trajectory classes
    after each step; it is non-increasing.
    """

    time: int | DidNotCoalesce
    state: int | None
    direction: str
    trace: tuple[int, ...] | None = None

    @property
    def coalesced(self) -> bool:
        return not isinstance(self.time, DidNotCoalesce)


def _is_constant(images: tuple[int, ...]) -> bool:
    return images.count(images[0]) == len(images)


def _walk(mu: GrandCoupling, stream: RngStream, t_max: int, backward: bool):
    """The composite after each draw t = 1..t_max, as an image tuple.

    Layout 2: one generator, stream.substream(0), seeded once before the
    first draw; draw t is the t-th mu.sample_image on it. (Layout 1 drew
    depth t from its own stream.substream(t).) backward applies each new
    draw first (F_1 o ... o F_t), forward applies it last (F_t o ... o F_1).
    Callers stop reading once they have what they need.
    """
    rng = stream.substream(0)
    composite = tuple(range(mu.n))
    for _ in range(t_max):
        img = mu.sample_image(rng)
        if backward:
            composite = tuple([composite[v] for v in img])
        else:
            composite = tuple([img[v] for v in composite])
        yield composite


def provably_never_coalesces(mu: GrandCoupling) -> bool:
    """True exactly when no composition of support functions is constant,
    so every sampling run must end in DidNotCoalesce.

    Some composition is constant exactly when every pair of states is
    merged by some composition, since merging the pairs of an image one at
    a time shrinks it to a point. So a pair outside coalescing_pairs rules
    coalescence out surely, not just almost surely. The pairs are read from
    the coupling's structure, never from an expanded support, so the answer
    is exact at any support size. On one state there are no pairs, and the
    chain coalesces at once.
    """
    return len(coalescing_pairs(mu)) < mu.n * (mu.n - 1) // 2


def cftp_sample(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int = DEFAULT_T_MAX,
    short_circuit: bool = True,
) -> int | DidNotCoalesce:
    """One exact draw from the invariant distribution of the coupled chain.

    Reads the backward composite one draw at a time and returns its value
    the first time it is constant; by the argument in the module docstring
    this is the value every longer horizon would give. Returns
    DidNotCoalesce when t_max draws pass without coalescence. With
    short_circuit, a coupling that provably never coalesces
    (provably_never_coalesces) returns it up front without drawing; pass
    short_circuit=False when that proof has already been run.
    """
    if short_circuit and provably_never_coalesces(mu):
        return DidNotCoalesce(t_max)
    for composite in _walk(mu, stream, t_max, backward=True):
        if _is_constant(composite):
            return composite[0]
    return DidNotCoalesce(t_max)


def _record(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int,
    collect_trace: bool,
    direction: str,
) -> CoalescenceRecord:
    """First constancy time of the one-step composition chain in the given
    direction: "backward" applies each new draw first, "forward" last."""
    trace: list[int] | None = [] if collect_trace else None
    walk = _walk(mu, stream, t_max, backward=direction == "backward")
    for t, composite in enumerate(walk, 1):
        if trace is not None:
            trace.append(len(set(composite)))
        if _is_constant(composite):
            return CoalescenceRecord(
                t, composite[0], direction, tuple(trace) if trace else None
            )
    return CoalescenceRecord(
        DidNotCoalesce(t_max), None, direction, tuple(trace) if trace else None
    )


def backward_record(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int = DEFAULT_T_MAX,
    collect_trace: bool = False,
) -> CoalescenceRecord:
    """Exact first constancy time of the backward composition, one step at a
    time, with the constant value. Reads the same draws as cftp_sample, so
    the value agrees with it run for run."""
    return _record(mu, stream, t_max, collect_trace, "backward")


def forward_record(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int = DEFAULT_T_MAX,
    collect_trace: bool = False,
) -> CoalescenceRecord:
    """First time the forward composition (new draw applied last) is
    constant. The time matches the backward one in distribution, though the
    constant value does not follow the invariant distribution."""
    return _record(mu, stream, t_max, collect_trace, "forward")


def sample_counts(
    mu: GrandCoupling,
    stream: RngStream,
    count: int,
    t_max: int = DEFAULT_T_MAX,
) -> tuple[Counter, int]:
    """count independent exact samples; returns (state counts, failures).

    Runs provably_never_coalesces once, and reports every sample as a
    failure without drawing when it holds.
    """
    states: Counter = Counter()
    if provably_never_coalesces(mu):
        return states, count
    failures = 0
    for i in range(count):
        out = cftp_sample(mu, stream.fork(i), t_max=t_max, short_circuit=False)
        if isinstance(out, DidNotCoalesce):
            failures += 1
        else:
            states[out] += 1
    return states, failures


@dataclass(frozen=True)
class EquidistributionReport:
    """Empirical comparison of backward and forward coalescence times."""

    runs: int
    backward: tuple[tuple[int, int], ...]  # (time, count), ascending
    forward: tuple[tuple[int, int], ...]
    backward_failures: int
    forward_failures: int
    max_cdf_gap: Fraction

    def passed(self, tolerance: Fraction) -> bool:
        if self.backward_failures or self.forward_failures:
            return False
        return self.max_cdf_gap < tolerance


def equidistribution_tolerance(runs: int, alpha: Fraction = FALSE_FAIL_RATE) -> Fraction:
    """The CDF gap that a correct coupling reaches with probability at most
    alpha over `runs` backward and `runs` forward runs.

    Each empirical CDF lies within e of the common law except with
    probability 2 exp(-2 runs e^2) (Dvoretzky-Kiefer-Wolfowitz with
    Massart's constant), so the two are more than 2e apart with probability
    at most 4 exp(-2 runs e^2). Setting that to alpha gives
    2 sqrt(ln(4/alpha) / (2 runs)).
    """
    return Fraction(2 * math.sqrt(math.log(4 / alpha) / (2 * runs)))


def _max_cdf_gap(a: Counter, b: Counter, runs: int) -> Fraction:
    times = sorted(set(a) | set(b))
    ca = cb = 0
    gap = Fraction(0)
    for t in times:
        ca += a.get(t, 0)
        cb += b.get(t, 0)
        d = abs(Fraction(ca, runs) - Fraction(cb, runs))
        if d > gap:
            gap = d
    return gap


def equidistribution_report(
    mu: GrandCoupling,
    stream: RngStream,
    runs: int,
    t_max: int = DEFAULT_T_MAX,
) -> EquidistributionReport:
    """Compare backward and forward coalescence-time laws over many runs.

    Backward runs fork the stream at even indices, forward at odd, so the
    two samples are independent. The statistic is the largest absolute gap
    between the two empirical CDFs, failures counting as never-finite.
    A coupling that provably cannot coalesce is reported as all failures
    without walking the horizon, which is surely what each run would do.
    """
    back: Counter = Counter()
    fwd: Counter = Counter()
    if provably_never_coalesces(mu):
        return EquidistributionReport(
            runs=runs,
            backward=(),
            forward=(),
            backward_failures=runs,
            forward_failures=runs,
            max_cdf_gap=Fraction(0),
        )
    bfail = ffail = 0
    for i in range(runs):
        rec = backward_record(mu, stream.fork(2 * i), t_max=t_max)
        if rec.coalesced:
            back[rec.time] += 1
        else:
            bfail += 1
        rec = forward_record(mu, stream.fork(2 * i + 1), t_max=t_max)
        if rec.coalesced:
            fwd[rec.time] += 1
        else:
            ffail += 1
    return EquidistributionReport(
        runs=runs,
        backward=tuple(sorted(back.items())),
        forward=tuple(sorted(fwd.items())),
        backward_failures=bfail,
        forward_failures=ffail,
        max_cdf_gap=_max_cdf_gap(back, fwd, runs),
    )


def total_variation(counts, dist) -> Fraction:
    """TV distance between empirical counts and an exact distribution."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no successful samples to compare")
    acc = Fraction(0)
    for j, pj in enumerate(dist):
        acc += abs(Fraction(counts.get(j, 0), total) - Fraction(pj))
    return acc / 2


def chi_square_pvalue(counts, dist) -> float:
    """Goodness-of-fit p-value of empirical counts against an exact law."""
    from scipy.stats import chisquare

    total = sum(counts.values())
    observed = [counts.get(j, 0) for j in range(len(dist))]
    expected = [float(pj) * total for pj in dist]
    return float(chisquare(observed, expected).pvalue)
