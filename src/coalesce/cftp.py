"""Coupling from the past, exactly, plus coalescence-time diagnostics.

The sampler composes random functions drawn from a grand coupling. A sample
reads the draw F_t at depth t as the t-th image drawn from its generator.
Depths are read once and in order, so every run sees the same past however
far back it looks: the past is extended, never resampled. The backward
composite G_t = F_1 o ... o F_t applies the newest draw first; the first
time it is a constant map, its value has exactly the chain's invariant
distribution, with no burn-in bias (Propp and Wilson's coupling from the
past).

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

One generator serves a whole run of samples. Its draws F_1, F_2, ... are
i.i.d., and a sample's coalescence time T (capped at t_max) is a stopping
time of them: whether T = t is decided by F_1, ..., F_t alone. By the strong
Markov property the draws F_{T+1}, F_{T+2}, ... are again i.i.d. with the
same law and independent of F_1, ..., F_T. So the next sample, read from
them, has the law of the first and is independent of it; by induction the
samples of a run are i.i.d., and each is still exactly invariant. The same
holds for the coalescence records of verify-equidist, whose backward and
forward records alternate on one generator: each record's time is a
stopping time of the draws it reads.

The way draws are read from the seed is the RNG layout, recorded as
rng_layout in the CLI run manifest. Layout 3 (RNG_LAYOUT) seeds one
generator per run, from the run stream's substream(0): sample_counts and
equidistribution_report read all their walks from it in turn, tallying
each walk's value or time, and cftp_sample, the records and the diagram
read one walk from the substream(0) of the stream they are given. Within
an image, each draw from a finite law (coupling._pick) reads k-bit words
from the generator, k = den.bit_length() for the law's common denominator
den, until one is below den, as random.randrange(den) would.

Some couplings can never coalesce: some pair of states is merged by no
composition of support functions. provably_never_coalesces finds such a
pair on the state-pair graph, which every coupling hands over from its
structure, and the samplers then report every run as a failure
(DidNotCoalesce) without drawing.
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
RNG_LAYOUT = 3

# Default false-fail rate of the verify-equidist verdict on a correct coupling.
FALSE_FAIL_RATE = Fraction(1, 1000)


@dataclass(frozen=True)
class RngStream:
    """A reproducible tree of random generators.

    fork(i) descends to an independent child stream; substream(t) yields a
    fresh random.Random whose seed is a keyed hash of the full path, so the
    generator for a given position never depends on how much of the tree has
    been visited.
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


def _walk(
    mu: GrandCoupling,
    rng: random.Random,
    t_max: int,
    backward: bool,
    seen: list | None = None,
) -> tuple[int, int] | None:
    """Compose draws t = 1..t_max until the composite is a constant map;
    returns (t, value) at the first constant one, None if none is.

    Draw t is the next mu.sample_image on rng, which the caller seeded; a
    walk reads exactly t draws, so the next walk on the same rng starts on
    fresh draws (see the module docstring). backward applies each new draw
    first (F_1 o ... o F_t), forward applies it last (F_t o ... o F_1).
    A composite is a list whose entry x is the image of state x; given a
    list seen, the walk appends every composite to it.
    """
    n = mu.n
    composite = list(range(n))
    for t in range(1, t_max + 1):
        img = mu.sample_image(rng)
        if backward:
            composite = [composite[v] for v in img]
        else:
            composite = [img[v] for v in composite]
        if seen is not None:
            seen.append(composite)
        value = composite[0]
        if composite.count(value) == n:
            return t, value
    return None


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

    Reads the backward composite one draw at a time, from
    stream.substream(0), and returns its value the first time it is
    constant; by the argument in the module docstring this is the value
    every longer horizon would give. Returns DidNotCoalesce when t_max
    draws pass without coalescence. With short_circuit, a coupling that
    provably never coalesces (provably_never_coalesces) returns it up front
    without drawing; pass short_circuit=False when that proof has already
    been run.
    """
    if short_circuit and provably_never_coalesces(mu):
        return DidNotCoalesce(t_max)
    hit = _walk(mu, stream.substream(0), t_max, backward=True)
    return DidNotCoalesce(t_max) if hit is None else hit[1]


def _record(
    mu: GrandCoupling,
    rng: random.Random,
    t_max: int,
    collect_trace: bool,
    direction: str,
) -> CoalescenceRecord:
    """First constancy time of the one-step composition chain in the given
    direction, reading draws from rng: "backward" applies each new draw
    first, "forward" last."""
    seen: list | None = [] if collect_trace else None
    hit = _walk(mu, rng, t_max, direction == "backward", seen)
    trace = tuple(len(set(c)) for c in seen) if seen else None
    if hit is None:
        return CoalescenceRecord(DidNotCoalesce(t_max), None, direction, trace)
    return CoalescenceRecord(hit[0], hit[1], direction, trace)


def backward_record(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int = DEFAULT_T_MAX,
    collect_trace: bool = False,
) -> CoalescenceRecord:
    """Exact first constancy time of the backward composition, one step at a
    time, with the constant value. Reads the same draws as cftp_sample, so
    the value agrees with it run for run."""
    return _record(mu, stream.substream(0), t_max, collect_trace, "backward")


def forward_record(
    mu: GrandCoupling,
    stream: RngStream,
    t_max: int = DEFAULT_T_MAX,
    collect_trace: bool = False,
) -> CoalescenceRecord:
    """First time the forward composition (new draw applied last) is
    constant. The time matches the backward one in distribution, though the
    constant value does not follow the invariant distribution."""
    return _record(mu, stream.substream(0), t_max, collect_trace, "forward")


def sample_counts(
    mu: GrandCoupling,
    stream: RngStream,
    count: int,
    t_max: int = DEFAULT_T_MAX,
) -> tuple[Counter, int]:
    """count independent exact samples; returns (state counts, failures).

    Runs provably_never_coalesces once, and reports every sample as a
    failure without drawing when it holds. Otherwise each sample is one
    backward walk, read in turn from one generator, stream.substream(0)
    (the module docstring says why they are independent), and a walk that
    does not coalesce within t_max draws is a failure.
    """
    states: Counter = Counter()
    if provably_never_coalesces(mu):
        return states, count
    rng = stream.substream(0)
    for _ in range(count):
        hit = _walk(mu, rng, t_max, backward=True)
        states[None if hit is None else hit[1]] += 1
    return states, states.pop(None, 0)


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

    Backward and forward walks alternate on one generator,
    stream.substream(0), each reading on from the draws the one before left
    unread, so all 2 * runs times are independent (module docstring).
    The statistic is the largest absolute gap between the two empirical
    CDFs, failures counting as never-finite.
    A coupling that provably cannot coalesce is reported as all failures
    without walking the horizon, which is surely what each run would do.
    """
    if provably_never_coalesces(mu):
        back, fwd = Counter({None: runs}), Counter({None: runs})
    else:
        back, fwd = Counter(), Counter()
        rng = stream.substream(0)
        for _ in range(runs):
            hit = _walk(mu, rng, t_max, backward=True)
            back[None if hit is None else hit[0]] += 1
            hit = _walk(mu, rng, t_max, backward=False)
            fwd[None if hit is None else hit[0]] += 1
    bfail, ffail = back.pop(None, 0), fwd.pop(None, 0)
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


def chi_square_tail(x: float, nu: int) -> float:
    """P(chi^2_nu > x) for integer degrees of freedom nu, in closed form.

    With h = x/2 the tail is the regularized upper gamma function Q(nu/2, h),
    and Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1). From Q(1, h) = e^-h
    that gives the Poisson sum of h^k e^-h / k!, k = 0..m-1, for nu = 2m;
    from Q(1/2, h) = erfc(sqrt h) it gives erfc(sqrt h) plus the terms
    h^(i-1/2) e^-h / Gamma(i + 1/2), i = 1..m, for nu = 2m + 1. Each term is
    taken in log space, so e^-h underflowing at large x does not zero the
    sum when nu is large too.
    """
    if x <= 0:
        return 1.0
    h = x / 2
    log_h = math.log(h)
    if nu % 2 == 0:
        return math.fsum(
            math.exp(k * log_h - h - math.lgamma(k + 1)) for k in range(nu // 2)
        )
    return math.erfc(math.sqrt(h)) + math.fsum(
        math.exp((i - 0.5) * log_h - h - math.lgamma(i + 0.5))
        for i in range(1, nu // 2 + 1)
    )


def chi_square_pvalue(counts, dist) -> float:
    """Goodness-of-fit p-value of empirical counts against an exact law:
    Pearson's statistic, computed exactly, on len(dist) - 1 degrees of
    freedom."""
    total = sum(counts.values())
    stat = sum(
        (counts.get(j, 0) - pj * total) ** 2 / (pj * total) for j, pj in enumerate(dist)
    )
    return chi_square_tail(float(stat), len(dist) - 1)
