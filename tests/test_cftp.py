import math
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest

from coalesce import (
    CoalescenceRecord,
    DidNotCoalesce,
    ExplicitCoupling,
    MapFunction,
    RngStream,
    StochasticMatrix,
    backward_record,
    cftp_sample,
    chi_square_pvalue,
    doeblin_coupling,
    emit_trajectory_diagram,
    equidistribution_report,
    equidistribution_tolerance,
    forward_record,
    invariant_distribution,
    permutation_coupling,
    provably_never_coalesces,
    sample_counts,
    to_explicit,
    total_variation,
    uniform_divisor_coupling,
)
from coalesce.cftp import DEFAULT_T_MAX, _record, _walk, chi_square_tail


def test_reproducible_runs(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    a = [cftp_sample(mu, RngStream(9).fork(i)) for i in range(50)]
    b = [cftp_sample(mu, RngStream(9).fork(i)) for i in range(50)]
    assert a == b
    c = [cftp_sample(mu, RngStream(10).fork(i)) for i in range(50)]
    assert a != c


@dataclass(frozen=True)
class CountingStream(RngStream):
    """An RngStream that records the index of every substream it, or any
    stream forked from it, hands out."""

    drawn: list = field(default_factory=list, compare=False)

    def fork(self, index):
        return CountingStream(self.seed, self.path + (index,), self.drawn)

    def substream(self, index):
        self.drawn.append(index)
        return super().substream(index)


def counting_coupling(mu):
    """A copy of the coupling mu that counts the images drawn from it in
    its images attribute. It is an instance of mu's own class, so the
    samplers' never-coalesces proof reads its structure as usual."""

    class CountingCoupling(type(mu)):
        images = 0

        def sample_image(self, rng):
            type(self).images += 1
            return super().sample_image(rng)

    return CountingCoupling(*(getattr(mu, f.name) for f in fields(mu)))


def test_backward_record_agrees_with_sample(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    for i in range(40):
        rec = backward_record(mu, RngStream(11).fork(i), collect_trace=True)
        assert rec.coalesced
        stream = CountingStream(11, (i,))  # the layout of RngStream(11).fork(i)
        counting = counting_coupling(mu)
        assert rec.state == cftp_sample(counting, stream, short_circuit=False)
        # one generator per sample, seeded once, and a sample costs exactly
        # its coalescence time in draws
        assert stream.drawn == [0]
        assert counting.images == rec.time
        # the number of distinct values can only shrink going further back
        assert all(x >= y for x, y in zip(rec.trace, rec.trace[1:]))
        assert rec.trace[-1] == 1
        assert rec.time == len(rec.trace)


@pytest.mark.parametrize("lazy", [False, True])
def test_sample_counts_reads_one_generator_in_turn(ex10, lazy):
    # one substream per run, seeded once; the samples are consecutive
    # backward walks on it, and the run draws exactly the sum of their
    # coalescence times in images
    mu = doeblin_coupling(ex10) if lazy else to_explicit(doeblin_coupling(ex10))
    counting = counting_coupling(mu)
    stream = CountingStream(31)
    counts, failures = sample_counts(counting, stream, 200)
    assert stream.drawn == [0]
    rng = RngStream(31).substream(0)
    assert (counts, failures) == (Counter(_walk(mu, rng, DEFAULT_T_MAX, True)[1] for _ in range(200)), 0)
    rng = RngStream(31).substream(0)
    times = [_record(mu, rng, DEFAULT_T_MAX, False, "backward").time for _ in range(200)]
    assert counting.images == sum(times)
    # consecutive samples start on fresh draws, so their times vary
    assert len(set(times)) > 1


def test_equidistribution_report_reads_one_generator_in_turn(ex10):
    mu = doeblin_coupling(ex10)
    counting = counting_coupling(mu)
    stream = CountingStream(32)
    rep = equidistribution_report(counting, stream, runs=150)
    assert stream.drawn == [0]
    assert counting.images == sum(t * c for t, c in rep.backward + rep.forward)
    # backward and forward records alternate on the run's one generator
    rng = RngStream(32).substream(0)
    back, fwd = Counter(), Counter()
    for _ in range(150):
        back[_record(mu, rng, DEFAULT_T_MAX, False, "backward").time] += 1
        fwd[_record(mu, rng, DEFAULT_T_MAX, False, "forward").time] += 1
    assert (rep.backward, rep.forward) == (tuple(sorted(back.items())), tuple(sorted(fwd.items())))


@pytest.mark.parametrize("lazy", [False, True])
def test_batch_failures_inside_the_loop(ex10, lazy):
    # at t_max = 4 about half the walks on the product coupling coalesce:
    # the batch tallies equal consecutive walks on the run's generator, with
    # each walk that does not coalesce counted as a failure, never a state
    # or a time
    mu = doeblin_coupling(ex10) if lazy else to_explicit(doeblin_coupling(ex10))
    counts, failures = sample_counts(mu, RngStream(41), 200, t_max=4)
    rng = RngStream(41).substream(0)
    hits = [_walk(mu, rng, 4, True) for _ in range(200)]
    assert 0 < failures < 200
    assert None not in counts
    assert (counts, failures) == (Counter(h[1] for h in hits if h), hits.count(None))
    rep = equidistribution_report(mu, RngStream(42), runs=200, t_max=4)
    rng = RngStream(42).substream(0)
    walks = [_walk(mu, rng, 4, backward) for _ in range(200) for backward in (True, False)]
    for got, got_failures, hits in (
        (rep.backward, rep.backward_failures, walks[::2]),
        (rep.forward, rep.forward_failures, walks[1::2]),
    ):
        assert 0 < got_failures < 200
        assert got_failures == hits.count(None)
        assert got == tuple(sorted(Counter(h[0] for h in hits if h).items()))


def test_deeper_horizons_extend_the_past_never_resample_it(ex10):
    # depth t is the t-th draw of the sample's one generator whatever the
    # horizon, so the sample is the same at any t_max from the coalescence
    # time on, and one draw short of it the composite is not yet constant
    mu = to_explicit(doeblin_coupling(ex10))
    for i in range(40):
        stream = RngStream(21).fork(i)
        rec = backward_record(mu, stream)
        assert rec.coalesced
        assert cftp_sample(mu, stream, t_max=rec.time) == rec.state
        assert cftp_sample(mu, stream, t_max=rec.time + 7) == rec.state
        assert cftp_sample(mu, stream, t_max=rec.time - 1) == DidNotCoalesce(rec.time - 1)


def test_forward_record_coalesces(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    rec = forward_record(mu, RngStream(12).fork(0), collect_trace=True)
    assert rec.coalesced
    assert rec.direction == "forward"
    assert rec.trace[-1] == 1


def test_permutation_coupling_never_coalesces(ex10):
    mu = permutation_coupling(ex10)
    out = cftp_sample(mu, RngStream(13).fork(0), t_max=64)
    assert isinstance(out, DidNotCoalesce)
    assert out.t_max == 64
    assert provably_never_coalesces(mu)


def test_quarter_coupling_never_coalesces(quarter_coupling):
    # min image size over the closure is 2, so no composite is constant
    assert provably_never_coalesces(quarter_coupling)
    out = cftp_sample(quarter_coupling, RngStream(14).fork(0), t_max=32)
    assert isinstance(out, DidNotCoalesce)


def test_provable_shortcut_negative(ex10):
    assert not provably_never_coalesces(to_explicit(doeblin_coupling(ex10)))
    assert not provably_never_coalesces(uniform_divisor_coupling(2, 1))
    assert provably_never_coalesces(uniform_divisor_coupling(4, 2))
    # on one state the only map is constant as well as bijective
    for one in (
        to_explicit(doeblin_coupling(StochasticMatrix.identity(1))),
        ExplicitCoupling.from_pairs([(MapFunction((0,)), Fraction(1))]),
    ):
        assert not provably_never_coalesces(one)
        assert sample_counts(one, RngStream(20), 5) == (Counter({0: 5}), 0)


@dataclass(frozen=True)
class KeepingStream(RngStream):
    """An RngStream that keeps every generator it hands out."""

    handed: list = field(default_factory=list, compare=False)

    def substream(self, index):
        rng = super().substream(index)
        self.handed.append(rng)
        return rng


@pytest.mark.parametrize(
    "one",
    [
        ExplicitCoupling.from_pairs([(MapFunction((0,)), Fraction(1))]),
        doeblin_coupling(StochasticMatrix.identity(1)),
    ],
    ids=["explicit", "block"],
)
def test_one_state_walks_coalesce_at_once_without_drawing(one):
    # every walk on one state is constant after its first image, which has
    # one outcome and reads no word from the generator; a composite on one
    # state stays a 1-tuple through each step
    counting = counting_coupling(one)
    stream = KeepingStream(21)
    assert sample_counts(counting, stream, 4) == (Counter({0: 4}), 0)
    rep = equidistribution_report(counting, stream, runs=3)
    assert (rep.backward, rep.forward, rep.max_cdf_gap) == (((1, 3),), ((1, 3),), 0)
    assert backward_record(counting, stream, collect_trace=True) == CoalescenceRecord(
        1, 0, "backward", (1,)
    )
    assert forward_record(counting, stream) == CoalescenceRecord(1, 0, "forward")
    assert emit_trajectory_diagram(counting, stream, 5) == (
        "time     0   1\nfrom  1   1   1\nclasses  1   1\ncoalesced at t=1\n"
    )
    # one image per walk: 4 samples, 3 + 3 records, 2 records and a diagram
    assert counting.images == 4 + 6 + 2 + 1
    untouched = RngStream(21).substream(0).getstate()
    assert len(stream.handed) == 5
    assert all(rng.getstate() == untouched for rng in stream.handed)


def test_large_explicit_support_is_proven_never_to_coalesce():
    # 1,458 support maps with k = 2: the pairs are read from the coupling's
    # structure in either form, so sampling fails at once instead of walking
    # the horizon
    block = uniform_divisor_coupling(6, 2)
    explicit = to_explicit(block)
    assert len(explicit.terms) == 1458
    for mu in (explicit, block):
        assert provably_never_coalesces(mu)
        stream = CountingStream(17)
        assert sample_counts(mu, stream, count=3) == (Counter(), 3)
        assert stream.drawn == []
    stream = CountingStream(18)
    rep = equidistribution_report(block, stream, runs=4)
    assert (rep.backward_failures, rep.forward_failures) == (4, 4)
    assert not rep.passed(Fraction(1, 2))
    assert stream.drawn == []


def test_sample_counts_all_failures(quarter_coupling):
    counts, failures = sample_counts(quarter_coupling, RngStream(15), 25, t_max=128)
    assert counts == Counter()
    assert failures == 25


def test_sample_counts_distribution(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    counts, failures = sample_counts(mu, RngStream(16), 3000)
    assert failures == 0
    assert sum(counts.values()) == 3000
    tv = total_variation(counts, invariant_distribution(ex10))
    assert tv < Fraction(5, 100)


def test_equidistribution_report(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    rep = equidistribution_report(mu, RngStream(17), runs=600)
    assert rep.backward_failures == 0 and rep.forward_failures == 0
    assert rep.passed(Fraction(1, 10))
    assert rep.max_cdf_gap < Fraction(1, 10)


def test_equidistribution_report_failure(quarter_coupling):
    rep = equidistribution_report(quarter_coupling, RngStream(18), runs=30, t_max=64)
    assert rep.backward_failures == 30
    assert rep.forward_failures == 30
    assert not rep.passed(Fraction(1, 2))


def test_total_variation_exact():
    assert total_variation(Counter({0: 5, 1: 5}), (Fraction(1, 2), Fraction(1, 2))) == 0
    assert total_variation(Counter({0: 5, 1: 5}), (Fraction(1), Fraction(0))) == Fraction(1, 2)
    assert total_variation(Counter({1: 10}), (Fraction(1), Fraction(0))) == 1


def test_chi_square_sane(ex10):
    mu = to_explicit(doeblin_coupling(ex10))
    counts, _ = sample_counts(mu, RngStream(19), 900)
    p = chi_square_pvalue(counts, invariant_distribution(ex10))
    assert 0 <= p <= 1
    assert p > 0.001


def test_chi_square_tail_pinned_points():
    # nu = 2: the tail is e^(-x/2), so 1/20 at x = 2 ln 20
    assert chi_square_tail(2 * math.log(20), 2) == pytest.approx(1 / 20, rel=1e-14)
    # nu = 4: e^(-x/2) (1 + x/2)
    assert chi_square_tail(2.0, 4) == pytest.approx(2 / math.e, rel=1e-14)
    # nu = 1: P(|Z| > 1) for a standard normal Z
    assert chi_square_tail(1.0, 1) == pytest.approx(math.erfc(1 / math.sqrt(2)), rel=1e-14)
    # nu = 3: P(|Z| > 1) + 2 phi(1)
    three = math.erfc(1 / math.sqrt(2)) + 2 * math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert chi_square_tail(1.0, 3) == pytest.approx(three, rel=1e-14)
    assert chi_square_tail(0.0, 1) == chi_square_tail(0.0, 6) == 1.0
    # large nu at a typical statistic, where e^(-x/2) alone underflows to 0;
    # reference values from scipy.stats.chi2.sf
    assert chi_square_tail(2000.0, 2000) == pytest.approx(0.4957947558197845, rel=1e-9)
    assert chi_square_tail(2001.0, 2001) == pytest.approx(0.4957958067483724, rel=1e-9)
    assert chi_square_pvalue(Counter({0: 50, 1: 50}), (Fraction(1, 2), Fraction(1, 2))) == 1.0


def test_equidistribution_tolerance_meets_its_false_fail_rate():
    # 4 exp(-runs t^2 / 2) = alpha at the derived tolerance t
    for runs, alpha in ((200, Fraction(1, 1000)), (2000, Fraction(1, 1000)), (50, Fraction(1, 20))):
        t = float(equidistribution_tolerance(runs, alpha))
        assert 4 * math.exp(-runs * t * t / 2) == pytest.approx(float(alpha))
    assert equidistribution_tolerance(200) > equidistribution_tolerance(2000)
