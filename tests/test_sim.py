import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aockit import sim
from aockit.analysis import (
    fdma_avg_aoc_rounds,
    fdma_gamma,
    tdma_nr_avg_aoc_slots,
    tdma_r_avg_aoc_slots,
)
from aockit.domain import SchemeKind, TimingModel, make_per_vector
from aockit.sim import RNG_NAME, AocTrace, SimConfig, SimResult, simulate, simulate_ms

P_HALF = make_per_vector([0.5, 0.5])
UNIT = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)


class TestExamples:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_nr_zero_loss_is_deterministic(self, seed):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0, 0.0]),
                                 10_000, seed))
        assert res.avg_aoc == 3.0
        assert res.ci_halfwidth == 0.0
        assert res.collections == 5_000
        assert res.rng_name == RNG_NAME
        assert np.all(res.trace.ages == 2.0)

    def test_tdma_r_half_loss_matches_analysis(self):
        res = simulate(SimConfig(SchemeKind.TDMA_R, P_HALF, 1_000_000, 1))
        assert abs(res.avg_aoc - tdma_r_avg_aoc_slots(P_HALF)) <= 3.0 * res.ci_halfwidth
        assert res.trace.unit == "slots"

    def test_fdma_half_loss_matches_analysis(self):
        res = simulate(SimConfig(SchemeKind.FDMA, P_HALF, 1_000_000, 1))
        assert abs(res.avg_aoc - fdma_avg_aoc_rounds(P_HALF)) <= 3.0 * res.ci_halfwidth
        assert res.trace.unit == "rounds"


class TestDeterminism:
    def test_identical_configs_bit_identical(self):
        cfg = SimConfig(SchemeKind.TDMA_R, make_per_vector([0.3, 0.6]), 50_000, 99)
        a = simulate(cfg)
        b = simulate(cfg)
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.ages, b.trace.ages)
        assert a.avg_aoc == b.avg_aoc
        assert a.ci_halfwidth == b.ci_halfwidth

    def test_seeds_change_the_trace(self):
        p = make_per_vector([0.4, 0.4])
        a = simulate(SimConfig(SchemeKind.TDMA_NR, p, 20_000, 1))
        b = simulate(SimConfig(SchemeKind.TDMA_NR, p, 20_000, 2))
        assert not np.array_equal(a.trace.times, b.trace.times)


def _draws(seed, count, n=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random(count) if n is None else rng.random((count, n))


# The per-slot reference loops: the draw convention written out slot by
# slot, one uniform per transmission attempt.  Each returns (times, ages).

def _tdma_nr_reference(probs, u):
    n = len(probs)
    times, ages = [], []
    pos = start = 0
    for t, x in enumerate(u.tolist()):
        if x < probs[pos]:
            pos, start = 0, t + 1
        else:
            pos += 1
            if pos == n:
                times.append(t + 1.0)
                ages.append(float(t + 1 - start))
                pos, start = 0, t + 1
    return np.array(times), np.array(ages)


def _tdma_r_reference(probs, u):
    n = len(probs)
    times, ages = [], []
    pos = gen = 0
    for t, x in enumerate(u.tolist()):
        if pos == 0:
            gen = t
        if x >= probs[pos]:
            pos += 1
            if pos == n:
                times.append(t + 1.0)
                ages.append(float(t + 1 - gen))
                pos = 0
    return np.array(times), np.array(ages)


def _fdma_reference(probs, u):
    # u holds one row of N device draws per round
    hit = np.flatnonzero((u >= np.array(probs)).all(axis=1)) + 1.0
    return hit, np.ones(hit.size)


_REFERENCES = {
    SchemeKind.TDMA_NR: _tdma_nr_reference,
    SchemeKind.TDMA_R: _tdma_r_reference,
    SchemeKind.FDMA: _fdma_reference,
}


def _reference_trace(scheme, probs, horizon, seed):
    n = len(probs) if scheme is SchemeKind.FDMA else None
    return _REFERENCES[scheme](probs, _draws(seed, horizon, n))


def _kernel_trace(scheme, probs, horizon, seed):
    # the scheme's step run by the chunk driver, without simulate()'s checks
    rng = np.random.Generator(np.random.PCG64(seed))
    return sim._run_kernel(*sim._KERNELS[scheme], probs, horizon, rng)


def _chunk_units(scheme, n):
    # slots (TDMA) or rounds (FDMA) drawn per chunk
    return max(1, sim._CHUNK // n) if scheme is SchemeKind.FDMA else sim._CHUNK


def _per_vector(kind, n):
    if kind == "zero":
        return (0.0,) * n
    rng = np.random.default_rng(n)
    if kind == "light":    # long attempts and cycles
        return tuple(float(x) for x in rng.uniform(0.0, 0.03, n))
    if kind == "equal":    # no draw's outcome depends on the sending device
        return (float(rng.uniform(0.05, 0.2)),) * n
    if kind == "band":     # one SNR row of the workloads: a spread of 0.1
        return tuple(float(x) for x in rng.uniform(0.05, 0.15, n))
    # "mixed": a lossless device, a 0.99 device and the rest in [0, 0.5)
    probs = [float(x) for x in rng.uniform(0.0, 0.5, n)]
    probs[0] = 0.0
    probs[-1] = 0.99 if n > 1 else probs[-1]
    return tuple(probs)


_HORIZONS = {
    "below-n": lambda chunk, n: max(1, n - 1),
    "chunk-1": lambda chunk, n: chunk - 1,
    "chunk": lambda chunk, n: chunk,
    "chunk+1": lambda chunk, n: chunk + 1,
    "3chunk+17": lambda chunk, n: 3 * chunk + 17,
}


class TestDrawConvention:
    """The seed-to-trace mapping is one uniform per transmission attempt in
    slot order; these replays pin it across chunk boundaries."""

    def test_tdma_nr_replay(self):
        probs = (0.5, 0.3)
        horizon, seed = 70_000, 424242
        times, ages = _tdma_nr_reference(probs, _draws(seed, horizon))
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, times)
        assert np.array_equal(res.trace.ages, ages)

    def test_tdma_r_replay(self):
        probs = (0.2, 0.6, 0.4)
        horizon, seed = 70_000, 7
        times, ages = _tdma_r_reference(probs, _draws(seed, horizon))
        res = simulate(SimConfig(SchemeKind.TDMA_R, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, times)
        assert np.array_equal(res.trace.ages, ages)

    def test_fdma_replay_row_major(self):
        probs = (0.3, 0.1, 0.2)
        horizon, seed = 30_000, 55
        times, ages = _fdma_reference(probs, _draws(seed, horizon, 3))
        res = simulate(SimConfig(SchemeKind.FDMA, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, times)
        assert np.all(res.trace.ages == 1.0)

    # N on both sides of FDMA's device-major success test, and PER kinds
    # from no device-dependent draw (zero, equal) to many (mixed)
    @pytest.mark.parametrize("horizon", list(_HORIZONS))
    @pytest.mark.parametrize("per", ["zero", "equal", "light", "band", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 6, 10, 11, 16, 17, 31, 32, 48])
    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.token)
    def test_kernel_matches_reference(self, scheme, n, per, horizon):
        probs = _per_vector(per, n)
        chunk = _chunk_units(scheme, n)
        h = _HORIZONS[horizon](chunk, n)
        seed = 1000 * n + h
        times, ages = _kernel_trace(scheme, probs, h, seed)
        want_times, want_ages = _reference_trace(scheme, probs, h, seed)
        assert np.array_equal(times, want_times)
        assert np.array_equal(ages, want_ages)
        if horizon == "3chunk+17" and n > 1 and (
                (scheme is SchemeKind.TDMA_NR and per == "zero" and chunk % n)
                or (scheme is SchemeKind.TDMA_R and (per != "zero" or chunk % n))):
            # some collected attempt (TDMA-NR) or cycle from its generation
            # slot on (TDMA-R) straddles a chunk boundary
            assert np.any((times - ages) // chunk < (times - 1) // chunk)

    @pytest.mark.parametrize("chunk", [3, 8])
    def test_tdma_r_cycle_across_chunks(self, chunk):
        # a lossy second device stretches cycles over several chunks, so
        # the unfinished cycle's state carries through whole chunks
        probs, horizon, seed = (0.1, 0.95, 0.0), 3000, 17
        want_times, want_ages = _tdma_r_reference(probs, _draws(seed, horizon))
        with mock.patch.object(sim, "_CHUNK", chunk):
            times, ages = _kernel_trace(SchemeKind.TDMA_R, probs, horizon, seed)
        assert np.array_equal(times, want_times)
        assert np.array_equal(ages, want_ages)
        # a cycle longer than two chunks spans at least three
        assert np.any(ages > 2 * chunk)

    @pytest.mark.parametrize("chunk", [3, 65536])
    @pytest.mark.parametrize("per", [0.0, 0.3, 0.99])
    def test_one_device_kernels_agree(self, per, chunk):
        # at N = 1 each success is a collection of age 1 under every scheme
        # and an FDMA round is one draw, so the three traces coincide
        with mock.patch.object(sim, "_CHUNK", chunk):
            traces = [_kernel_trace(scheme, (per,), 5000, 61) for scheme in SchemeKind]
        times, ages = traces[0]
        assert times.size >= 2 and np.all(ages == 1.0)
        for other_times, other_ages in traces[1:]:
            assert np.array_equal(other_times, times)
            assert np.array_equal(other_ages, ages)

    @settings(max_examples=150, deadline=None)
    @given(scheme=st.sampled_from(list(SchemeKind)),
           probs=st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99]),
                          min_size=1, max_size=6),
           horizon=st.integers(1, 300),
           seed=st.integers(0, 2 ** 64 - 1),
           chunk=st.integers(1, 40),
           cutoff=st.integers(0, 6))
    def test_simulate_matches_reference(self, scheme, probs, horizon, seed, chunk,
                                        cutoff):
        # tiny chunks put chunk boundaries, and so the carried runs and
        # cycles, inside short horizons; the cutoff sends N <= 6 down either
        # FDMA success test
        want_times, want_ages = _reference_trace(scheme, probs, horizon, seed)
        config = SimConfig(scheme, make_per_vector(probs), horizon, seed)
        with mock.patch.object(sim, "_CHUNK", chunk), \
                mock.patch.object(sim, "_FDMA_ROWS", cutoff + 1):
            if want_times.size < 2:
                with pytest.raises(ValueError, match="insufficient collections"):
                    simulate(config)
                return
            res = simulate(config)
        assert np.array_equal(res.trace.times, want_times)
        assert np.array_equal(res.trace.ages, want_ages)


class TestDrawStream:
    @pytest.mark.parametrize("count,step,chunk", [
        (1, 1, 4), (10, 1, 4), (12, 3, 4), (12, 3, 2), (30, 6, 40), (7, 7, 1),
    ])
    def test_one_stream_in_draw_order(self, count, step, chunk):
        # every array is a whole number of steps, at most _CHUNK draws unless
        # one step is larger, and together they are the plain stream
        with mock.patch.object(sim, "_CHUNK", chunk):
            parts = list(sim._draws(np.random.Generator(np.random.PCG64(5)),
                                    count, step))
        assert all(p.size % step == 0 and 0 < p.size <= max(chunk, step)
                   for p in parts)
        assert np.array_equal(np.concatenate(parts), _draws(5, count))


class TestTraceProperties:
    def test_nr_reset_age_is_always_n(self):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.2] * 3),
                                 30_000, 5))
        assert np.all(res.trace.ages == 3.0)

    def test_r_reset_age_at_least_n(self):
        res = simulate(SimConfig(SchemeKind.TDMA_R, make_per_vector([0.2] * 3),
                                 30_000, 5))
        assert np.all(res.trace.ages >= 3.0)
        # retransmission-free rounds reset exactly to N and do occur
        assert np.any(res.trace.ages == 3.0)
        assert np.any(res.trace.ages > 3.0)

    def test_r_zero_loss_reset_age_exactly_n(self):
        res = simulate(SimConfig(SchemeKind.TDMA_R, make_per_vector([0.0] * 3),
                                 3_000, 11))
        assert np.all(res.trace.ages == 3.0)
        assert res.avg_aoc == 4.5

    def test_fdma_gaps_are_geometric(self):
        p = make_per_vector([0.3, 0.3])
        res = simulate(SimConfig(SchemeKind.FDMA, p, 100_000, 21))
        gaps = np.diff(res.trace.times)
        want = 1.0 / fdma_gamma(p)
        se = float(np.std(gaps, ddof=1)) / math.sqrt(gaps.size)
        assert abs(float(np.mean(gaps)) - want) <= 3.0 * se

    def test_partial_round_discarded(self):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0, 0.0]),
                                 5, 3))
        assert res.trace.times.tolist() == [2.0, 4.0]
        assert res.collections == 2

    def test_two_collections_give_infinite_ci(self):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0, 0.0]),
                                 4, 3))
        assert res.collections == 2
        assert math.isinf(res.ci_halfwidth)


class TestOrderHandling:
    def test_order_is_not_a_config_argument(self):
        # a config's p is already in transmission order; callers permute it
        p = make_per_vector([0.1, 0.2, 0.3])
        with pytest.raises(TypeError):
            SimConfig(SchemeKind.TDMA_NR, p, 100, 0, order=(3, 1, 2))

    def test_r_order_invariance_within_ci(self):
        # permuting the tail devices leaves the TDMA-R distribution alone
        p = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        a = simulate(SimConfig(SchemeKind.TDMA_R, p.permuted((1, 2, 3, 4, 5, 6)),
                               200_000, 31))
        b = simulate(SimConfig(SchemeKind.TDMA_R, p.permuted((1, 2, 3, 6, 4, 5)),
                               200_000, 32))
        combined = math.hypot(a.ci_halfwidth, b.ci_halfwidth)
        assert abs(a.avg_aoc - b.avg_aoc) <= 3.0 * combined

    def test_order_changes_nr_statistics(self):
        p = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        a = simulate(SimConfig(SchemeKind.TDMA_NR, p.permuted((1, 2, 3, 4, 5, 6)),
                               200_000, 8))
        b = simulate(SimConfig(SchemeKind.TDMA_NR, p.permuted((6, 1, 2, 3, 4, 5)),
                               200_000, 8))
        assert a.avg_aoc != b.avg_aoc


class TestErrors:
    def test_horizon_too_short(self):
        with pytest.raises(ValueError, match="insufficient collections"):
            simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0, 0.0]), 3, 0))

    def test_starvation(self):
        p = make_per_vector([0.95] * 4)
        with pytest.raises(ValueError, match="insufficient collections"):
            simulate(SimConfig(SchemeKind.TDMA_NR, p, 50, 0))

    @pytest.mark.parametrize("kw", [
        dict(horizon=0),
        dict(horizon=True),
        dict(seed=-1),
        dict(seed=2 ** 64),
    ])
    def test_config_validation(self, kw):
        base = dict(scheme=SchemeKind.TDMA_NR, p=P_HALF, horizon=100, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            SimConfig(**base)

    @pytest.mark.parametrize("kw, message", [
        (dict(scheme="fdma"), "scheme must be a SchemeKind, got 'fdma'"),
        (dict(p=(0.1,)), r"p must be a PerVector, got \(0.1,\)"),
    ], ids=["scheme", "p"])
    def test_config_types(self, kw, message):
        base = dict(scheme=SchemeKind.FDMA, p=P_HALF, horizon=100, seed=0)
        base.update(kw)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(**base)

    def test_rng_name_is_read_only(self):
        res = simulate(SimConfig(SchemeKind.FDMA, P_HALF, 100, 0))
        assert res.rng_name == RNG_NAME == "PCG64"
        with pytest.raises(AttributeError):
            res.rng_name = "MT19937"
        with pytest.raises(TypeError):
            SimResult(trace=res.trace, avg_aoc=res.avg_aoc,
                      ci_halfwidth=res.ci_halfwidth, rng_name="MT19937")

    def test_result_validation(self):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0]), 10, 0))
        with pytest.raises(ValueError):
            SimResult(trace=res.trace, avg_aoc=res.avg_aoc, ci_halfwidth=-0.5)
        with pytest.raises(ValueError):
            SimResult(trace=res.trace, avg_aoc=math.inf, ci_halfwidth=res.ci_halfwidth)
        # the collection count is the trace's, not a separate setting
        assert res.collections == len(res.trace)
        with pytest.raises(AttributeError):
            res.collections = 0


class TestSimulateMs:
    def test_identity_scaling_reproduces_slot_units(self):
        cfg = SimConfig(SchemeKind.TDMA_R, P_HALF, 50_000, 4)
        slot = simulate(cfg)
        ms = simulate_ms(cfg, UNIT)
        assert ms.avg_aoc == slot.avg_aoc
        assert ms.ci_halfwidth == slot.ci_halfwidth
        assert np.array_equal(ms.trace.times, slot.trace.times)
        # only the two statistics are scaled; the base trace passes through
        with mock.patch.object(sim, "simulate", return_value=slot):
            assert simulate_ms(cfg, UNIT).trace is slot.trace
        assert ms.trace.unit == "slots"

    def test_zero_loss_reference_timings(self):
        timing = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)
        nr = simulate_ms(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0] * 6),
                                   6_000, 0), timing)
        assert nr.avg_aoc == pytest.approx(0.936, rel=1e-12)
        fd = simulate_ms(SimConfig(SchemeKind.FDMA, make_per_vector([0.0] * 6),
                                   1_000, 0), timing)
        assert fd.avg_aoc == pytest.approx(0.336, rel=1e-12)

    def test_fdma_uses_round_duration(self):
        timing = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=2.5)
        cfg = SimConfig(SchemeKind.FDMA, P_HALF, 10_000, 9)
        assert simulate_ms(cfg, timing).avg_aoc == 2.5 * simulate(cfg).avg_aoc
        # and the TDMA schemes use the slot duration
        timing = TimingModel(tdma_slot_ms=0.75, fdma_round_ms=2.5)
        for scheme in (SchemeKind.TDMA_NR, SchemeKind.TDMA_R):
            cfg = SimConfig(scheme, P_HALF, 10_000, 9)
            assert simulate_ms(cfg, timing).avg_aoc == 0.75 * simulate(cfg).avg_aoc


class TestQuantile:
    def test_expansion_matches_scipy(self):
        # the four-term expansion's error is largest at df = 20 (2.39e-7)
        # and falls as df^-5
        stats = pytest.importorskip("scipy.stats")
        df = np.geomspace(20, 1e8, 200)
        got = np.array([sim._t975(x) for x in df.tolist()])
        assert np.max(np.abs(got - stats.t.ppf(0.975, df))) <= 2.4e-7

    def test_floor_keeps_df_in_checked_range(self):
        assert sim._MIN_CYCLES - 1 >= 20


class TestQuantileTable:
    """_t975 against scipy on a table of 19 doubling degrees of freedom,
    df = 20 * 2^(n-1) for n = 1..19: the gap stays within the truncation
    error 2.4e-7 * (20/df)^5 plus eight ulps of rounding, so from about
    df = 1280 up the expansion agrees with scipy to rounding."""

    @pytest.mark.parametrize("n", range(1, 20))
    def test_matches_scipy_exactly(self, n):
        stats = pytest.importorskip("scipy.stats")
        df = 20 * 2 ** (n - 1)
        got = sim._t975(df)
        want = float(stats.t.ppf(0.975, df))
        assert abs(got - want) <= 2.4e-7 * (20 / df) ** 5 + 8 * math.ulp(want)


def _binomial_tails(hits, runs, p):
    # P(X <= hits) and P(X >= hits) for X ~ Binomial(runs, p)
    pmf = [math.exp(math.lgamma(runs + 1) - math.lgamma(i + 1) - math.lgamma(runs - i + 1)
                    + i * math.log(p) + (runs - i) * math.log1p(-p))
           for i in range(runs + 1)]
    return math.fsum(pmf[:hits + 1]), math.fsum(pmf[hits:])


class TestCoverage:
    """The 95% half-width covers the closed-form average about as often as
    it claims.  Each case counts the seeded runs with at least _MIN_CYCLES
    intervals whose interval covers the closed form, and fails when that
    count would occur with probability <= 5e-7 under a coverage of `lo`
    (too few) or of 0.97 (too many), so a correct estimator fails a case
    with probability <= 1e-6.  Each `lo` sits 1-3 standard errors below the
    coverage measured on 1,500-3,000 other seeds: TDMA-R 0.947 at ~400
    intervals, where dropping the lag-1 term gives 0.873; FDMA 0.912 at
    ~410; TDMA-NR 0.909 at ~245."""

    @pytest.mark.parametrize("scheme,closed_form,per,horizon,runs,lo", [
        (SchemeKind.TDMA_R, tdma_r_avg_aoc_slots, 0.6, 3000, 1600, 0.93),
        (SchemeKind.FDMA, fdma_avg_aoc_rounds, 0.5, 3332, 800, 0.89),
        (SchemeKind.TDMA_NR, tdma_nr_avg_aoc_slots, 0.6, 6000, 800, 0.88),
    ], ids=["tdma-r", "fdma", "tdma-nr"])
    def test_covers_the_closed_form(self, scheme, closed_form, per, horizon, runs, lo):
        p = make_per_vector([per] * 3)
        want = closed_form(p)
        hits = counted = 0
        for seed in range(runs):
            res = simulate(SimConfig(scheme, p, horizon, seed))
            if res.collections - 1 < sim._MIN_CYCLES:
                assert math.isinf(res.ci_halfwidth)
                continue
            counted += 1
            hits += abs(res.avg_aoc - want) <= res.ci_halfwidth
        assert counted >= 0.99 * runs
        assert _binomial_tails(hits, counted, lo)[0] > 5e-7, (hits, counted)
        assert _binomial_tails(hits, counted, 0.97)[1] > 5e-7, (hits, counted)

    def test_floor_is_exact(self):
        # intervals of 1 to 3 slots, all reset ages 1
        for cycles, finite in ((sim._MIN_CYCLES - 1, False), (sim._MIN_CYCLES, True)):
            gaps = np.random.default_rng(cycles).integers(1, 4, cycles)
            times = np.cumsum(np.concatenate(([1.0], gaps)))
            ci = sim._regenerative_ci(AocTrace(times, np.ones(times.size), "slots"))
            assert math.isfinite(ci) == finite and ci > 0.0

    def test_cancelled_variance_reports_inf(self):
        # intervals of 1 and 2 slots in turn: the lag-1 term cancels the
        # lag-0 term, which leaves no usable variance estimate
        times = np.cumsum([1.0] + [1.0 + i % 2 for i in range(2 * sim._MIN_CYCLES)])
        trace = AocTrace(times, np.ones(times.size), "slots")
        assert math.isinf(sim._regenerative_ci(trace))


class TestPrefixStability:
    """The events up to h1 of a run to h2 are the run to h1, whatever the
    chunk size of either run.  This pins every kernel's carry across
    chunk boundaries without a reference loop, at N from 1 to 48 and on
    both sides of FDMA's device-major success test."""

    @pytest.mark.parametrize("n", [1, 2, 6, 10, 11, 16, 17, 31, 32, 48])
    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.token)
    def test_prefix_of_a_longer_run(self, scheme, n):
        probs = tuple(float(x) for x in
                      np.random.default_rng(n).uniform(0.0, min(0.5, 2.0 / n), n))
        h1, h2, seed = 701, 1200, 7919 * n
        for short_chunk, long_chunk in ((3, 65536), (65536, 5), (17, 256)):
            with mock.patch.object(sim, "_CHUNK", long_chunk):
                times, ages = _kernel_trace(scheme, probs, h2, seed)
            with mock.patch.object(sim, "_CHUNK", short_chunk):
                want_times, want_ages = _kernel_trace(scheme, probs, h1, seed)
            keep = times <= h1
            assert want_times.size > 0
            assert np.array_equal(times[keep], want_times)
            assert np.array_equal(ages[keep], want_ages)


def _geometric_pmf(q, top):
    # P(G = k) for k = 0..top, G the slots up to the first success, each
    # slot succeeding with probability q
    return np.concatenate(([0.0], q * (1.0 - q) ** np.arange(top)))


def _sum_pmf(qs, top):
    # the law of a sum of independent geometrics, exact up to top
    pmf = np.zeros(top + 1)
    pmf[0] = 1.0
    for q in qs:
        pmf = np.convolve(pmf, _geometric_pmf(q, top))[:top + 1]
    return pmf


def _run_of_n_pmf(probs, top):
    # P(D = t) for t = 0..top, D the slot that completes N successes in a
    # row, the m-th slot of a run sent by device m and a failure restarting
    # at device 1: one pass over the N states per slot
    p = np.array(probs)
    q = 1.0 - p
    state = np.zeros(p.size)    # P(device j sends next, no collection yet)
    state[0] = 1.0
    pmf = np.zeros(top + 1)
    for t in range(1, top + 1):
        pmf[t] = state[-1] * q[-1]
        state = np.concatenate(([state @ p], state[:-1] * q[:-1]))
    return pmf


def _dkw_ratio(samples, pmf, alpha):
    # sup |F_m - F| over the integers, as a share of the DKW bound eps with
    # P(sup > eps) <= 2 exp(-2 m eps^2) = alpha for m i.i.d. samples; both
    # CDFs are flat between integers, and past max(samples) the gap only
    # narrows, so 0..max(samples) is every point that can attain the sup
    top = int(samples.max())
    emp = np.cumsum(np.bincount(samples, minlength=top + 1)) / samples.size
    eps = math.sqrt(math.log(2.0 / alpha) / (2.0 * samples.size))
    return float(np.max(np.abs(emp - np.cumsum(pmf[:top + 1])))) / eps


class TestRenewalLaw:
    """Each scheme's renewal intervals follow the exact law of the paper's
    chain, which the per-slot reference loops do not check: they read the
    model as the kernels do.  With D the interval length and A the reset
    age that ends it (q_k = 1 - p_k):

      FDMA     A = 1 and D ~ Geom(prod q_k);
      TDMA-R   D = G_1 + ... + G_N with G_k ~ Geom(q_k) independent,
               D - A + 1 = G_1 and A - 1 = G_2 + ... + G_N;
      TDMA-NR  A = N and D is the hitting time of a run of N successes.

    Intervals are i.i.d., so the DKW inequality (Massart's constant) bounds
    each empirical CDF's distance from the exact one.  A case's false-alarm
    probability is at most _ALPHA, split evenly over its statistics."""

    _ALPHA = 1e-6

    @pytest.mark.parametrize("n", [1, 2, 6, 10, 11, 16, 17, 31, 32, 48])
    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.token)
    def test_intervals_follow_the_law(self, scheme, n):
        probs = tuple(float(x) for x in
                      np.random.default_rng(500 + n).uniform(0.0, min(0.5, 1.5 / n), n))
        horizon = 20_000 if scheme is SchemeKind.FDMA else 40_000
        trace = simulate(SimConfig(scheme, make_per_vector(probs), horizon, 77 * n)).trace
        d = trace.gaps.astype(int)
        a = trace.ages[1:].astype(int)
        q = [1.0 - x for x in probs]
        if scheme is SchemeKind.FDMA:
            assert np.all(a == 1)
            checks = [(d, _geometric_pmf(math.prod(q), int(d.max())))]
        elif scheme is SchemeKind.TDMA_NR:
            assert np.all(a == n)
            checks = [(d, _run_of_n_pmf(probs, int(d.max())))]
        else:
            g1, rest = d - a + 1, a - 1
            checks = [(d, _sum_pmf(q, int(d.max()))),
                      (g1, _geometric_pmf(q[0], int(g1.max()))),
                      (rest, _sum_pmf(q[1:], int(rest.max())))]
        assert d.size >= 200
        ratios = [_dkw_ratio(x, pmf, self._ALPHA / len(checks)) for x, pmf in checks]
        assert max(ratios) <= 1.0, ratios
