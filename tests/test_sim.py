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
from aockit.sim import RNG_NAME, SimConfig, SimResult, _T975, simulate, simulate_ms

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


_KERNELS = {
    SchemeKind.TDMA_NR: (sim._run_tdma_nr, _tdma_nr_reference),
    SchemeKind.TDMA_R: (sim._run_tdma_r, _tdma_r_reference),
    SchemeKind.FDMA: (sim._run_fdma, _fdma_reference),
}


def _reference_trace(scheme, probs, horizon, seed):
    n = len(probs) if scheme is SchemeKind.FDMA else None
    return _KERNELS[scheme][1](probs, _draws(seed, horizon, n))


def _kernel_trace(scheme, probs, horizon, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    times, ages = _KERNELS[scheme][0](probs, horizon, rng)
    return np.asarray(times, dtype=float), np.asarray(ages, dtype=float)


def _chunk_units(scheme, n):
    # slots (TDMA) or rounds (FDMA) drawn per chunk
    return max(1, sim._CHUNK // n) if scheme is SchemeKind.FDMA else sim._CHUNK


def _per_vector(kind, n):
    if kind == "zero":
        return (0.0,) * n
    rng = np.random.default_rng(n)
    if kind == "light":    # long attempts: most pass the first _DENSE devices
        return tuple(float(x) for x in rng.uniform(0.0, 0.03, n))
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

    @pytest.mark.parametrize("horizon", list(_HORIZONS))
    @pytest.mark.parametrize("per", ["zero", "light", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 6, 17, 48])
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
        if scheme is not SchemeKind.FDMA and (per, horizon) == ("zero", "3chunk+17") \
                and chunk % n:
            # some collected attempt straddles a chunk boundary
            assert np.any((times - n) % chunk > times % chunk)

    @settings(max_examples=150, deadline=None)
    @given(scheme=st.sampled_from(list(SchemeKind)),
           probs=st.lists(st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99]),
                          min_size=1, max_size=6),
           horizon=st.integers(1, 300),
           seed=st.integers(0, 2 ** 64 - 1),
           chunk=st.integers(1, 40),
           dense=st.integers(1, 4))
    def test_simulate_matches_reference(self, scheme, probs, horizon, seed, chunk, dense):
        # tiny chunks and dense widths put chunk boundaries and slice-checked
        # attempt tails inside short horizons
        want_times, want_ages = _reference_trace(scheme, probs, horizon, seed)
        config = SimConfig(scheme, make_per_vector(probs), horizon, seed)
        with mock.patch.object(sim, "_CHUNK", chunk), \
                mock.patch.object(sim, "_DENSE", dense):
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
    def test_effective_per_applies_order(self):
        p = make_per_vector([0.1, 0.2, 0.3])
        cfg = SimConfig(SchemeKind.TDMA_NR, p, 100, 0, order=(3, 1, 2))
        assert cfg.effective_per().probs == (0.3, 0.1, 0.2)
        assert SimConfig(SchemeKind.TDMA_NR, p, 100, 0).effective_per() is p

    def test_r_order_invariance_within_ci(self):
        # permuting the tail devices leaves the TDMA-R distribution alone
        p = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        a = simulate(SimConfig(SchemeKind.TDMA_R, p, 200_000, 31,
                               order=(1, 2, 3, 4, 5, 6)))
        b = simulate(SimConfig(SchemeKind.TDMA_R, p, 200_000, 32,
                               order=(1, 2, 3, 6, 4, 5)))
        combined = math.hypot(a.ci_halfwidth, b.ci_halfwidth)
        assert abs(a.avg_aoc - b.avg_aoc) <= 3.0 * combined

    def test_order_changes_nr_statistics(self):
        p = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        a = simulate(SimConfig(SchemeKind.TDMA_NR, p, 200_000, 8,
                               order=(1, 2, 3, 4, 5, 6)))
        b = simulate(SimConfig(SchemeKind.TDMA_NR, p, 200_000, 8,
                               order=(6, 1, 2, 3, 4, 5)))
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
        dict(order=(2, 1, 1)),
        dict(order=(1, 2, 3)),
    ])
    def test_config_validation(self, kw):
        base = dict(scheme=SchemeKind.TDMA_NR, p=P_HALF, horizon=100, seed=0)
        base.update(kw)
        with pytest.raises(ValueError):
            SimConfig(**base)

    def test_order_rejected_for_fdma(self):
        with pytest.raises(ValueError, match="TDMA"):
            SimConfig(SchemeKind.FDMA, P_HALF, 100, 0, order=(2, 1))

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


class TestQuantileTable:
    def test_one_entry_per_batch_count(self):
        # 2..20 batches give 1..19 degrees of freedom
        assert len(_T975) == 19

    @pytest.mark.parametrize("df", range(1, 20))
    def test_matches_scipy_exactly(self, df):
        stats = pytest.importorskip("scipy.stats")
        assert _T975[df - 1] == float(stats.t.ppf(0.975, df))
