import math

import numpy as np
import pytest

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


class TestDrawConvention:
    """The seed-to-trace mapping is one uniform per transmission attempt in
    slot order; these replays pin it across chunk boundaries."""

    def test_tdma_nr_replay(self):
        probs = (0.5, 0.3)
        horizon, seed = 70_000, 424242
        u = np.random.Generator(np.random.PCG64(seed)).random(horizon)
        times, ages = [], []
        pos = start = 0
        for t in range(horizon):
            if u[t] < probs[pos]:
                pos, start = 0, t + 1
            else:
                pos += 1
                if pos == 2:
                    times.append(t + 1.0)
                    ages.append(float(t + 1 - start))
                    pos, start = 0, t + 1
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, np.array(times))
        assert np.array_equal(res.trace.ages, np.array(ages))

    def test_tdma_r_replay(self):
        probs = (0.2, 0.6, 0.4)
        horizon, seed = 70_000, 7
        u = np.random.Generator(np.random.PCG64(seed)).random(horizon)
        times, ages = [], []
        pos = gen = 0
        for t in range(horizon):
            if pos == 0:
                gen = t
            if u[t] >= probs[pos]:
                pos += 1
                if pos == 3:
                    times.append(t + 1.0)
                    ages.append(float(t + 1 - gen))
                    pos = 0
        res = simulate(SimConfig(SchemeKind.TDMA_R, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, np.array(times))
        assert np.array_equal(res.trace.ages, np.array(ages))

    def test_fdma_replay_row_major(self):
        probs = np.array([0.3, 0.1, 0.2])
        horizon, seed = 30_000, 55
        u = np.random.Generator(np.random.PCG64(seed)).random((horizon, 3))
        hit = np.flatnonzero((u >= probs).all(axis=1)) + 1.0
        res = simulate(SimConfig(SchemeKind.FDMA, make_per_vector(probs),
                                 horizon, seed))
        assert np.array_equal(res.trace.times, hit)
        assert np.all(res.trace.ages == 1.0)


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

    def test_result_validation(self):
        res = simulate(SimConfig(SchemeKind.TDMA_NR, make_per_vector([0.0]), 10, 0))
        with pytest.raises(ValueError):
            SimResult(trace=res.trace, avg_aoc=res.avg_aoc,
                      collections=res.collections + 1,
                      ci_halfwidth=res.ci_halfwidth)
        with pytest.raises(ValueError):
            SimResult(trace=res.trace, avg_aoc=res.avg_aoc,
                      collections=res.collections, ci_halfwidth=-0.5)


class TestSimulateMs:
    def test_identity_scaling_reproduces_slot_units(self):
        cfg = SimConfig(SchemeKind.TDMA_R, P_HALF, 50_000, 4)
        slot = simulate(cfg)
        ms = simulate_ms(cfg, UNIT)
        assert ms.avg_aoc == slot.avg_aoc
        assert ms.ci_halfwidth == slot.ci_halfwidth
        assert ms.trace.unit == "ms"
        assert np.array_equal(ms.trace.times, slot.trace.times)

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


class TestQuantileTable:
    def test_one_entry_per_batch_count(self):
        # 2..20 batches give 1..19 degrees of freedom
        assert len(_T975) == 19

    @pytest.mark.parametrize("df", range(1, 20))
    def test_matches_scipy_exactly(self, df):
        stats = pytest.importorskip("scipy.stats")
        assert _T975[df - 1] == float(stats.t.ppf(0.975, df))
