"""Tests of the benchmark's own helpers: tail rule, windowed rate, inputs,
self time, oracle, wrappers."""

import math

import pytest

from perfbench import metrics, oracle, tracing, workloads
from perfbench.tracing import Span, Tracer, self_times


class TestTail:
    def test_smallest_sample_count_uses_the_minimum(self):
        value, pct, n = metrics.tail(range(11, 0, -1))
        assert (value, n) == (1, 11)
        assert pct == pytest.approx(100 / 11)

    def test_hundred_samples_give_p90(self):
        value, pct, n = metrics.tail([float(i) for i in range(100)])
        assert (value, pct, n) == (89.0, 90.0, 100)
        assert sum(1 for x in range(100) if x > value) == metrics.TAIL_BEYOND

    def test_ten_beyond_at_every_size(self):
        for n in (11, 37, 250, 1001):
            xs = [float(i) for i in reversed(range(n))]
            value, pct, _ = metrics.tail(xs)
            assert sum(1 for x in xs if x > value) == metrics.TAIL_BEYOND
            assert pct == pytest.approx(100 * (n - metrics.TAIL_BEYOND) / n)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            metrics.tail(range(10))


class TestWindowedRate:
    def test_steady_times_give_their_rate(self):
        assert metrics.windowed_rate([0.5] * 40) == pytest.approx(2.0)

    def test_one_slow_window_does_not_move_the_median(self):
        times = [0.1] * 90 + [1.0] * 10      # the last tenth runs 10x slower
        assert metrics.windowed_rate(times) == pytest.approx(10.0)
        assert len(times) / sum(times) < 6.0  # where the plain mean would land

    def test_fewer_samples_than_windows(self):
        assert metrics.windowed_rate([0.25, 0.5, 1.0]) == pytest.approx(2.0)

    def test_every_sample_lands_in_one_window(self):
        # 23 samples into 10 windows: 2 or 3 each, none dropped
        times = [float(i + 1) for i in range(23)]
        bounds = [round(i * 23 / 10) for i in range(11)]
        assert bounds[0] == 0 and bounds[-1] == 23
        assert {hi - lo for lo, hi in zip(bounds, bounds[1:])} == {2, 3}
        assert metrics.windowed_rate(times) > 0

    def test_no_samples(self):
        with pytest.raises(ValueError):
            metrics.windowed_rate([])


class TestWorkloads:
    def test_theory_scans_are_seeded_and_capped(self):
        scans = workloads.theory_scale_inputs(5)
        assert scans == workloads.theory_scale_inputs(5)
        assert scans != workloads.theory_scale_inputs(6)
        assert len(scans) == workloads.THEORY_SCANS
        for calls in scans:
            assert len(calls) == (3 * workloads.THEORY_VECTORS_PER_N
                                  * len(workloads.THEORY_NS))
            for _, probs in calls:
                top = min(workloads.THEORY_PER_MAX, workloads.THEORY_LOAD / len(probs))
                assert max(probs) < top

    def test_defect_grid_keeps_the_full_per_range_at_large_n(self):
        calls = workloads.defect_grid_inputs(5)
        big = [probs for _, probs in calls if len(probs) == 256]
        assert len(big) == 3 * workloads.DEFECT_VECTORS_PER_N
        assert all(max(probs) > 0.15 for probs in big)


def _span(name, start, end, parent, op=1):
    return Span(name, float(start), float(end), parent, op)


class TestSelfTime:
    def test_nested_children_and_grandchildren(self):
        spans = [
            _span("cli.main", 0, 10, -1),
            _span("sweep.run_sweep", 1, 4, 0),
            _span("sim.simulate", 2, 3, 1),
            _span("analysis.avg_aoc_ms", 5, 7, 0),
        ]
        assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]

    def test_overlapping_children_count_once(self):
        spans = [
            _span("sweep.run_sweep", 0, 10, -1),
            _span("sim.simulate", 2, 6, 0),
            _span("sim.simulate", 4, 8, 0),
            _span("sim.simulate", 9, 12, 0),   # runs past its parent's end
        ]
        assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)

    def test_tracer_links_parents_and_ops(self):
        tracer = Tracer()
        tracer.op = 7

        def inner():
            return tracer.call("domain.integrate_trace", lambda: 3)

        assert tracer.call("sim.simulate", inner) == 3
        outer, child = tracer.spans
        assert (outer.parent, child.parent, outer.op, child.op) == (-1, 0, 7, 7)
        assert outer.start <= child.start <= child.end <= outer.end
        own = self_times(tracer.spans)
        assert own[0] == pytest.approx(outer.duration - child.duration)

    def test_error_is_recorded_and_reraised(self):
        tracer = Tracer()

        def boom():
            raise ValueError("solve residual")

        with pytest.raises(ValueError):
            tracer.call("analysis.avg_aoc_ms", boom)
        assert tracer.spans[0].error == "ValueError: solve residual"


class TestOracle:
    # README: six devices at p = 0.1
    README = {"tdma-nr": 11.511, "tdma-r": 9.944, "fdma": 2.381}

    @pytest.mark.parametrize("scheme", sorted(README))
    def test_readme_values(self, scheme):
        value = oracle.avg_aoc_units(scheme, [0.1] * 6)
        assert math.floor(value * 1000) / 1000 == self.README[scheme]

    @pytest.mark.parametrize("scheme", ["tdma-nr", "tdma-r"])
    def test_dense_and_mpmath_routes_agree(self, scheme):
        probs = [0.05 * (i % 7) for i in range(1, 40)]
        dense = oracle._tdma_dense(scheme, probs)
        assert oracle._tdma_mp(scheme, probs) == pytest.approx(dense, rel=1e-12)

    def test_zero_loss(self):
        assert oracle.avg_aoc_units("tdma-nr", [0.0] * 4) == 4 + 4 / 2
        assert oracle.avg_aoc_units("tdma-r", [0.0] * 300) == pytest.approx(1.5 * 300)
        assert oracle.avg_aoc_units("fdma", [0.0] * 9) == 1.5


class TestInstall:
    def test_spans_follow_call_structure_and_uninstall_restores(self):
        aockit_sweep = pytest.importorskip("aockit.sweep")
        import aockit.sim
        from aockit.domain import make_per_vector
        from aockit.timing import default_timing

        before = {(m, a): getattr(__import__(m, fromlist=[a]), a, None)
                  for m, a, _, _ in tracing.WRAP_POINTS}
        tracer = Tracer()
        uninstall = tracing.install(tracer)
        try:
            table = aockit_sweep.single_point_table(make_per_vector([0.1, 0.2]))
            aockit_sweep.run_sweep(table, default_timing(), horizon=2000, seed=1)
        finally:
            uninstall()
        after = {(m, a): getattr(__import__(m, fromlist=[a]), a, None)
                 for m, a, _, _ in tracing.WRAP_POINTS}
        assert after == before
        assert aockit.sim.simulate is before[("aockit.sim", "simulate")]

        names = [s.name for s in tracer.spans]
        assert names[0] == "sweep.run_sweep"
        assert names.count("analysis.avg_aoc_ms") == 3
        assert names.count("sim.simulate_ms") == 3
        for span in tracer.spans:
            parent = tracer.spans[span.parent].name if span.parent >= 0 else None
            expected = {"sweep.run_sweep": None,
                        "analysis.avg_aoc_ms": "sweep.run_sweep",
                        "sim.simulate_ms": "sweep.run_sweep",
                        "sim.simulate": "sim.simulate_ms",
                        "domain.integrate_trace": "sim.simulate"}[span.name]
            assert parent == expected
        layer = metrics.layer_metrics(tracer.spans, passes=1)
        assert layer["sim.units"] == 3 * 2000
        assert layer["analysis.tdma_nr.failed"] == 0
