"""Metric rules: the tail percentile, end-to-end summaries and per-layer
numbers derived from spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

from .tracing import Span, self_times

TAIL_BEYOND = 10
RATE_WINDOWS = 10

SIM_SCHEMES = (("tdma-nr", "sim.tdma_nr.ns_per_slot"),
               ("tdma-r", "sim.tdma_r.ns_per_slot"),
               ("fdma", "sim.fdma.ns_per_round"))
ANALYSIS_SCHEMES = (("tdma-nr", "tdma_nr"), ("tdma-r", "tdma_r"), ("fdma", "fdma"))
NR_SIZES = (8, 64, 256)


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count).  With n sorted samples the
    value at 1-based rank n - TAIL_BEYOND has exactly TAIL_BEYOND samples
    beyond it; its percentile is that rank over n.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def windowed_rate(times, windows: int = RATE_WINDOWS) -> float:
    """Median throughput over consecutive windows of a run's operations.

    The operation times, in the order they ran, are cut into
    min(windows, n) contiguous windows of near-equal count; a window's rate
    is its operation count over its summed time.  A burst of host slowness
    then moves one window's rate, not the run's figure.
    """
    xs = list(times)
    n = len(xs)
    if n == 0:
        raise ValueError("windowed_rate needs at least one sample")
    k = min(windows, n)
    bounds = [round(i * n / k) for i in range(k + 1)]
    return statistics.median((hi - lo) / sum(xs[lo:hi])
                             for lo, hi in zip(bounds, bounds[1:]))


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `passes` traced passes.

    A metric whose spans are absent is left out, so the caller can take it
    from a probe instead.  Per-operation figures group spans by op id.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
    out: dict[str, float] = {}

    def durations_ms(name):
        return [spans[i].duration * 1e3 for i in by_name.get(name, ())]

    def per_op(indices, value):
        totals: dict[int, float] = defaultdict(float)
        for i in indices:
            totals[spans[i].op] += value(i)
        return list(totals.values())

    if by_name.get("cli.main"):
        out["cli.main_ms"] = _median(durations_ms("cli.main"))
        out["cli.main_self_ms"] = _median(selfs[i] * 1e3 for i in by_name["cli.main"])
        out["sweep.emit_bytes"] = _median(spans[i].attrs.get("bytes", 0)
                                          for i in by_name["cli.main"])
    for name, metric in (("sweep.load_per_table", "sweep.load_per_table_ms"),
                         ("sweep.emit_rows", "sweep.emit_rows_ms")):
        if by_name.get(name):
            out[metric] = _median(durations_ms(name))
    if by_name.get("sweep.run_sweep"):
        out["sweep.run_sweep_ms"] = _median(durations_ms("sweep.run_sweep"))
        out["sweep.run_sweep_self_ms"] = _median(
            selfs[i] * 1e3 for i in by_name["sweep.run_sweep"])

    sim_ms = by_name.get("sim.simulate_ms", [])
    if sim_ms:
        for scheme, metric in SIM_SCHEMES:
            mine = [i for i in sim_ms if spans[i].attrs.get("scheme") == scheme]
            units = sum(spans[i].attrs["units"] for i in mine)
            if units:
                out[metric] = sum(spans[i].duration for i in mine) / units * 1e9
        sim_layer = [i for i, s in enumerate(spans) if s.layer == "sim"]
        out["sim.simulate_self_ms"] = _median(per_op(sim_layer, lambda i: selfs[i] * 1e3))
        out["sim.units"] = _median(per_op(sim_ms, lambda i: spans[i].attrs["units"]))
        out["sim.collections"] = _median(
            per_op(sim_ms, lambda i: spans[i].attrs.get("collections", 0)))
    if by_name.get("domain.integrate_trace"):
        out["domain.integrate_trace_ms"] = _median(
            per_op(by_name["domain.integrate_trace"], lambda i: spans[i].duration * 1e3))

    aoc = by_name.get("analysis.avg_aoc_ms", [])
    if aoc:
        for scheme, key in ANALYSIS_SCHEMES:
            mine = [i for i in aoc if spans[i].attrs.get("scheme") == scheme]
            if mine:
                out[f"analysis.{key}.self_ms"] = statistics.fmean(
                    selfs[i] * 1e3 for i in mine)
            if key != "tdma_r":
                errors = sum(1 for i in mine if spans[i].error is not None)
                out[f"analysis.{key}.failed"] = errors / max(passes, 1)
        for n in NR_SIZES:
            mine = [spans[i].duration * 1e6 for i in aoc
                    if spans[i].attrs.get("scheme") == "tdma-nr"
                    and spans[i].attrs.get("n") == n]
            if mine:
                out[f"analysis.tdma_nr.n{n}_p50_us"] = _median(mine)
    if by_name.get("timing.default_timing"):
        out["timing.default_timing_us"] = _median(
            spans[i].duration * 1e6 for i in by_name["timing.default_timing"])
    return out
