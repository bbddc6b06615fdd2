"""Seeded slot-level simulators for the three access schemes.

The simulators are the independent check on the closed forms: they share
nothing with the analysis module except the domain types and the trace
integrator.  Each run draws one uniform variate per packet transmission
attempt, consumed in slot order (FDMA rounds consume their N draws in
device order), from a PCG64 generator seeded by SimConfig.seed.  That
convention pins the seed-to-trace mapping, so identical configs give
bit-identical results; the generator name travels in SimResult.rng_name.

ACK and feedback are instantaneous and error-free inside the slot
abstraction; MAC overhead lives entirely in TimingModel.  The horizon
counts slots (TDMA) or rounds (FDMA) and any collection still in progress
at the horizon is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    AocTrace,
    PerVector,
    SchemeKind,
    TimingModel,
    _check_horizon,
    _check_permutation,
    _check_seed,
    integrate_trace,
)

__all__ = ["RNG_NAME", "SimConfig", "SimResult", "simulate", "simulate_ms"]

RNG_NAME = "PCG64"

_CHUNK = 1 << 16

# Student-t 97.5% quantiles for 1..19 degrees of freedom: the batch-means
# CI uses at most 20 batches.  Each entry is the float scipy.stats.t.ppf
# returns, so half-widths match a scipy-based computation bit for bit.
_T975 = (
    12.706204736174694,
    4.302652729749462,
    3.1824463052837078,
    2.7764451051977934,
    2.5705818356363146,
    2.4469118511449786,
    2.364624251592784,
    2.306004135204166,
    2.262157162798205,
    2.228138851986274,
    2.200985160091639,
    2.1788128296672284,
    2.1603686564627913,
    2.144786687917804,
    2.131449545559776,
    2.1199052992212546,
    2.1098155778333156,
    2.1009220402410382,
    2.0930240544083087,
)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scheme, error rates, horizon, seed, order.

    horizon counts slots for the TDMA schemes and rounds for FDMA.  order
    is the device transmission order (a permutation of 1..N, TDMA only);
    None means devices transmit in index order.
    """

    scheme: SchemeKind
    p: PerVector
    horizon: int
    seed: int
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.scheme, SchemeKind):
            raise ValueError(f"scheme must be a SchemeKind, got {self.scheme!r}")
        if not isinstance(self.p, PerVector):
            raise ValueError(f"p must be a PerVector, got {self.p!r}")
        _check_horizon(self.horizon)
        _check_seed(self.seed)
        if self.order is not None:
            if self.scheme is SchemeKind.FDMA:
                raise ValueError("order applies to TDMA schemes only")
            object.__setattr__(self, "order", _check_permutation(self.order, self.p.n))

    def effective_per(self) -> PerVector:
        """Error rates in transmission order."""
        if self.order is None:
            return self.p
        return self.p.permuted(self.order)


@dataclass(frozen=True)
class SimResult:
    """Trace plus its summary statistics, in the trace's units."""

    trace: AocTrace
    avg_aoc: float
    collections: int
    ci_halfwidth: float
    rng_name: str = RNG_NAME

    def __post_init__(self):
        if self.collections != len(self.trace):
            raise ValueError(
                f"collections {self.collections} != trace events {len(self.trace)}"
            )
        if not (math.isfinite(self.avg_aoc) and self.avg_aoc > 0.0):
            raise ValueError(f"avg_aoc must be finite and > 0, got {self.avg_aoc!r}")
        if math.isnan(self.ci_halfwidth) or self.ci_halfwidth < 0.0:
            raise ValueError(f"ci_halfwidth must be >= 0, got {self.ci_halfwidth!r}")


def simulate(config: SimConfig) -> SimResult:
    """Run one seeded simulation and return trace, average and 95% CI.

    Raises ValueError("insufficient collections") when the horizon yields
    fewer than two complete collections, whether because the horizon is
    short or because the error rates starve the system.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if config.scheme is SchemeKind.FDMA:
        times, ages = _run_fdma(config.p.as_array(), config.horizon, rng)
        unit = "rounds"
    else:
        probs = config.effective_per().probs
        if config.scheme is SchemeKind.TDMA_NR:
            times, ages = _run_tdma_nr(probs, config.horizon, rng)
        else:
            times, ages = _run_tdma_r(probs, config.horizon, rng)
        unit = "slots"
    if len(times) < 2:
        raise ValueError("insufficient collections")
    trace = AocTrace(np.asarray(times), np.asarray(ages), unit)
    return SimResult(
        trace=trace,
        avg_aoc=integrate_trace(trace),
        collections=len(trace),
        ci_halfwidth=_batch_means_ci(trace),
    )


def simulate_ms(config: SimConfig, timing: TimingModel) -> SimResult:
    """simulate() with the trace and statistics scaled to milliseconds."""
    base = simulate(config)
    if config.scheme is SchemeKind.FDMA:
        factor = timing.fdma_round_ms
    else:
        factor = timing.tdma_slot_ms
    return SimResult(
        trace=base.trace.scaled(factor, "ms"),
        avg_aoc=base.avg_aoc * factor,
        collections=base.collections,
        ci_halfwidth=base.ci_halfwidth * factor,
        rng_name=base.rng_name,
    )


def _uniform_chunks(rng: np.random.Generator, count: int):
    # yields the count uniforms as float lists of up to _CHUNK each, so the
    # pure-Python slot loops iterate plain lists, not a per-float generator
    remaining = count
    while remaining > 0:
        m = min(_CHUNK, remaining)
        yield rng.random(m).tolist()
        remaining -= m


def _run_tdma_nr(probs, horizon: int, rng) -> tuple[list, list]:
    n = len(probs)
    times: list[float] = []
    ages: list[float] = []
    pos = 0      # device transmitting this slot (0-based)
    start = 0    # slot index at which the current batch was generated
    t = 0
    for chunk in _uniform_chunks(rng, horizon):
        for u in chunk:
            if u < probs[pos]:
                # decode failure: abort the round, fresh packets next slot
                pos = 0
                start = t + 1
            else:
                pos += 1
                if pos == n:
                    # full collection at the end of this slot
                    times.append(float(t + 1))
                    ages.append(float(t + 1 - start))
                    pos = 0
                    start = t + 1
            t += 1
    return times, ages


def _run_tdma_r(probs, horizon: int, rng) -> tuple[list, list]:
    n = len(probs)
    times: list[float] = []
    ages: list[float] = []
    pos = 0    # device transmitting this slot (0-based)
    gen = 0    # slot index of the batch generation
    t = 0
    for chunk in _uniform_chunks(rng, horizon):
        for u in chunk:
            if pos == 0:
                # first device (re)generates at the start of its attempt slot,
                # so a failure here repeats with a fresh batch next slot
                gen = t
            if u >= probs[pos]:
                pos += 1
                if pos == n:
                    times.append(float(t + 1))
                    ages.append(float(t + 1 - gen))
                    pos = 0
            # failure at pos >= 1: same device retransmits the same packet
            t += 1
    return times, ages


def _run_fdma(probs, horizon: int, rng) -> tuple[list, list]:
    n = probs.size
    times: list[float] = []
    ages: list[float] = []
    done = 0
    chunk = max(1, _CHUNK // n)
    while done < horizon:
        m = min(chunk, horizon - done)
        u = rng.random((m, n))   # row-major: device draws in slot order
        hits = np.flatnonzero((u >= probs).all(axis=1))
        times.extend((hits + (done + 1)).tolist())
        ages.extend([1.0] * hits.size)
        done += m
    return times, ages


def _batch_means_ci(trace: AocTrace) -> float:
    """95% half-width on the sawtooth average via batch means.

    The per-interval areas and durations are grouped into 20 (or fewer,
    when there are not enough intervals) contiguous batches; each batch
    contributes the ratio estimate area/duration, and the half-width is
    the Student-t 97.5% quantile (_T975) times the standard error of the
    batch ratios.  Short traces (< 40 events) drop the first batch.  Fewer
    than two usable batches give an infinite half-width; a deterministic
    trace gives zero.
    """
    gaps = np.diff(trace.times)
    n_int = int(gaps.size)
    if n_int < 2:
        return math.inf
    areas = trace.ages[:-1] * gaps + 0.5 * gaps * gaps
    batches = np.array_split(np.arange(n_int), min(20, n_int))
    if len(trace) < 40 and len(batches) > 2:
        batches = batches[1:]
    ratios = np.array([np.sum(areas[b]) / np.sum(gaps[b]) for b in batches])
    m = ratios.size
    if m < 2:
        return math.inf
    s = float(np.std(ratios, ddof=1))
    if s == 0.0:
        return 0.0
    return _T975[m - 2] * s / math.sqrt(m)
