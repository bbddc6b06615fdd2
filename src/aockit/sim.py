"""Seeded slot-level simulators for the three access schemes.

This module owns a simulation run from end to end: its configuration
(SimConfig), the trace of collection events it produces (AocTrace), the
exact time average of that trace (integrate_trace), the confidence
interval, and the result (SimResult).  The simulators are the independent
check on the closed forms: they share nothing with the analysis module
except the domain types.  Each run draws one uniform variate per packet
transmission attempt, consumed in slot order (FDMA rounds consume their N
draws in device order), from a PCG64 generator seeded by SimConfig.seed.
That convention pins the seed-to-trace mapping, so identical configs give
bit-identical results; the generator name travels in SimResult.rng_name.

All draws come from one stream, _draws, in arrays of at most _CHUNK
uniforms.  One driver, _run_kernel, passes each array to the scheme's
step(probs, u, carry) -> (ends, ages, carry), shifts the ends (counted
from the array's first unit) and concatenates them once; a step holds one
array, never the whole horizon, plus a carry of one or two integers:

  TDMA-NR  counting: the sender is the slots since the last failure, mod N,
           and a failure-free run of L slots collects L // N times.
  TDMA-R   counting: the sender is the successes since the last collection,
           mod N; every N-th success ends a cycle, and the first one of the
           cycle is its generation slot.
  FDMA     fully vectorised, no carry: each array is reshaped to rounds
           of N draws, and the collections are the rows in which every
           device succeeds.  Below _FDMA_ROWS the test is device-major.

Both TDMA steps split each array with numpy into sure successes (u >=
max p), sure failures (u < min p) and device-dependent draws, and a Python
loop visits only the device-dependent ones.  Their cost per slot therefore
follows the spread of the PERs, not N: vector passes alone for equal PERs,
and more than a plain slot loop's for PERs spread across [0, 0.9).

ACK and feedback are instantaneous and error-free inside the slot
abstraction; MAC overhead lives entirely in TimingModel.  The horizon
counts slots (TDMA) or rounds (FDMA) and any collection still in progress
at the horizon is discarded.

The 95% confidence half-width is regenerative, over the renewal
intervals with a lag-1 term (_regenerative_ci): inf below _MIN_CYCLES
intervals, where it would cover too rarely, and 0.0 for a deterministic
trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import PerVector, SchemeKind, TimingModel, _check_horizon, _check_seed

__all__ = ["RNG_NAME", "AocTrace", "SimConfig", "SimResult", "integrate_trace",
           "simulate", "simulate_ms"]

RNG_NAME = "PCG64"

_CHUNK = 1 << 16     # uniforms drawn per chunk
_FDMA_ROWS = 32      # fewest FDMA devices for the row-wise success test
_MIN_CYCLES = 200    # fewest renewal intervals for a finite CI half-width

_TRACE_UNITS = ("slots", "rounds")


@dataclass(frozen=True)
class AocTrace:
    """Sequence of successful-collection events of one run.

    times[k] is the completion time of the k-th full collection and
    ages[k] the value the instantaneous age resets to at that moment
    (the packets' age at delivery), both in `unit` units (slots or rounds).
    Between events the age grows with unit slope, so the trace determines
    the sawtooth exactly.

    gaps and areas are the renewal intervals, computed once at
    construction: gaps[k] = times[k+1] - times[k] is the length D of the
    interval after event k, and areas[k] = ages[k] * gaps[k] + gaps[k]**2 / 2
    the sawtooth area Y over it.  Both are read-only and one shorter than
    the trace (empty for fewer than two events).
    """

    times: np.ndarray
    ages: np.ndarray
    unit: str
    gaps: np.ndarray = field(init=False, repr=False, compare=False)
    areas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        ages = np.asarray(self.ages, dtype=float)
        times.setflags(write=False)
        ages.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ages", ages)
        if self.unit not in _TRACE_UNITS:
            raise ValueError(f"unit {self.unit!r} not one of {_TRACE_UNITS}")
        if times.ndim != 1 or ages.ndim != 1 or times.shape != ages.shape:
            raise ValueError("times and ages must be 1-d arrays of equal length")
        if times.size:
            if not np.all(np.isfinite(times)) or not np.all(np.isfinite(ages)):
                raise ValueError("trace entries must be finite")
            if np.any(ages <= 0.0):
                raise ValueError("every reset age must be > 0")
        gaps = np.diff(times)
        if np.any(gaps <= 0.0):
            raise ValueError("completion times must be strictly increasing")
        # the age cannot reset above what it had grown to since the
        # previous collection
        if np.any(ages[1:] > (gaps + ages[:-1]) * (1.0 + 1e-12)):
            raise ValueError("reset age exceeds the age grown since last event")
        areas = ages[:-1] * gaps + 0.5 * gaps * gaps
        gaps.setflags(write=False)
        areas.setflags(write=False)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "areas", areas)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def events(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.ages.tolist()))


def integrate_trace(trace: AocTrace) -> float:
    """Exact time average of the sawtooth between the first and last event.

    The average is the summed interval areas, trace.areas, divided by
    times[-1] - times[0].  The warm-up before the first collection is
    discarded, which matches the renewal-reward form of the closed-form
    averages.
    """
    if len(trace) < 2:
        raise ValueError("insufficient renewal intervals")
    return float(np.sum(trace.areas)) / float(trace.times[-1] - trace.times[0])


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scheme, error rates, horizon and seed.

    p holds the error rates in transmission order: entry j is the PER of
    the device that transmits j-th.  To simulate a TDMA transmission order
    o, pass p.permuted(o); FDMA devices transmit together, so their order
    does not matter.  horizon counts slots for the TDMA schemes and rounds
    for FDMA.
    """

    scheme: SchemeKind
    p: PerVector
    horizon: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.scheme, SchemeKind):
            raise ValueError(f"scheme must be a SchemeKind, got {self.scheme!r}")
        if not isinstance(self.p, PerVector):
            raise ValueError(f"p must be a PerVector, got {self.p!r}")
        _check_horizon(self.horizon)
        _check_seed(self.seed)


@dataclass(frozen=True)
class SimResult:
    """Trace plus its summary statistics.  The trace is in slots or rounds
    (trace.unit); avg_aoc and ci_halfwidth are in those units from
    simulate() and in milliseconds from simulate_ms().  ci_halfwidth is
    the 95% regenerative half-width (_regenerative_ci): inf below
    _MIN_CYCLES renewal intervals, 0.0 for a deterministic trace."""

    trace: AocTrace
    avg_aoc: float
    ci_halfwidth: float

    def __post_init__(self):
        if not (math.isfinite(self.avg_aoc) and self.avg_aoc > 0.0):
            raise ValueError(f"avg_aoc must be finite and > 0, got {self.avg_aoc!r}")
        if math.isnan(self.ci_halfwidth) or self.ci_halfwidth < 0.0:
            raise ValueError(f"ci_halfwidth must be >= 0, got {self.ci_halfwidth!r}")

    @property
    def collections(self) -> int:
        """Complete collections in the run, len(trace)."""
        return len(self.trace)

    @property
    def rng_name(self) -> str:
        """The bit generator behind every trace, RNG_NAME."""
        return RNG_NAME


def simulate(config: SimConfig) -> SimResult:
    """Run one seeded simulation and return trace, average and 95% CI.

    Raises ValueError("insufficient collections: ...") with the count and
    the horizon when the horizon yields fewer than two complete
    collections, whether because the horizon is short or because the
    error rates starve the system.
    """
    step, unit = _KERNELS[config.scheme]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    times, ages = _run_kernel(step, unit, config.p.probs, config.horizon, rng)
    if len(times) < 2:
        raise ValueError(f"insufficient collections: {len(times)} in horizon "
                         f"{config.horizon} {unit}, need 2")
    trace = AocTrace(times, ages, unit)
    return SimResult(
        trace=trace,
        avg_aoc=integrate_trace(trace),
        ci_halfwidth=_regenerative_ci(trace),
    )


def simulate_ms(config: SimConfig, timing: TimingModel) -> SimResult:
    """simulate() with avg_aoc and ci_halfwidth scaled to milliseconds by
    timing.to_ms; the trace stays in slots or rounds."""
    base = simulate(config)
    return replace(base, avg_aoc=timing.to_ms(config.scheme, base.avg_aoc),
                   ci_halfwidth=timing.to_ms(config.scheme, base.ci_halfwidth))


def _draws(rng: np.random.Generator, count: int, step: int = 1):
    # the one draw stream: count uniforms in draw order, as arrays of at
    # most _CHUNK draws (at least step), each size a multiple of step
    size = max(step, _CHUNK - _CHUNK % step)
    while count > 0:
        k = min(size, count)
        yield rng.random(k)
        count -= k


def _run_kernel(step, unit: str, probs, horizon: int, rng):
    # the chunk driver: step over the draw stream, each chunk's ends shifted
    # by the units before it (base); returns float times and ages
    per = len(probs) if unit == "rounds" else 1     # draws per unit
    ends, ages, carry, base = [], [], None, 0
    for u in _draws(rng, horizon * per, per):
        e, a, carry = step(probs, u, carry)
        e += base       # in place: every step returns a fresh ends array
        ends.append(e)
        ages.append(a)
        base += u.size // per
    return (np.concatenate(ends).astype(float),
            np.concatenate(ages).astype(float, copy=False))


def _step_tdma_nr(probs, u, carry):
    # Counting step.  Device k (0-based) sends when the slots since the
    # last failure number k mod N, so a failure-free run of L slots collects
    # at its N-th, 2N-th, ... slot, L // N times, each with reset age N.  A
    # draw below min(p) fails and one at or above max(p) succeeds whatever
    # the device; a Python loop resolves the device-dependent draws in
    # between, but only where they can matter: in a stretch of at least N
    # draws without a sure failure, or in the stretch still open at the
    # chunk's end, which continues into the next chunk.  The carry is the
    # open run's length mod N.
    n = len(probs)
    lo, hi = min(probs), max(probs)
    run = carry or 0      # failure-free slots just before u[0], mod N
    maybe = np.flatnonzero(u < hi)    # the draws that may fail
    v = u[maybe]
    fail = v < lo
    # the failure-free stretches lie between consecutive bounds (the first
    # one extends back over the carried run); dep[r] is the r-th
    # device-dependent draw's place in maybe, and dep[r] - r the stretch
    # it lies in
    bounds = np.concatenate(([-1 - run], maybe[fail], [u.size]))
    dep = np.flatnonzero(~fail)
    k = dep - np.arange(dep.size)
    wide = np.diff(bounds) > n
    wide[-1] = True
    keep = wide[k]
    dep, prev = dep[keep], bounds[k[keep]]
    last = -1 - run     # latest failure so far
    failed = []
    for i, x, f in zip(maybe[dep].tolist(), v[dep].tolist(), prev.tolist()):
        if f > last:
            last = f
        if x < probs[(i - last - 1) % n]:
            failed.append(i)
            last = i
    if failed:
        fail[np.searchsorted(maybe, failed)] = True
        bounds = np.concatenate(([-1 - run], maybe[fail], [u.size]))
    gaps = np.diff(bounds) - 1      # failure-free run lengths
    count = gaps // n
    runs = np.flatnonzero(count)
    c = count[runs]
    # run r collects at bounds[r] + 1 + N * m for m = 1 .. count[r]
    first = bounds[runs] + (1 + n) - n * (np.cumsum(c) - c)
    ends = np.repeat(first, c) + n * np.arange(int(c.sum()))
    return ends, np.full(ends.size, float(n)), int(gaps[-1] % n)


def _step_tdma_r(probs, u, carry):
    # Counting step.  Device k (0-based) sends when the successes since the
    # last collection number k, so the sender of a slot is the count of
    # earlier successes mod N.  Every N-th success ends a cycle, which
    # collects one slot later; the cycle's first success, device 1's, is
    # its generation slot, and the reset age is end - generation slot.  A
    # draw at or above max(p) succeeds and one below min(p) fails whatever
    # the device, so a Python loop visits only the device-dependent draws
    # in between, counting the successes before each.  The carry is the
    # count of the cycle in progress and its generation slot, counted from
    # the next chunk's first slot.
    n = len(probs)
    lo, hi = min(probs), max(probs)
    twice = tuple(probs) * 2    # twice[k + j] is p[(k + j) % N] for k, j < N
    count, gen = carry or (0, 0)
    ok = u >= hi
    maybe = np.flatnonzero(~ok)     # the draws that may fail
    v = u[maybe]
    dep = np.flatnonzero(v >= lo)
    # slot i, the dep[r]-th draw of maybe, has i - dep[r] sure successes
    # before it, and `extra` dependent ones mod N
    slots = maybe[dep]
    won = []
    extra = 0
    for i, x, b in zip(slots.tolist(), v[dep].tolist(),
                       ((slots - dep + count) % n).tolist()):
        if x >= twice[b + extra]:
            won.append(i)
            extra = extra + 1 if extra < n - 1 else 0
    ok[won] = True
    # success j is success (count + j) % N of its cycle: the cycle's last
    # at N - 1, its generation slot at 0 (or carried in)
    s = np.flatnonzero(ok)
    e = s[n - 1 - count::n] + 1
    g = s[(n - count) % n::n]
    if count:
        g = np.concatenate(([gen], g))
    ages = e - g[:e.size]
    count = (count + s.size) % n
    if 0 < count <= s.size:     # the open cycle began in this chunk
        gen = int(s[s.size - count])
    return e, ages, (count, gen - u.size)


def _step_fdma(probs, u, carry):
    n = len(probs)
    p = np.array(probs)
    u = u.reshape(-1, n)   # row-major: device draws in slot order
    if n < _FDMA_ROWS:
        # all() over a short last axis is slow in numpy; reduce a
        # device-major copy over its leading axis instead
        ok = np.greater_equal(u.T, p[:, None], order="C").all(axis=0)
    else:
        ok = (u >= p).all(axis=1)
    ends = np.flatnonzero(ok) + 1
    return ends, np.ones(ends.size), None


# scheme -> (step, trace unit): TDMA counts slots, FDMA rounds of N draws
_KERNELS = {
    SchemeKind.TDMA_NR: (_step_tdma_nr, "slots"),
    SchemeKind.TDMA_R: (_step_tdma_r, "slots"),
    SchemeKind.FDMA: (_step_fdma, "rounds"),
}


def _regenerative_ci(trace: AocTrace) -> float:
    """95% half-width on the sawtooth average from the renewal intervals.

    With Y = trace.areas, D = trace.gaps, k intervals and r = sum(Y) /
    sum(D), the residuals Z = Y - r D have variance sigma^2 = g0 + 2 g1,
    their lag-0 plus twice their lag-1 autocovariance: a TDMA-R cycle
    starts at the age the previous one left, so neighbouring areas are
    correlated.  The half-width _t975(k - 1) * sqrt(sigma^2 / k) / mean(D)
    equals _t975(k - 1) * sqrt(sum Z_i^2 + 2 sum Z_i Z_i+1) / sum(D).
    Fewer than 2 intervals give inf, intervals that share one ratio Y/D
    give 0.0, and fewer than _MIN_CYCLES (or sigma^2 <= 0) give inf.
    """
    y, d = trace.areas, trace.gaps
    k = y.size
    if k < 2:
        return math.inf
    span = float(np.sum(d))
    z = d * (float(np.sum(y)) / span)
    np.subtract(y, z, out=z)
    # einsum sums the products without a temporary and without BLAS threads
    s0 = float(np.einsum("i,i", z, z))
    if s0 == 0.0:
        return 0.0
    s = s0 + 2.0 * float(np.einsum("i,i", z[:-1], z[1:]))
    if k < _MIN_CYCLES or s <= 0.0:
        return math.inf
    return _t975(k - 1) * math.sqrt(s) / span


def _t975(df: float) -> float:
    # Student-t 97.5% quantile by the four-term expansion of Abramowitz &
    # Stegun 26.7.5 in powers of 1/df around the normal quantile x; within
    # 2.4e-7 of the exact value from df = 20 up (_MIN_CYCLES keeps df >= 199)
    x = 1.959963984540054
    x2 = x * x
    g1 = (x2 + 1) * x / 4
    g2 = ((5 * x2 + 16) * x2 + 3) * x / 96
    g3 = (((3 * x2 + 19) * x2 + 17) * x2 - 15) * x / 384
    g4 = ((((79 * x2 + 776) * x2 + 1482) * x2 - 1920) * x2 - 945) * x / 92160
    return x + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
