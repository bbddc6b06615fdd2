"""Seeded slot-level simulators for the three access schemes.

The simulators are the independent check on the closed forms: they share
nothing with the analysis module except the domain types and the trace
integrator.  Each run draws one uniform variate per packet transmission
attempt, consumed in slot order (FDMA rounds consume their N draws in
device order), from a PCG64 generator seeded by SimConfig.seed.  That
convention pins the seed-to-trace mapping, so identical configs give
bit-identical results; the generator name travels in SimResult.rng_name.

All draws come from one stream, _draws, in arrays of at most _CHUNK
uniforms.  Each kernel holds one array (plus at most N - 1 carried draws)
at a time, never the whole horizon, and walks the draws its own way:

  TDMA-NR  attempt jumps: vectorised passes find where each possible
           attempt start would abort, and a Python walk visits only the
           attempts, not the slots;
  TDMA-R   a per-slot Python loop over each array's draws as a list;
  FDMA     fully vectorised: each array is reshaped to rounds of N draws,
           and the collections are the rows in which every device succeeds.

ACK and feedback are instantaneous and error-free inside the slot
abstraction; MAC overhead lives entirely in TimingModel.  The horizon
counts slots (TDMA) or rounds (FDMA) and any collection still in progress
at the horizon is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

_CHUNK = 1 << 16     # uniforms drawn per chunk
_DENSE = 16          # leading TDMA-NR devices resolved by vectorised passes

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
    """Trace plus its summary statistics.  The trace is in slots or rounds
    (trace.unit); avg_aoc and ci_halfwidth are in those units from
    simulate() and in milliseconds from simulate_ms()."""

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

    Raises ValueError("insufficient collections") when the horizon yields
    fewer than two complete collections, whether because the horizon is
    short or because the error rates starve the system.
    """
    kernel, unit = _KERNELS[config.scheme]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    times, ages = kernel(config.effective_per().probs, config.horizon, rng)
    if len(times) < 2:
        raise ValueError("insufficient collections")
    trace = AocTrace(times, ages, unit)
    return SimResult(
        trace=trace,
        avg_aoc=integrate_trace(trace),
        ci_halfwidth=_batch_means_ci(trace),
    )


def simulate_ms(config: SimConfig, timing: TimingModel) -> SimResult:
    """simulate() with avg_aoc and ci_halfwidth scaled to milliseconds by
    timing.unit_ms(scheme); the trace stays in slots or rounds."""
    base = simulate(config)
    factor = timing.unit_ms(config.scheme)
    return replace(base, avg_aoc=base.avg_aoc * factor,
                   ci_halfwidth=base.ci_halfwidth * factor)


def _draws(rng: np.random.Generator, count: int, step: int = 1):
    # the one draw stream: count uniforms in draw order, as arrays of at
    # most _CHUNK draws (at least step), each size a multiple of step
    size = max(step, _CHUNK - _CHUNK % step)
    while count > 0:
        k = min(size, count)
        yield rng.random(k)
        count -= k


def _run_tdma_nr(probs, horizon: int, rng) -> tuple[np.ndarray, np.ndarray]:
    # Attempt-jump kernel.  An attempt starting at slot s draws u[s + k] for
    # device k and aborts at the first k with u[s + k] < p_k, so the next
    # attempt starts at s + k + 1; otherwise it collects at s + N and the
    # next attempt starts there.  Vectorised passes give every start in the
    # chunk its abort step for the first _DENSE devices, and a Python walk
    # visits only the attempt starts, checking the rare attempts that pass
    # all _DENSE one slice at a time.  Starts whose N draws do not all fit
    # in the chunk carry over with their draws into the next chunk; those
    # left at the horizon could not collect before it.
    n = len(probs)
    dense = min(n, _DENSE)
    long_tail = n > dense
    rest = np.asarray(probs[dense:])
    ends = []      # collection end slots, one float array per chunk
    carry = np.empty(0)
    base = 0       # slot index of buf[0]
    for chunk in _draws(rng, horizon):
        buf = np.concatenate((carry, chunk))
        stop = buf.size - n + 1     # starts whose attempt fits in buf
        s = 0
        starts = []
        if stop > 0:
            fail = np.zeros(stop, np.uint8)
            # descending k, so the first failing device's step is kept
            for k in range(dense - 1, -1, -1):
                np.putmask(fail, buf[k:k + stop] < probs[k], k + 1)
            steps = memoryview(fail)    # Python ints without a tolist copy
            while s < stop:
                f = steps[s]
                if f:
                    s += f
                    continue
                if long_tail:
                    hit = buf[s + dense:s + n] < rest
                    k = int(hit.argmax())
                    if hit[k]:
                        s += dense + k + 1
                        continue
                starts.append(s)
                s += n
        ends.append(np.array(starts, dtype=float) + (base + n))
        carry = buf[s:]
        base += s
    times = np.concatenate(ends)
    return times, np.full(times.size, float(n))


def _run_tdma_r(probs, horizon: int, rng) -> tuple[list, list]:
    n = len(probs)
    times: list[float] = []
    ages: list[float] = []
    pos = 0    # device transmitting this slot (0-based)
    gen = 0    # slot index of the batch generation
    t = 0
    for chunk in _draws(rng, horizon):
        for u in chunk.tolist():
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


def _run_fdma(probs, horizon: int, rng) -> tuple[np.ndarray, np.ndarray]:
    n = len(probs)
    p = np.array(probs)
    hits = []
    done = 0
    for chunk in _draws(rng, horizon * n, n):
        u = chunk.reshape(-1, n)   # row-major: device draws in slot order
        hits.append(np.flatnonzero((u >= p).all(axis=1)) + (done + 1))
        done += len(u)
    times = np.concatenate(hits).astype(float)
    return times, np.ones(times.size)


# scheme -> (kernel, trace unit): TDMA counts slots, FDMA counts rounds
_KERNELS = {
    SchemeKind.TDMA_NR: (_run_tdma_nr, "slots"),
    SchemeKind.TDMA_R: (_run_tdma_r, "slots"),
    SchemeKind.FDMA: (_run_fdma, "rounds"),
}


def _batch_means_ci(trace: AocTrace) -> float:
    """95% half-width on the sawtooth average via batch means.

    The renewal intervals, trace.areas and trace.gaps, are grouped into 20
    (or fewer, when there are not enough intervals) contiguous batches;
    each batch contributes the ratio estimate area/duration, and the
    half-width is the Student-t 97.5% quantile (_T975) times the standard
    error of the batch ratios.  Short traces (< 40 events) drop the first
    batch.  Fewer than two usable batches give an infinite half-width; a
    deterministic trace gives zero.
    """
    n_int = int(trace.gaps.size)
    if n_int < 2:
        return math.inf
    k = min(20, n_int)
    batches = list(zip(np.array_split(trace.areas, k), np.array_split(trace.gaps, k)))
    if len(trace) < 40 and len(batches) > 2:
        batches = batches[1:]
    ratios = np.array([np.sum(area) / np.sum(gap) for area, gap in batches])
    m = ratios.size
    if m < 2:
        return math.inf
    s = float(np.std(ratios, ddof=1))
    if s == 0.0:
        return 0.0
    return _T975[m - 2] * s / math.sqrt(m)
