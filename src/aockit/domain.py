"""Core domain types for age-of-collection (AoC) analysis.

The age of collection of an N-device status-update system is the time
elapsed since the generation of the most recent *complete* set of status
packets received from all devices.  It grows with unit slope and drops
only when a full collection is delivered, producing a sawtooth curve.
This module holds the shared value types (per-device packet error rates,
slot/round timing, hitting-time moments, collection traces) and the exact
integrator for the sawtooth time average.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemeKind",
    "PerVector",
    "TimingModel",
    "HittingMoments",
    "AocTrace",
    "make_per_vector",
    "integrate_trace",
]


class SchemeKind(enum.Enum):
    """Multi-access scheme selector.

    TDMA_NR: time division, any decode failure aborts the round and every
    device regenerates a fresh packet.
    TDMA_R: time division, a failed device (other than the first) simply
    retransmits the same packet; a first-device failure regenerates all.
    FDMA: all devices transmit each round on disjoint sub-channels; the
    round counts only if every packet decodes.
    """

    TDMA_NR = "tdma-nr"
    TDMA_R = "tdma-r"
    FDMA = "fdma"

    @classmethod
    def from_token(cls, token: str) -> "SchemeKind":
        for kind in cls:
            if kind.value == token:
                return kind
        raise ValueError(f"unknown scheme token {token!r}")

    @classmethod
    def expand(cls, token: str) -> tuple["SchemeKind", ...]:
        """Schemes a token names: its own scheme, or both TDMA schemes for
        the shorthand tdma."""
        if token == "tdma":
            return (cls.TDMA_NR, cls.TDMA_R)
        return (cls.from_token(token),)

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class PerVector:
    """Ordered per-device packet error probabilities p_1..p_N.

    Each entry is the probability that the corresponding device's packet
    fails decoding in one transmission attempt.  p = 1 is rejected because
    the full-collection state then becomes unreachable and every average
    age diverges.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise ValueError("PerVector needs at least one device")
        for i, p in enumerate(self.probs):
            if not (0.0 <= p <= 1.0):
                raise ValueError(
                    f"packet error rate {p!r} for device {i + 1} outside [0, 1)"
                )
            if p == 1.0:
                raise ValueError(
                    f"packet error rate 1 for device {i + 1}: unreachable success state"
                )

    @property
    def n(self) -> int:
        return len(self.probs)

    def permuted(self, order: tuple[int, ...]) -> "PerVector":
        """PerVector seen in transmission order: entry j is the PER of the
        device transmitting j-th.  `order` is a permutation of 1..N."""
        order = _check_permutation(order, self.n)
        return PerVector(tuple(self.probs[d - 1] for d in order))


def make_per_vector(probs) -> PerVector:
    """Validate a sequence of packet error rates into a PerVector."""
    return PerVector(tuple(float(p) for p in probs))


def _check_permutation(order, n: int) -> tuple[int, ...]:
    """`order` as an int tuple, checked to be a permutation of 1..n."""
    order = tuple(int(d) for d in order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order!r} is not a permutation of 1..{n}")
    return order


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_horizon(horizon) -> None:
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ValueError(f"horizon must be an int, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


@dataclass(frozen=True)
class TimingModel:
    """Absolute slot/round durations in milliseconds.

    tdma_slot_ms is the duration of one TDMA time slot (status packet,
    feedback and guards included); fdma_round_ms is the duration of one
    FDMA transmission round.
    """

    tdma_slot_ms: float
    fdma_round_ms: float

    def __post_init__(self):
        for name, v in (("tdma_slot_ms", self.tdma_slot_ms),
                        ("fdma_round_ms", self.fdma_round_ms)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    def unit_ms(self, scheme: SchemeKind) -> float:
        """An FDMA round for FDMA, a TDMA slot for the TDMA schemes."""
        return self.fdma_round_ms if scheme is SchemeKind.FDMA else self.tdma_slot_ms


@dataclass(frozen=True)
class HittingMoments:
    """First and second moments of the time to reach the full-collection
    state of a scheme's transmission Markov chain, in slot units.

    first[i-1] is the mean number of slots to completion starting from
    device i's transmission.  second_t1 is the second moment from device 1
    (the quantity the average-age formulas need).  t2s mirrors first[1]
    where a second device exists (0.0 for N = 1); the retransmission
    scheme's reset age depends on it.
    """

    first: tuple[float, ...]
    second_t1: float
    t2s: float

    def __post_init__(self):
        for v in self.first:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"first moment {v!r} not finite and positive")
        if not math.isfinite(self.second_t1) or self.second_t1 <= 0.0:
            raise ValueError(f"second moment {self.second_t1!r} not finite and positive")
        if not math.isfinite(self.t2s) or self.t2s < 0.0:
            raise ValueError(f"t2s {self.t2s!r} not finite and non-negative")
        # Jensen: E[T^2] >= (E[T])^2, small slack for rounding
        lo = self.first[0] ** 2
        if self.second_t1 < lo * (1.0 - 1e-12):
            raise ValueError(
                f"second moment {self.second_t1} below squared mean {lo}"
            )


_TRACE_UNITS = ("slots", "rounds", "ms")


@dataclass(frozen=True)
class AocTrace:
    """Sequence of successful-collection events of one run.

    times[k] is the completion time of the k-th full collection and
    ages[k] the value the instantaneous age resets to at that moment
    (the packets' age at delivery), both in `unit` units.  Between events
    the age grows with unit slope, so the trace determines the sawtooth
    exactly.
    """

    times: np.ndarray
    ages: np.ndarray
    unit: str

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
        if times.size >= 2:
            gaps = np.diff(times)
            if np.any(gaps <= 0.0):
                raise ValueError("completion times must be strictly increasing")
            # the age cannot reset above what it had grown to since the
            # previous collection
            grown = gaps + ages[:-1]
            if np.any(ages[1:] > grown * (1.0 + 1e-12)):
                raise ValueError("reset age exceeds the age grown since last event")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def events(self) -> list[tuple[float, float]]:
        return list(zip(self.times.tolist(), self.ages.tolist()))

    def scaled(self, factor: float, unit: str) -> "AocTrace":
        """Same trace with all times and ages multiplied by `factor`."""
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be finite and > 0, got {factor!r}")
        return AocTrace(self.times * factor, self.ages * factor, unit)


def integrate_trace(trace: AocTrace) -> float:
    """Exact time average of the sawtooth between the first and last event.

    Over the interval following event k the age starts at ages[k] and grows
    with unit slope for g_k = times[k+1] - times[k], contributing the area

        ages[k] * g_k + g_k**2 / 2.

    The average is the summed area divided by times[-1] - times[0].  The
    warm-up before the first collection is discarded, which matches the
    renewal-reward form of the closed-form averages.
    """
    if len(trace) < 2:
        raise ValueError("insufficient renewal intervals")
    gaps = np.diff(trace.times)
    area = float(np.sum(trace.ages[:-1] * gaps + 0.5 * gaps * gaps))
    return area / float(trace.times[-1] - trace.times[0])
