"""Value types shared by the analysis, the simulator, the sweeps and the CLI.

The age of collection (AoC) of an N-device status-update system is the
time elapsed since the generation of the most recent *complete* set of
status packets received from all devices.  This module owns what several
of aockit's modules read: the scheme selector, the per-device packet
error rates, the slot/round timing, and the checks on seeds, horizons and
transmission orders.  Results belong to the module that makes them: the
simulator's traces to aockit.sim, the hitting-time moments to
aockit.analysis.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "SchemeKind",
    "PerVector",
    "TimingModel",
    "make_per_vector",
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

    def to_ms(self, scheme: SchemeKind, units: float) -> float:
        """`units` slots (TDMA) or rounds (FDMA) in milliseconds.

        An infinite value stays infinite.  A finite one whose product
        exceeds float range raises ValueError naming the duration field.
        """
        ms = units * self.unit_ms(scheme)
        if math.isinf(ms) and math.isfinite(units):
            fdma = scheme is SchemeKind.FDMA
            name, unit = ("fdma_round_ms", "rounds") if fdma else ("tdma_slot_ms", "slots")
            raise ValueError(f"{name} {self.unit_ms(scheme)!r} times {units:.6g} {unit} "
                             "exceeds float range")
        return ms
