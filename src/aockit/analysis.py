"""Closed-form average age of collection for the three access schemes.

This module owns the theory side: each scheme's hitting-time moments
(HittingMoments), its average AoC in slots or rounds, and that average in
milliseconds (avg_aoc_ms).  It reads the domain types only and shares no
code with the simulator.

Each scheme's transmission process is an absorbing Markov chain over the
states "device i transmits next"; a full collection is the absorption
event.  With D the inter-collection time and A the age of the delivered
set at the collection instant, the renewal-reward average of the sawtooth
is

    avg = E[A] + E[D^2] / (2 E[D])            [slots or rounds]

so everything reduces to the first two hitting-time moments of the chain,
and each chain has them in closed form; no linear system is solved:

* TDMA-R is skip-free to the right, so its moments are suffix sums.
* TDMA-NR restarts at device 1 after any failure, so the time to a full
  collection is a run of N successes with position-dependent odds
  (Feller, Vol. I, XIII.7).  Over the prefix products
  P_m = (1 - p_1)...(1 - p_m) its average is N + 1/2 + W/A + B/Q, with
  A = sum_{m<N} P_m, W = sum_{m<N} m P_m, B = A - N Q and Q = P_N: sums of
  positive terms, taken with C-level iteration and math.fsum.  The mean
  from each later device is two suffix sums of the same P_m.
* FDMA completes a round with probability gamma = prod(1 - p_i), so its
  inter-collection time is geometric.

Each product prod(1 - p_i) starts at the power of two _SCALE, so it
stays normal wherever the average it divides fits in a float64.  An
average that does not fit raises ValueError naming the scheme and N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, count, repeat
from operator import mul, sub

from .domain import PerVector, SchemeKind, TimingModel

__all__ = [
    "HittingMoments",
    "tdma_nr_moments",
    "tdma_nr_avg_aoc_slots",
    "tdma_r_moments",
    "tdma_r_avg_aoc_slots",
    "fdma_gamma",
    "fdma_avg_aoc_rounds",
    "avg_aoc_ms",
]


@dataclass(frozen=True)
class HittingMoments:
    """First and second moments of the time to reach the full-collection
    state of a scheme's transmission Markov chain, in slot units.

    first[i-1] is the mean number of slots to completion starting from
    device i's transmission.  second_t1 is the second moment from device 1
    (the quantity the average-age formulas need).
    """

    first: tuple[float, ...]
    second_t1: float

    def __post_init__(self):
        for v in self.first:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"first moment {v!r} not finite and positive")
        if not math.isfinite(self.second_t1) or self.second_t1 <= 0.0:
            raise ValueError(f"second moment {self.second_t1!r} not finite and positive")
        # Jensen: E[T^2] >= (E[T])^2, small slack for rounding
        lo = self.first[0] ** 2
        if self.second_t1 < lo * (1.0 - 1e-12):
            raise ValueError(
                f"second moment {self.second_t1} below squared mean {lo}"
            )


# every survival product starts here, and the scale cancels in each
# quotient.  Scaling by a power of two is exact while the product stays
# normal; an average divides by Q = prod(1 - p_i), so it fits a float64
# only if Q > 2**-1024, and any scale >= 4 keeps such a Q normal
_SCALE = 2.0 ** 64

# 0.0, 1.0, ... as floats: a float times a float is cheaper than a float
# times an int, and the products are the same
_COUNTS = tuple(map(float, range(1024)))

# from this many devices on, TDMA-NR sums its excess over N from the PERs
# themselves where they are small (see _tdma_nr_sums)
_EXACT_EXCESS_N = 16


def _survival(probs) -> float:
    """_SCALE * prod(1 - p_i), multiplied in order."""
    return math.prod(map(sub, repeat(1.0), probs), start=_SCALE)


def _over(x: float, q: float) -> float:
    """x / q, or inf when the scaled product q underflowed to zero."""
    return x / q if q else math.inf


def _in_range(value: float, n: int) -> float:
    if not math.isfinite(value):
        raise ValueError(f"average AoC exceeds float range (N = {n})")
    return value


def _tdma_nr_sums(probs) -> tuple[float, float, float, float, list]:
    """A, W, B and Q of the TDMA-NR chain (tdma_nr_moments), each times
    _SCALE, so the quotients W/A and B/Q are those of the plain sums, and
    the prefix products P_0..P_{N-1} they are summed from, times _SCALE.

    The prefix products come from one accumulate() and each sum from
    math.fsum over a map(), so no Python loop runs per device, and the bits
    do not depend on the interpreter (CPython 3.12 made float sum()
    compensated).  Q is P_N, the same product in the same order as
    _survival's.

    B = A - N Q cancels at most one bit while N Q <= A / 2, and below
    _EXACT_EXCESS_N devices the rounding of the s_i moves it by less than
    N / 6 ulps of the average.  Otherwise, for many devices with PERs so
    small that every P_m is near Q, B is summed from its terms
    k p_k P_{k-1}, which take p_k itself rather than the rounded 1 - p_k.
    """
    n = len(probs)
    prefix = list(accumulate(map(sub, repeat(1.0), probs), mul, initial=_SCALE))
    q = prefix.pop()
    s_a = math.fsum(prefix)
    counts = _COUNTS if n <= len(_COUNTS) else count()
    s_w = math.fsum(map(mul, prefix, counts))
    if n < _EXACT_EXCESS_N or 2.0 * n * q <= s_a:
        s_b = s_a - n * q
    else:
        s_b = math.fsum(map(mul, map(mul, probs, count(1)), prefix))
    return s_a, s_w, s_b, q, prefix


def tdma_nr_moments(p: PerVector) -> HittingMoments:
    """Hitting-time moments for TDMA without retransmissions.

    From state i the slot succeeds with probability s_i = 1 - p_i and moves
    to state i + 1 (past state N is absorption); any failure restarts the
    round at state 1 with fresh packets, so

        T_i = 1 + p_i T_1 + s_i T_{i+1},    T_{N+1} = 0.

    Over the prefix products P_m = s_1...s_m (P_0 = 1), a run from state i
    reaches state m + 1 with probability P_m / P_{i-1} and fails there with
    probability p_{m+1}, so unrolling the recursion gives

        P_{i-1} T_i = sum_{m=i-1}^{N-1} P_m + T_1 sum_{k=i}^{N} p_k P_{k-1}.

    At i = 1 the second sum telescopes to 1 - Q, Q = P_N, because
    p_k P_{k-1} = P_{k-1} - P_k; with A = sum_{m<N} P_m this gives
    T_1 = A / Q = N + B / Q, where B = A - N Q = sum_{k<=N} k p_k P_{k-1}.
    The second moments satisfy the same recursion with right-hand side
    1 + 2 (p_i T_1 + s_i T_{i+1}) = 2 T_i - 1, and the same unrolling with
    sum_{m<N} P_m T_{m+1} = A + W + B T_1, W = sum_{m<N} m P_m, gives

        E[T_1^2] = (A + 2 W + 2 B T_1) / Q.

    All terms are positive.  The form N + B / Q keeps N exact where the
    PERs are small (see _tdma_nr_sums), and T_2..T_N are two suffix sums
    of the same prefix products, the second over p_k itself, so neither
    cancels.  Raises ValueError when the moments exceed float range.
    """
    probs = p.probs
    s_a, s_w, s_b, q, prefix = _tdma_nr_sums(probs)
    t1 = p.n + _over(s_b, q)
    second_t1 = _over(s_a + 2.0 * s_w + 2.0 * s_b * t1, q)
    if not math.isfinite(second_t1):
        raise ValueError(
            f"tdma-nr: hitting-time moments exceed float range (N = {p.n})"
        )
    # sums over m >= j of P_m and of p_{m+1} P_m, built from the right;
    # the [-2::-1] slices run j = 1..N-1, the states 2..N
    stays = list(accumulate(reversed(prefix)))
    fails = list(accumulate(map(mul, reversed(probs), reversed(prefix))))
    first = (t1, *((a + r * t1) / pm for a, r, pm
                   in zip(stays[-2::-1], fails[-2::-1], prefix[1:])))
    return HittingMoments(first=first, second_t1=second_t1)


def tdma_nr_avg_aoc_slots(p: PerVector) -> float:
    """Average AoC of TDMA-NR in slot units.

    Every delivered set was generated at the start of its successful round,
    N slots before completion, so the reset age is exactly N and

        avg = N + E[T_1^2] / (2 E[T_1])
            = N + (A + 2 W + 2 B T_1) / (2 A)
            = N + 1/2 + W / A + B / Q

    in the notation of tdma_nr_moments, by T_1 = A / Q; with B = A - N Q
    this is 1/2 + A/Q + W/A.
    Every term is positive, and N stays exact where the PERs are small
    (see _tdma_nr_sums).  The sums take no per-device Python loop, and the
    third form divides by Q once, so it is finite whenever the average
    fits in a float64; beyond that it raises ValueError.

    Descending PER minimizes the average, by an exchange argument.  Q does
    not depend on the order, and exchanging the devices at positions k and
    k + 1 changes only P_k = P_{k-1} (1 - p_k), so A and W move by x and
    k x with x the change in P_k, and

        d avg / d P_k = 1/Q + (k A - W) / A^2,

    which is positive: since Q <= P_j for every j,
    Q (W - k A) <= sum_{m>k} P_m sum_{j=k}^{m-1} P_j <= sum_{j<m} P_j P_m
    < A^2, and this holds all along the exchange, as P_k stays between
    P_{k+1} and P_{k-1}.  So putting the higher PER of an adjacent pair
    first lowers P_k and the average, strictly when the PERs differ, and
    adjacent exchanges sort any order into the descending one.  The proof
    is of the exact average, not of its rounding; TestOrderingRules checks
    the rule against an exhaustive search over orders.
    """
    s_a, s_w, s_b, q, _ = _tdma_nr_sums(p.probs)
    avg = p.n + (0.5 + s_w / s_a) + _over(s_b, q)
    return _in_range(avg, p.n)


def _tdma_r_terms(probs) -> tuple[list, float, float, float]:
    """a_k = 1 / (1 - p_k), T_1, T_2 (0.0 at N = 1) and E[T_1^2] of TDMA-R,
    in one O(N) pass; only tdma_r_moments adds the other suffix sums."""
    a = [1.0 / (1.0 - pi) for pi in probs]
    tail = a[1:]
    t1 = math.fsum(a)
    t2 = math.fsum(tail)
    second_t1 = (
        (1.0 + probs[0]) / (1.0 - probs[0]) * t1
        + t2 * t2
        + math.fsum(map(mul, tail, tail))
    )
    return a, t1, t2, second_t1


def tdma_r_moments(p: PerVector) -> HittingMoments:
    """Hitting-time moments for TDMA with retransmissions.

    A failed slot at state i >= 2 repeats state i (same packet); a failure
    at state 1 regenerates everything but likewise repeats state 1.  The
    chain is skip-free to the right, so with a_k = 1 / (1 - p_k) the first
    moments are the suffix sums

        T_i = sum_{k=i..N} a_k

    and the second moment from state 1 telescopes to

        E[T_1^2] = (1 + p_1) / (1 - p_1) * T_1 + sum_{i>=2} 2 a_i T_i
                 = (1 + p_1) / (1 - p_1) * T_1
                   + (sum_{i>=2} a_i)^2 + sum_{i>=2} a_i^2.

    The expanded form is evaluated with math.fsum, which returns the
    correctly rounded exact sum, so the moments are bit-identical under
    any reordering of devices 2..N.  Each T_i is rounded correctly too,
    in O(N) for all i: the a_k's numerators are scaled to their largest
    power-of-two denominator, summed exactly as integers from the right,
    and each suffix sum is rounded once by int / int, as fsum(a[i:]) is.
    """
    a, _, _, second_t1 = _tdma_r_terms(p.probs)
    ratios = [x.as_integer_ratio() for x in a]
    den = max(d for _, d in ratios)
    sums = list(accumulate(m * (den // d) for m, d in reversed(ratios)))
    first = tuple(s / den for s in reversed(sums))
    return HittingMoments(first=first, second_t1=second_t1)


def tdma_r_avg_aoc_slots(p: PerVector) -> float:
    """Average AoC of TDMA-R in slot units.

    The delivered set is as old as device 1's packet: one slot for its own
    transmission plus the residual time tau through states 2..N, so the
    mean reset age is 1 + T_2 and

        avg = 1 + T_2 + E[T_1^2] / (2 E[T_1]).

    The highest PER first minimizes the average, by an exchange argument.
    T_1 = sum_k a_k does not depend on the order, and with T_2 = T_1 - a_1
    neither does E[T_1^2] = T_1^2 - T_1 + sum_k a_k^2, so

        avg = 1 + T_1 - a_1 + (T_1^2 - T_1 + sum_k a_k^2) / (2 T_1),

    and exchanging device 1 with device j changes the exact average by
    a_1 - a_j and nothing else.  The largest a_1, the highest PER, is
    least, and the order of devices 2..N does not matter (the fsum sums
    keep every bit under it).  TestOrderingRules checks the rule against
    an exhaustive search over the first device.
    """
    _, t1, t2, second_t1 = _tdma_r_terms(p.probs)
    return 1.0 + t2 + second_t1 / (2.0 * t1)


def fdma_gamma(p: PerVector) -> float:
    """Probability that one FDMA round delivers every packet.

    Rounds to 0.0 only when the probability is below the float range.
    """
    return _survival(p.probs) / _SCALE


def fdma_avg_aoc_rounds(p: PerVector) -> float:
    """Average AoC of FDMA in round units.

    All devices transmit fresh packets each round on disjoint sub-channels,
    so collections arrive as a Bernoulli process with per-round success
    gamma = prod(1 - p_i).  The inter-collection time is geometric with
    E[D] = 1/gamma and E[D^2] = (2 - gamma)/gamma^2, and the reset age is
    one round:

        avg = 1 + (2 - gamma) / (2 gamma).

    Raises ValueError when 1/gamma exceeds float range.
    """
    gamma = _survival(p.probs)      # times _SCALE, which cancels
    avg = 1.0 + _over(2.0 * _SCALE - gamma, 2.0 * gamma)
    return _in_range(avg, p.n)


def avg_aoc_ms(scheme: SchemeKind, p: PerVector, timing: TimingModel) -> float:
    """Average AoC in milliseconds under the given slot/round durations.

    An overflow of the millisecond product raises ValueError naming the
    TimingModel field (see TimingModel.to_ms).
    """
    if scheme is SchemeKind.TDMA_NR:
        units = tdma_nr_avg_aoc_slots(p)
    elif scheme is SchemeKind.TDMA_R:
        units = tdma_r_avg_aoc_slots(p)
    elif scheme is SchemeKind.FDMA:
        units = fdma_avg_aoc_rounds(p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return timing.to_ms(scheme, units)
