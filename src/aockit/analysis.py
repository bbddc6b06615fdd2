"""Closed-form average age of collection for the three access schemes.

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
  (Feller, Vol. I, XIII.7).  Its moments come from O(N) backward passes
  that add only positive terms.
* FDMA completes a round with probability gamma = prod(1 - p_i), so its
  inter-collection time is geometric.

The products prod(1 - p_i) are carried as a mantissa and a binary
exponent, so they never underflow.  An average that does not fit in a
float64 raises ValueError naming the scheme and N.
"""

from __future__ import annotations

import math

from .domain import HittingMoments, PerVector, SchemeKind, TimingModel

__all__ = [
    "tdma_nr_moments",
    "tdma_nr_avg_aoc_slots",
    "tdma_r_moments",
    "tdma_r_avg_aoc_slots",
    "fdma_gamma",
    "fdma_avg_aoc_rounds",
    "avg_aoc_ms",
]

# survival products are renormalised below this; 1 - p >= 2**-53 for any
# p < 1, so the running mantissa stays far above the subnormal range
_RESCALE = 2.0 ** -512


def _survival(probs) -> tuple[float, int]:
    """prod(1 - p_i) as (m, e) with value m * 2**e.

    The product is taken in order and rescaled by exact powers of two, so
    m * 2**e equals the plain float product whenever that product is normal.
    """
    m, e = 1.0, 0
    for pi in probs:
        m *= 1.0 - pi
        if m < _RESCALE:
            m, k = math.frexp(m)
            e += k
    return m, e


def _over(x: float, m: float, e: int) -> float:
    """x / (m * 2**e), or inf when the quotient exceeds float range."""
    try:
        return math.ldexp(x / m, -e)
    except OverflowError:
        return math.inf


def _in_range(value: float, scheme: SchemeKind, n: int) -> float:
    if not math.isfinite(value):
        raise ValueError(
            f"{scheme.token}: average AoC exceeds float range (N = {n})"
        )
    return value


def _tdma_nr_passes(probs):
    """Backward passes over s_i = 1 - p_i for the TDMA-NR chain.

    Returns lists a, r (with a trailing 0.0 for state N + 1) and scalars
    u, v such that, with Q = prod(1 - p_i),

        T_i = a_i + r_i T_1,    T_1 = a_1 / Q,
        E[T_1^2] = (u + v T_1) / Q.
    """
    n = len(probs)
    a = [0.0] * (n + 1)
    r = [0.0] * (n + 1)
    u = v = 0.0
    for i in range(n - 1, -1, -1):
        pi = probs[i]
        si = 1.0 - pi
        u = 1.0 + 2.0 * si * a[i + 1] + si * u
        a[i] = 1.0 + si * a[i + 1]
        r[i] = pi + si * r[i + 1]
        v = 2.0 * r[i] + si * v
    return a, r, u, v


def tdma_nr_moments(p: PerVector) -> HittingMoments:
    """Hitting-time moments for TDMA without retransmissions.

    From state i the slot succeeds with probability s_i = 1 - p_i and moves
    to state i + 1 (past state N is absorption); any failure restarts the
    round at state 1 with fresh packets, so

        T_i = 1 + p_i T_1 + s_i T_{i+1},    T_{N+1} = 0.

    Substituting T_i = A_i + R_i T_1 splits this into two recursions over
    positive terms, solved backwards from A_{N+1} = R_{N+1} = 0:

        A_i = 1 + s_i A_{i+1},    R_i = p_i + s_i R_{i+1} = 1 - Q_i,

    with Q_i = s_i...s_N.  At i = 1 this gives T_1 = A_1 / Q_1.  The second
    moments satisfy the same recursion with right-hand side

        r_i = 1 + 2 (p_i T_1 + s_i T_{i+1})
            = 1 + 2 s_i A_{i+1} + 2 R_i T_1,

    so the same pass gives E[T_1^2] = (U_1 + V_1 T_1) / Q_1, where
    U_i = 1 + 2 s_i A_{i+1} + s_i U_{i+1} and V_i = 2 R_i + s_i V_{i+1}.
    Raises ValueError when the moments exceed float range.
    """
    probs = p.probs
    a, r, u, v = _tdma_nr_passes(probs)
    m, e = _survival(probs)
    t1 = _over(a[0], m, e)
    second_t1 = _over(u + v * t1, m, e)
    if not math.isfinite(second_t1):
        raise ValueError(
            f"tdma-nr: hitting-time moments exceed float range (N = {p.n})"
        )
    first = tuple(ai + ri * t1 for ai, ri in zip(a[:-1], r))
    return HittingMoments(first=first, second_t1=second_t1)


def tdma_nr_avg_aoc_slots(p: PerVector) -> float:
    """Average AoC of TDMA-NR in slot units.

    Every delivered set was generated at the start of its successful round,
    N slots before completion, so the reset age is exactly N and

        avg = N + E[T_1^2] / (2 E[T_1])
            = N + U_1 / (2 A_1) + V_1 / (2 Q_1)

    in the notation of tdma_nr_moments.  The second form divides by Q_1
    once, so it is finite whenever the average fits in a float64; beyond
    that it raises ValueError.
    """
    a, _, u, v = _tdma_nr_passes(p.probs)
    m, e = _survival(p.probs)
    avg = p.n + u / (2.0 * a[0]) + _over(0.5 * v, m, e)
    return _in_range(avg, SchemeKind.TDMA_NR, p.n)


def _tdma_r_terms(probs) -> tuple[list, float, float, float]:
    """a_k = 1 / (1 - p_k), T_1, T_2 (0.0 at N = 1) and E[T_1^2] of TDMA-R,
    in one O(N) pass; only tdma_r_moments adds the other suffix sums."""
    a = [1.0 / (1.0 - pi) for pi in probs]
    t1 = math.fsum(a)
    t2 = math.fsum(a[1:])
    second_t1 = (
        (1.0 + probs[0]) / (1.0 - probs[0]) * t1
        + t2 * t2
        + math.fsum(x * x for x in a[1:])
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
    any reordering of devices 2..N.
    """
    a, t1, t2, second_t1 = _tdma_r_terms(p.probs)
    first = (t1, t2, *(math.fsum(a[i:]) for i in range(2, p.n)))[:p.n]
    return HittingMoments(first=first, second_t1=second_t1)


def tdma_r_avg_aoc_slots(p: PerVector) -> float:
    """Average AoC of TDMA-R in slot units.

    The delivered set is as old as device 1's packet: one slot for its own
    transmission plus the residual time tau through states 2..N, so the
    mean reset age is 1 + T_2 and

        avg = 1 + T_2 + E[T_1^2] / (2 E[T_1]).
    """
    _, t1, t2, second_t1 = _tdma_r_terms(p.probs)
    return 1.0 + t2 + second_t1 / (2.0 * t1)


def fdma_gamma(p: PerVector) -> float:
    """Probability that one FDMA round delivers every packet.

    Rounds to 0.0 only when the probability is below the float range.
    """
    m, e = _survival(p.probs)
    return math.ldexp(m, e)


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
    m, e = _survival(p.probs)
    gamma = math.ldexp(m, e)
    avg = 1.0 + _over(2.0 - gamma, 2.0 * m, e)
    return _in_range(avg, SchemeKind.FDMA, p.n)


def avg_aoc_ms(scheme: SchemeKind, p: PerVector, timing: TimingModel) -> float:
    """Average AoC in milliseconds under the given slot/round durations."""
    if scheme is SchemeKind.TDMA_NR:
        units = tdma_nr_avg_aoc_slots(p)
    elif scheme is SchemeKind.TDMA_R:
        units = tdma_r_avg_aoc_slots(p)
    elif scheme is SchemeKind.FDMA:
        units = fdma_avg_aoc_rounds(p)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _in_range(units * timing.unit_ms(scheme), scheme, p.n)
