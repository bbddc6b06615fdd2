"""Average AoC oracle that shares no code with aockit.analysis.

It solves the same Markov-chain equations that define each scheme's
hitting-time moments, by a different route:

* N <= DENSE_MAX_N: the TDMA chains are written out as dense matrices and
  solved with numpy.linalg.solve (LAPACK).
* larger N: the chains are solved by back substitution in mpmath at
  MP_DIGITS significant digits, expressing every T_i as a_i + b_i T_1.

FDMA has no chain to solve; its geometric closed form is evaluated in
mpmath for every N, where prod(1 - p_i) cannot underflow.

All results are in slots (TDMA) or rounds (FDMA).
"""

from __future__ import annotations

import mpmath
import numpy as np

DENSE_MAX_N = 64
MP_DIGITS = 50

TDMA_NR = "tdma-nr"
TDMA_R = "tdma-r"
FDMA = "fdma"


def avg_aoc_units(scheme: str, probs) -> float:
    """Average AoC of `scheme` ("tdma-nr", "tdma-r" or "fdma") for the
    per-device error rates `probs`, in slots or rounds."""
    probs = [float(p) for p in probs]
    if scheme == FDMA:
        return _fdma(probs)
    if scheme not in (TDMA_NR, TDMA_R):
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(probs) <= DENSE_MAX_N:
        return _tdma_dense(scheme, probs)
    return _tdma_mp(scheme, probs)


def _average(scheme: str, n: int, t1, t2, s1):
    # renewal reward: reset age + E[D^2] / (2 E[D]); TDMA-NR resets to N,
    # TDMA-R to one slot plus the residual time from device 2
    reset = n if scheme == TDMA_NR else 1 + t2
    return reset + s1 / (2 * t1)


def _tdma_dense(scheme: str, probs) -> float:
    # T_i = 1 + p_i T_{fail(i)} + (1 - p_i) T_{i+1},  T_{N+1} = 0, where a
    # failure restarts at device 1 (TDMA-NR) or repeats device i (TDMA-R).
    # Second moments S_i solve the same matrix against
    # r_i = 1 + 2 p_i T_{fail(i)} + 2 (1 - p_i) T_{i+1}.
    n = len(probs)
    p = np.asarray(probs, dtype=float)
    fail = np.zeros(n, dtype=int) if scheme == TDMA_NR else np.arange(n)
    m = np.eye(n)
    m[np.arange(n), fail] -= p
    m[np.arange(n - 1), np.arange(1, n)] -= 1.0 - p[:-1]
    t = np.linalg.solve(m, np.ones(n))
    t_next = np.append(t[1:], 0.0)
    s = np.linalg.solve(m, 1.0 + 2.0 * p * t[fail] + 2.0 * (1.0 - p) * t_next)
    t2 = float(t[1]) if n >= 2 else 0.0
    return float(_average(scheme, n, float(t[0]), t2, float(s[0])))


def _tdma_mp(scheme: str, probs) -> float:
    with mpmath.workdps(MP_DIGITS):
        p = [mpmath.mpf(x) for x in probs]
        n = len(p)
        t = _back_substitute(scheme, p, [mpmath.mpf(1)] * n)
        t_next = t[1:] + [mpmath.mpf(0)]
        fail_t = [t[0]] * n if scheme == TDMA_NR else t
        rhs = [1 + 2 * p[i] * fail_t[i] + 2 * (1 - p[i]) * t_next[i] for i in range(n)]
        s = _back_substitute(scheme, p, rhs)
        t2 = t[1] if n >= 2 else mpmath.mpf(0)
        return float(_average(scheme, n, t[0], t2, s[0]))


def _back_substitute(scheme: str, p, rhs):
    """Solve x_i = rhs_i + p_i x_{fail(i)} + (1 - p_i) x_{i+1}, x_{N+1} = 0."""
    n = len(p)
    x = [None] * n
    if scheme == TDMA_R:
        # x_i (1 - p_i) = rhs_i + (1 - p_i) x_{i+1}
        nxt = mpmath.mpf(0)
        for i in range(n - 1, -1, -1):
            nxt = rhs[i] / (1 - p[i]) + nxt
            x[i] = nxt
        return x
    # TDMA-NR: write x_i = a_i + b_i x_1, then solve x_1 = a_1 + b_1 x_1
    a = [None] * n
    b = [None] * n
    a_next, b_next = mpmath.mpf(0), mpmath.mpf(0)
    for i in range(n - 1, -1, -1):
        a[i] = rhs[i] + (1 - p[i]) * a_next
        b[i] = p[i] + (1 - p[i]) * b_next
        a_next, b_next = a[i], b[i]
    x1 = a[0] / (1 - b[0])
    return [a[i] + b[i] * x1 for i in range(n)]


def _fdma(probs) -> float:
    with mpmath.workdps(MP_DIGITS):
        gamma = mpmath.fprod(1 - mpmath.mpf(x) for x in probs)
        return float(1 + (2 - gamma) / (2 * gamma))
