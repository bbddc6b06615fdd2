import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aockit.analysis import (
    _SCALE,
    _survival,
    avg_aoc_ms,
    fdma_avg_aoc_rounds,
    fdma_gamma,
    tdma_nr_avg_aoc_slots,
    tdma_nr_moments,
    tdma_r_avg_aoc_slots,
    tdma_r_moments,
)
from aockit.domain import SchemeKind, TimingModel, make_per_vector

REL = 1e-12


def _random_per(rng, n_max=8, p_max=0.9):
    n = int(rng.integers(1, n_max + 1))
    return make_per_vector(rng.uniform(0.0, p_max, size=n))


def _solve_exact(m, b):
    """Gauss-Jordan elimination on Fraction entries; m is nonsingular."""
    n = len(b)
    rows = [list(m[i]) + [b[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def _chain_exact(scheme, probs):
    """(T_1..T_N, E[T_1^2], average) of a TDMA chain as exact Fractions.

    From state i a slot succeeds with probability 1 - p_i and moves on to
    i + 1; a failure moves to state 1 (TDMA-NR) or stays at i (TDMA-R).
    The first moments solve T_i = 1 + p_i T_fail + (1 - p_i) T_{i+1} and
    the second moments the same matrix against 1 + 2 E[T_next].  The
    float PERs are taken exactly as Fractions, so nothing is rounded.
    """
    p = [Fraction(x) for x in probs]
    n = len(p)
    fail = [0] * n if scheme is SchemeKind.TDMA_NR else list(range(n))
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][fail[i]] -= p[i]
        if i + 1 < n:
            m[i][i + 1] -= 1 - p[i]
    t = _solve_exact(m, [Fraction(1)] * n)
    t_next = t[1:] + [Fraction(0)]
    s = _solve_exact(m, [1 + 2 * (p[i] * t[fail[i]] + (1 - p[i]) * t_next[i])
                         for i in range(n)])
    reset = n if scheme is SchemeKind.TDMA_NR else 1 + (t[1] if n >= 2 else 0)
    return t, s[0], reset + s[0] / (2 * t[0])


def _chain_reference(scheme, probs):
    """_chain_exact rounded to floats, the only rounding (a float solve of
    the same matrix can be off by 1e-10 where the moments are large)."""
    t, second, avg = _chain_exact(scheme, probs)
    return [float(x) for x in t], float(second), float(avg)


def _ulps(x, exact):
    """|x - exact| in units in the last place of the float nearest exact.

    exact is a Fraction or an integer pair (numerator, denominator); a pair
    spares the gcd that a Fraction of 10^5-bit integers would cost."""
    num, den = exact if isinstance(exact, tuple) else exact.as_integer_ratio()
    a, b = float(x).as_integer_ratio()
    c, d = math.ulp(num / den).as_integer_ratio()
    return abs(a * den - num * b) * d / (b * den * c)


_CLOSED_FORMS = {
    SchemeKind.TDMA_NR: (tdma_nr_moments, tdma_nr_avg_aoc_slots),
    SchemeKind.TDMA_R: (tdma_r_moments, tdma_r_avg_aoc_slots),
}


def _assert_matches_reference(scheme, probs, rel=REL):
    moments, average = _CLOSED_FORMS[scheme]
    p = make_per_vector(probs)
    t, second, avg = _chain_reference(scheme, p.probs)
    m = moments(p)
    assert m.first == pytest.approx(tuple(t), rel=rel)
    assert m.second_t1 == pytest.approx(second, rel=rel)
    assert average(p) == pytest.approx(avg, rel=rel)


class TestSolveDense:
    """The closed forms against an exact solve of each chain's equations."""

    def test_nr_first_moment_system(self):
        t, second, _ = _chain_reference(SchemeKind.TDMA_NR, (0.5, 0.5))
        assert t == pytest.approx([6.0, 4.0], rel=REL)
        assert second == pytest.approx(58.0, rel=REL)
        _assert_matches_reference(SchemeKind.TDMA_NR, (0.5, 0.5))

    def test_nr_matches_chain_solve(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            _assert_matches_reference(SchemeKind.TDMA_NR, _random_per(rng).probs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 0.9, exclude_max=True), min_size=1, max_size=8))
    # a float solve of the chain was off by 2e-10 on these
    @example([0.5, 0.875, 0.8984375, 0.875, 0.875, 0.875, 0.890625])
    @example([0.6685047728924937, 0.875, 0.8984375, 0.8984375, 0.8984375, 0.875, 0.875])
    def test_nr_property(self, probs):
        _assert_matches_reference(SchemeKind.TDMA_NR, probs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-9),
                              st.floats(0.0, 0.999), st.floats(0.999, 1.0, exclude_max=True)),
                    min_size=1, max_size=8))
    @example([0.3] * 8)
    @example([1e-12] * 8)
    @example([0.0, 0.6, 0.0, 0.0, 0.0])
    @example([1.0 - 2.0 ** -30] * 8)
    def test_nr_average_within_8_ulps_of_exact(self, probs):
        # the exact chain solve, not the closed form's sums, is the reference
        _, _, exact = _chain_exact(SchemeKind.TDMA_NR, probs)
        assert _ulps(tdma_nr_avg_aoc_slots(make_per_vector(probs)), exact) <= 8


class TestTdmaNrMoments:
    def test_zero_loss(self):
        m = tdma_nr_moments(make_per_vector([0.0, 0.0]))
        assert m.first == (2.0, 1.0)
        assert m.second_t1 == 4.0

    def test_half_loss_pair(self):
        m = tdma_nr_moments(make_per_vector([0.5, 0.5]))
        assert m.first == pytest.approx((6.0, 4.0), rel=REL)
        assert m.second_t1 == pytest.approx(58.0, rel=REL)
        assert m.first[1] == pytest.approx(4.0, rel=REL)

    def test_single_device_geometric(self):
        # T is geometric(q=0.5): E = 2, E[T^2] = (2 - q)/q^2 = 6
        m = tdma_nr_moments(make_per_vector([0.5]))
        assert m.first == pytest.approx((2.0,), rel=REL)
        assert m.second_t1 == pytest.approx(6.0, rel=REL)
        assert len(m.first) == 1

    def test_recursion_residuals(self):
        # substitute the solved moments back into the defining recursions
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = _random_per(rng)
            m = tdma_nr_moments(p)
            n = p.n
            first = m.first + (0.0,)
            for i in range(n):
                want = 1.0 + p.probs[i] * first[0] + (1.0 - p.probs[i]) * first[i + 1]
                assert first[i] == pytest.approx(want, rel=1e-8)
            # second-moment recursion checked at state 1 via a fresh solve
            m2 = tdma_nr_moments(p)
            assert m2.second_t1 == pytest.approx(m.second_t1, rel=1e-8)

    def test_jensen(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = tdma_nr_moments(_random_per(rng))
            assert m.second_t1 >= m.first[0] ** 2 * (1.0 - 1e-12)


class TestTdmaNrAvg:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_loss_closed_form(self, n):
        assert tdma_nr_avg_aoc_slots(make_per_vector([0.0] * n)) == 1.5 * n

    def test_half_loss_pair(self):
        avg = tdma_nr_avg_aoc_slots(make_per_vector([0.5, 0.5]))
        assert avg == pytest.approx(2.0 + 58.0 / 12.0, rel=REL)

    def test_single_device(self):
        assert tdma_nr_avg_aoc_slots(make_per_vector([0.5])) == pytest.approx(2.5, rel=REL)


class TestTdmaRMoments:
    def test_zero_loss(self):
        m = tdma_r_moments(make_per_vector([0.0, 0.0]))
        assert m.first == (2.0, 1.0)
        assert m.first[1] == 1.0
        assert m.second_t1 == 4.0

    def test_half_loss_pair(self):
        m = tdma_r_moments(make_per_vector([0.5, 0.5]))
        assert m.first == (4.0, 2.0)
        assert m.first[1] == 2.0
        assert m.second_t1 == 20.0

    def test_single_device_matches_nr(self):
        r = tdma_r_moments(make_per_vector([0.5]))
        nr = tdma_nr_moments(make_per_vector([0.5]))
        assert r.first[0] == pytest.approx(nr.first[0], rel=REL)
        assert r.second_t1 == pytest.approx(nr.second_t1, rel=REL)
        assert len(r.first) == 1

    def test_suffix_sums(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = _random_per(rng)
            m = tdma_r_moments(p)
            a = [1.0 / (1.0 - pi) for pi in p.probs]
            for i in range(p.n):
                assert m.first[i] == pytest.approx(sum(a[i:]), rel=1e-12)
            # strictly decreasing suffix sums
            assert all(x > y for x, y in zip(m.first, m.first[1:]))

    def test_cross_check_agrees(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            _assert_matches_reference(SchemeKind.TDMA_R, _random_per(rng).probs)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 60, 257, 3000])
    def test_suffix_sums_equal_fsum(self, n):
        # every T_i is the correctly rounded sum of a[i:], bit for bit,
        # with exact zeros, tiny PERs and PERs a hair below 1 mixed in
        rng = np.random.default_rng(n)
        probs = rng.uniform(0.0, 0.9, n)
        edges = rng.choice([0.0, 1e-12, 1.0 - 2.0 ** -40], n)
        probs = np.where(rng.random(n) < 0.3, edges, probs).tolist()
        a = [1.0 / (1.0 - pi) for pi in probs]
        want = tuple(math.fsum(a[i:]) for i in range(n))
        assert tdma_r_moments(make_per_vector(probs)).first == want

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            probs = list(rng.uniform(0.0, 0.9, size=6))
            m1 = tdma_r_moments(make_per_vector(probs))
            shuffled = [probs[0]] + [probs[i] for i in (3, 5, 1, 4, 2)]
            m2 = tdma_r_moments(make_per_vector(shuffled))
            assert m1.first[0] == m2.first[0]
            assert m1.second_t1 == m2.second_t1
            assert m1.first[1] == m2.first[1]


class TestTdmaRAvg:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_loss_closed_form(self, n):
        assert tdma_r_avg_aoc_slots(make_per_vector([0.0] * n)) == 1.5 * n

    def test_half_loss_pair(self):
        assert tdma_r_avg_aoc_slots(make_per_vector([0.5, 0.5])) == pytest.approx(5.5, rel=REL)

    def test_single_device(self):
        assert tdma_r_avg_aoc_slots(make_per_vector([0.5])) == pytest.approx(2.5, rel=REL)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 0.999), min_size=1, max_size=256))
    def test_direct_form_equals_moments(self, probs):
        # the one-pass average is bit-identical to the moments-derived one,
        # and the moments keep every suffix sum
        p = make_per_vector(probs)
        mom = tdma_r_moments(p)
        t2 = mom.first[1] if p.n >= 2 else 0.0
        want = 1.0 + t2 + mom.second_t1 / (2.0 * mom.first[0])
        assert tdma_r_avg_aoc_slots(p) == want
        a = [1.0 / (1.0 - pi) for pi in probs]
        assert mom.first == tuple(math.fsum(a[i:]) for i in range(p.n))


class TestFdma:
    def test_gamma(self):
        assert fdma_gamma(make_per_vector([0.0, 0.0, 0.0])) == 1.0
        assert fdma_gamma(make_per_vector([0.5, 0.5])) == 0.25
        assert fdma_gamma(make_per_vector([0.1, 0.2])) == pytest.approx(0.72, rel=REL)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_loss_rounds(self, n):
        assert fdma_avg_aoc_rounds(make_per_vector([0.0] * n)) == 1.5

    def test_half_loss_pair(self):
        assert fdma_avg_aoc_rounds(make_per_vector([0.5, 0.5])) == pytest.approx(4.5, rel=REL)

    def test_six_devices(self):
        assert fdma_avg_aoc_rounds(make_per_vector([0.5] * 6)) == pytest.approx(64.5, rel=REL)

    def test_gamma_below_float_range(self):
        # 2**-1100 underflows a plain product to 0; 1/gamma overflows too
        p = make_per_vector([0.5] * 1100)
        assert fdma_gamma(p) == 0.0
        match = r"^average AoC exceeds float range \(N = 1100\)$"
        with pytest.raises(ValueError, match=match):
            fdma_avg_aoc_rounds(p)

    def test_subnormal_gamma(self):
        # gamma = 2**-1023 is subnormal, 1/gamma still fits
        assert fdma_avg_aoc_rounds(make_per_vector([0.5] * 1023)) == 2.0 ** 1023


@pytest.mark.parametrize("last, gamma, nr, fdma", [
    (1.0 - 2.0 ** -16, "0x0.8000000000000p-1022",
     "0x1.0000000000001p+1023", "0x1.0000000000000p+1023"),
    (0.99999, "0x0.53e2d6238c000p-1022",
     "0x1.86a0000007a2cp+1023", "0x1.86a0000007a2ap+1023"),
], ids=("last-1-2**-16", "last-0.99999"))
def test_subnormal_survival_with_finite_averages(last, gamma, nr, fdma):
    # Q = prod(1 - p_i) is near 2**-1023, below the normal range, in 20
    # factors; both averages divide by Q and still fit in a float64
    per = make_per_vector([1.0 - 2.0 ** -53] * 19 + [last])
    assert fdma_gamma(per) == float.fromhex(gamma)
    assert tdma_nr_avg_aoc_slots(per) == float.fromhex(nr)
    assert fdma_avg_aoc_rounds(per) == float.fromhex(fdma)


def _rescaled_product(probs):
    """prod(1 - p_i) as (m, e), renormalised factor by factor below 2**-512."""
    m, e = 1.0, 0
    for pi in probs:
        m *= 1.0 - pi
        if m < 2.0 ** -512:
            m, k = math.frexp(m)
            e += k
    return m, e


def _assert_scaled_product(probs):
    """_survival's frexp mantissa is the rescaling loop's, and its exponent
    is the loop's plus that of _SCALE."""
    m, e = _rescaled_product(probs)
    want_m, k = math.frexp(m)
    got_m, got_e = math.frexp(_survival(probs))
    assert (got_m, got_e) == (want_m, e + k + math.frexp(_SCALE)[1] - 1)


class TestSurvival:
    """The scaled product loses no bit against the rescaling loop, for
    products down to 2**-1086, where the scaled one leaves the normal range."""

    def test_products_above_the_cutoff(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            probs = tuple(float(x) for x in rng.uniform(0.0, rng.uniform(0.0, 0.99), n))
            _assert_scaled_product(probs)

    @pytest.mark.parametrize("n, p", [(511, 0.5), (512, 0.5), (513, 0.5), (600, 0.5),
                                      (1086, 0.5), (326, 0.9), (2110, 0.3)])
    def test_products_across_the_cutoff(self, n, p):
        _assert_scaled_product((p,) * n)

    def test_mixed_products_across_the_cutoff(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            probs = [float(x) for x in rng.uniform(0.0, 0.99, 1500)]
            # cut where log2 of the product first falls below the target
            target = rng.uniform(-1080.0, -400.0)
            logs = itertools.accumulate(math.log2(1.0 - pi) for pi in probs)
            n = sum(1 for _ in itertools.takewhile(lambda x: x > target, logs))
            _assert_scaled_product(probs[:n])


def _success_run_avg(n, p):
    """TDMA-NR average for N devices of equal PER p, from the mean
    (1 - s^N) / g and variance 1/g^2 - (2N + 1)/g - s/p^2 of the wait for
    N successes in a row, g = p s^N (Feller, Vol. I, XIII.7), rearranged so
    that no intermediate exceeds the average."""
    s = 1.0 - p
    c = 1.0 - s ** n
    g = p * s ** n
    return n + ((1.0 + c * c) / (2.0 * g) - (n + 0.5) - s * g / (2.0 * p * p)) / c


def _success_run_exact(n, p):
    """_success_run_avg's mean and average in exact Fractions, p > 0."""
    p = Fraction(p)
    s = 1 - p
    g = p * s ** n
    mean = (1 - s ** n) / g
    var = 1 / g ** 2 - (2 * n + 1) / g - s / p ** 2
    return mean, n + (var + mean * mean) / (2 * mean)


@pytest.mark.parametrize("n", [256, 511, 1000])
@pytest.mark.parametrize("p", [1e-12, 1e-9, 1e-6])
class TestSmallPers:
    # at PERs this small the mean is N plus a small excess, and the average
    # N + 1/2 + (N - 1)/2 plus another; taking the excess from 1 - p rounded
    # to a float costs about N/25 ulps, taking it from p about N/90

    def test_nr_average_keeps_n_exact(self, n, p):
        _, exact = _success_run_exact(n, p)
        avg = tdma_nr_avg_aoc_slots(make_per_vector([p] * n))
        assert _ulps(avg, exact) <= 2 + n / 64

    def test_nr_mean_keeps_n_exact(self, n, p):
        exact, _ = _success_run_exact(n, p)
        mean = tdma_nr_moments(make_per_vector([p] * n)).first[0]
        assert _ulps(mean, exact) <= 2 + n / 64


def _survival_ints(probs):
    """(E, [S_i]) with 1 - p_i = S_i / 2^E for every i, under one E.

    Each float p_i is m / 2^k, so over the largest 2^k every survival
    factor is an exact integer, and so is every product of them."""
    ratios = [float(pi).as_integer_ratio() for pi in probs]
    e = max(den.bit_length() - 1 for _, den in ratios)
    return e, [(den - num) << (e - den.bit_length() + 1) for num, den in ratios]


def _nr_closed_form_exact(probs):
    """1/2 + W/A + A/Q (tdma_nr_avg_aoc_slots) as an exact integer ratio.

    With the prefix products P_m = Pi_m / 2^(E m), A and W are integer sums
    over 2^(E (N - 1)) and Q = Pi_N / 2^(E N), so the average is one
    quotient of integers, which int / int rounds correctly."""
    e, factors = _survival_ints(probs)
    a = w = 0
    prod = 1
    for m, factor in enumerate(factors):
        a = (a << e) + prod
        w = (w << e) + m * prod
        prod *= factor
    return a * prod + 2 * w * prod + (a * a << (e + 1)), 2 * a * prod


def _r_closed_form_exact(probs):
    """1 + T_2 + E[T_1^2] / (2 T_1) (tdma_r_avg_aoc_slots) in exact Fractions,
    as an integer ratio."""
    a = [1 / (1 - Fraction(pi)) for pi in probs]
    p1 = Fraction(probs[0])
    t1 = sum(a)
    t2 = t1 - a[0]
    second = (1 + p1) / (1 - p1) * t1 + t2 * t2 + sum(x * x for x in a[1:])
    return (1 + t2 + second / (2 * t1)).as_integer_ratio()


def _nr_first_exact(probs):
    """T_1..T_N of TDMA-NR in exact Fractions, by the backward recursion
    A_i = 1 + s_i A_{i+1}, R_i = p_i + s_i R_{i+1}, T_i = A_i + R_i T_1,
    which shares no step with tdma_nr_moments' prefix-product form."""
    a, r = [Fraction(0)], [Fraction(0)]
    for pi in map(Fraction, reversed(probs)):
        a.append(1 + (1 - pi) * a[-1])
        r.append(pi + (1 - pi) * r[-1])
    t1 = a[-1] / (1 - r[-1])
    return [ai + ri * t1 for ai, ri in zip(a[:0:-1], r[:0:-1])]


def _fdma_closed_form_exact(probs):
    """1 + (2 - gamma) / (2 gamma) (fdma_avg_aoc_rounds) as an exact integer
    ratio: gamma = Pi_N / 2^(E N) makes it (2^(E N + 1) + Pi_N) / (2 Pi_N)."""
    e, factors = _survival_ints(probs)
    gamma = math.prod(factors)
    return (1 << (e * len(factors) + 1)) + gamma, 2 * gamma


# N and PER caps of the edge grid of CHANGES.md, up to N = 64; TDMA-NR and
# FDMA, with integer references, also take N = 256 and 1000, where the float
# error is largest
_ULP_NS = (1, 2, 3, 4, 5, 8, 13, 32, 64)
_ULP_LARGE_NS = _ULP_NS + (256, 1000)
_ULP_CAPS = (1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)


def _ulp_grid(seed, ns=_ULP_NS):
    """Equal, uniform and zero-mixed PER vectors for every N and cap."""
    rng = np.random.default_rng(seed)
    for n, cap in itertools.product(ns, _ULP_CAPS):
        keep = rng.random(n) < 0.5
        yield [cap] * n
        yield [float(x) for x in rng.uniform(0.0, cap, n)]
        yield [float(x) if k else 0.0 for x, k in zip(rng.uniform(0.0, cap, n), keep)]


class TestUlpBound:
    """Each average against an exact evaluation of its own closed form on
    the float PERs as given, so the bound counts the float arithmetic only.

    To first order, with every rounding counted as a whole ulp: TDMA-NR and
    FDMA round the N factors 1 - p_i and the N products of Q, then a
    quotient and a sum, 2N + 2 ulps; TDMA-R rounds each 1 / (1 - p_k) and
    its correctly rounded sums once, and its quotient and sum, 3 ulps.
    Measured worst on this grid: 35 ulps for TDMA-NR and 45 for FDMA at
    N = 64, 123 and 150 at N = 256, 432 and 520 at N = 1000, and 2.3 for
    TDMA-R (N <= 64).  TDMA-NR's first moments T_1..T_N round the same
    factors and products, and take the same bound.
    """

    @pytest.mark.parametrize("average, exact, bound, ns", [
        (tdma_nr_avg_aoc_slots, _nr_closed_form_exact, lambda n: 2 * n + 2, _ULP_LARGE_NS),
        (tdma_r_avg_aoc_slots, _r_closed_form_exact, lambda n: 3, _ULP_NS),
        (fdma_avg_aoc_rounds, _fdma_closed_form_exact, lambda n: 2 * n + 2, _ULP_LARGE_NS),
    ], ids=("tdma-nr", "tdma-r", "fdma"))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_within_first_order_bound(self, average, exact, bound, ns, seed):
        for probs in _ulp_grid(seed, ns):
            p = make_per_vector(probs)
            num, den = exact(p.probs)
            try:
                got = average(p)
            except ValueError:
                # a range error only where the exact average rounds to inf
                with pytest.raises(OverflowError):
                    num / den
                continue
            assert _ulps(got, (num, den)) <= bound(p.n), probs

    @pytest.mark.parametrize("seed", [1, 2])
    def test_nr_first_moments_within_first_order_bound(self, seed):
        # T_1..T_N under the averages' bound (worst measured: 42.6 ulps at
        # N = 64); the moments' range error skips a vector
        for probs in _ulp_grid(seed):
            p = make_per_vector(probs)
            try:
                first = tdma_nr_moments(p).first
            except ValueError as err:
                assert "exceed float range" in str(err)
                continue
            for got, want in zip(first, _nr_first_exact(p.probs), strict=True):
                assert _ulps(got, want) <= 2 * p.n + 2, probs

    @pytest.mark.parametrize("probs", [
        [1.0 - 1e-9] + [1e-12] * 7,
        [0.99] + [1e-6] * 12,
    ], ids=("p1-near-1", "p1-0.99"))
    def test_nr_first_moments_after_a_lossy_first_device(self, probs):
        # R_i T_1 with a huge T_1 and tiny later PERs: taking R_i as
        # 1 - Q / P_{i-1} instead of from the p_k was 4.8e8 ulps off here
        p = make_per_vector(probs)
        for got, want in zip(tdma_nr_moments(p).first, _nr_first_exact(p.probs)):
            assert _ulps(got, want) <= 2 * p.n + 2


class TestFloatRange:
    @pytest.mark.parametrize("n, p, mean", [(64, 0.3, 2.7e10), (128, 0.1, 7.2e6)])
    def test_nr_long_rounds(self, n, p, mean):
        # inputs where an absolute residual bound made the dense solve give up
        per = make_per_vector([p] * n)
        s = 1.0 - p
        m = tdma_nr_moments(per)
        assert m.first[0] == pytest.approx((1.0 - s ** n) / (p * s ** n), rel=REL)
        assert m.first[0] == pytest.approx(mean, rel=0.02)
        assert tdma_nr_avg_aoc_slots(per) == pytest.approx(_success_run_avg(n, p), rel=REL)

    @pytest.mark.parametrize("n", [512, 1022])
    def test_nr_average_fits_where_moments_do_not(self, n):
        per = make_per_vector([0.5] * n)
        match = "tdma-nr: hitting-time moments exceed float range"
        with pytest.raises(ValueError, match=match):
            tdma_nr_moments(per)
        assert tdma_nr_avg_aoc_slots(per) == pytest.approx(_success_run_avg(n, 0.5), rel=REL)

    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.token)
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_n1024_finite_or_range_error(self, scheme, p):
        unit = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)
        per = make_per_vector([p] * 1024)
        if scheme is SchemeKind.TDMA_R or p == 0.1:
            assert math.isfinite(avg_aoc_ms(scheme, per, unit))
        else:
            match = r"^average AoC exceeds float range \(N = 1024\)$"
            with pytest.raises(ValueError, match=match):
                avg_aoc_ms(scheme, per, unit)

    def test_n1024_low_loss_values(self):
        per = make_per_vector([0.1] * 1024)
        want = _success_run_avg(1024, 0.1)
        assert tdma_nr_avg_aoc_slots(per) == pytest.approx(want, rel=REL)
        assert fdma_avg_aoc_rounds(per) == pytest.approx(0.5 + 0.9 ** -1024, rel=REL)

    def test_ms_conversion_overflow(self):
        timing = TimingModel(tdma_slot_ms=1e308, fdma_round_ms=1.0)
        with pytest.raises(ValueError, match=r"^tdma_slot_ms 1e\+308 times 11\.5 slots "
                                             "exceeds float range$"):
            avg_aoc_ms(SchemeKind.TDMA_R, make_per_vector([0.5] * 4), timing)


class TestAvgAocMs:
    def test_tdma_nr_reference_slot(self):
        timing = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)
        avg = avg_aoc_ms(SchemeKind.TDMA_NR, make_per_vector([0.0] * 6), timing)
        assert avg == pytest.approx(0.936, rel=REL)

    def test_fdma_reference_round(self):
        timing = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)
        avg = avg_aoc_ms(SchemeKind.FDMA, make_per_vector([0.0] * 6), timing)
        assert avg == pytest.approx(0.336, rel=REL)

    def test_rejects_a_scheme_token(self):
        timing = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)
        with pytest.raises(ValueError, match="^unknown scheme 'fdma'$"):
            avg_aoc_ms("fdma", make_per_vector([0.1]), timing)

    def test_tdma_r_unit_slot(self):
        timing = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)
        avg = avg_aoc_ms(SchemeKind.TDMA_R, make_per_vector([0.5, 0.5]), timing)
        assert avg == pytest.approx(5.5, rel=REL)


def _pers(n_max):
    """PER vectors of 1..n_max devices with exact zeros, PERs up to 0.9 and
    a small-PER band."""
    per = st.one_of(st.just(0.0), st.floats(0.0, 0.9), st.floats(0.0, 0.05))
    return st.integers(1, n_max).flatmap(
        lambda n: st.lists(per, min_size=n, max_size=n))


class TestOrderingRules:
    """The transmission order that minimizes each TDMA average, against an
    exhaustive search; "least" is within REL of the minimum."""

    @settings(max_examples=150, deadline=None)
    @given(_pers(7))
    @example([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
    def test_tdma_r_highest_per_first(self, probs):
        # only the first device matters: the rest enter through order-free
        # fsum sums, so reordering devices 2..N keeps every bit
        def avg(first, rest):
            return tdma_r_avg_aoc_slots(make_per_vector([first, *rest]))

        firsts = [avg(probs[j], probs[:j] + probs[j + 1:]) for j in range(len(probs))]
        j = probs.index(max(probs))
        rest = probs[:j] + probs[j + 1:]
        assert firsts[j] <= min(firsts) * (1.0 + REL)
        assert avg(probs[j], rest[::-1]) == firsts[j]

    @settings(max_examples=200, deadline=None)
    @given(_pers(6))
    @example([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
    @example([0.0, 0.6, 0.0, 0.0, 0.0])
    def test_tdma_nr_descending_per(self, probs):
        best = min(tdma_nr_avg_aoc_slots(make_per_vector(order))
                   for order in set(itertools.permutations(probs)))
        descending = make_per_vector(sorted(probs, reverse=True))
        assert tdma_nr_avg_aoc_slots(descending) <= best * (1.0 + REL)


class TestCrossSchemeProperties:
    def test_retransmission_never_worse(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = _random_per(rng)
            r = tdma_r_avg_aoc_slots(p)
            nr = tdma_nr_avg_aoc_slots(p)
            assert r <= nr * (1.0 + 1e-12) + 1e-12

    def test_retransmission_can_lose_to_restart(self):
        # a lossy device between lossless ones: TDMA-R's reset age carries
        # the retransmissions of device 2 onwards, and TDMA-NR's does not,
        # so here TDMA-NR is lower (a 4e6-slot simulation, seed 11, agrees:
        # 10.038 +- 0.009 against 9.945 +- 0.011)
        p = make_per_vector([0.0, 0.6, 0.0, 0.0, 0.0])
        assert tdma_r_avg_aoc_slots(p) == pytest.approx(10.0385, abs=1e-4)
        assert tdma_nr_avg_aoc_slots(p) == pytest.approx(9.9375, abs=1e-4)
        assert tdma_r_avg_aoc_slots(p) > tdma_nr_avg_aoc_slots(p)

    def test_retransmission_loses_in_each_best_order(self):
        # {0.1, 0.1, 0, 0, 0, 0}: TDMA-R stays above TDMA-NR even when each
        # scheme takes its best transmission order
        orders = set(itertools.permutations([0.1, 0.1, 0.0, 0.0, 0.0, 0.0]))
        best_r = min(tdma_r_avg_aoc_slots(make_per_vector(o)) for o in orders)
        best_nr = min(tdma_nr_avg_aoc_slots(make_per_vector(o)) for o in orders)
        assert best_r / best_nr - 1.0 == pytest.approx(0.0016, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 0.99)), min_size=n, max_size=n)))
    @example([0.0])
    @example([0.0] * 40)
    @example([0.99] * 40)
    def test_retransmission_never_worse_than_idealized_fdma(self, probs):
        # the paper's headline theory claim: TDMA-R's average in slots is at
        # most FDMA's in rounds of N slots; equality only at PER 0 (1.5 N)
        p = make_per_vector(probs)
        bound = p.n * fdma_avg_aoc_rounds(p) * (1.0 + 4.0 * sys.float_info.epsilon)
        assert tdma_r_avg_aoc_slots(p) <= bound

    def test_single_device_schemes_coincide(self):
        rng = np.random.default_rng(18)
        timing = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)
        for _ in range(100):
            p = make_per_vector([float(rng.uniform(0.0, 0.95))])
            q = 1.0 - p.probs[0]
            want = 1.0 + (2.0 - q) / (2.0 * q)
            assert tdma_nr_avg_aoc_slots(p) == pytest.approx(want, rel=1e-9)
            assert tdma_r_avg_aoc_slots(p) == pytest.approx(want, rel=1e-9)
            assert avg_aoc_ms(SchemeKind.FDMA, p, timing) == pytest.approx(want, rel=1e-9)

    def test_monotone_in_each_per(self):
        rng = np.random.default_rng(19)
        fns = (tdma_nr_avg_aoc_slots, tdma_r_avg_aoc_slots, fdma_avg_aoc_rounds)
        for _ in range(100):
            p = _random_per(rng, p_max=0.8)
            i = int(rng.integers(0, p.n))
            bumped = list(p.probs)
            bumped[i] = bumped[i] + 0.1
            q = make_per_vector(bumped)
            for fn in fns:
                assert fn(q) >= fn(p) * (1.0 - 1e-12)
