import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aockit.analysis import (
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


def _chain_reference(scheme, probs):
    """(T_1..T_N, E[T_1^2], average) of a TDMA chain, solved exactly.

    From state i a slot succeeds with probability 1 - p_i and moves on to
    i + 1; a failure moves to state 1 (TDMA-NR) or stays at i (TDMA-R).
    The first moments solve T_i = 1 + p_i T_fail + (1 - p_i) T_{i+1} and
    the second moments the same matrix against 1 + 2 E[T_next].  The
    float PERs are taken exactly as Fractions, so the only rounding is the
    final conversion to float (a float solve of the same matrix can be off
    by 1e-10 where the moments are large).
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
    avg = reset + s[0] / (2 * t[0])
    return [float(x) for x in t], float(s[0]), float(avg)


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
        match = r"fdma: average AoC exceeds float range \(N = 1100\)"
        with pytest.raises(ValueError, match=match):
            fdma_avg_aoc_rounds(p)

    def test_subnormal_gamma(self):
        # gamma = 2**-1023 is subnormal, 1/gamma still fits
        assert fdma_avg_aoc_rounds(make_per_vector([0.5] * 1023)) == 2.0 ** 1023


def _success_run_avg(n, p):
    """TDMA-NR average for N devices of equal PER p, from the mean
    (1 - s^N) / g and variance 1/g^2 - (2N + 1)/g - s/p^2 of the wait for
    N successes in a row, g = p s^N (Feller, Vol. I, XIII.7), rearranged so
    that no intermediate exceeds the average."""
    s = 1.0 - p
    c = 1.0 - s ** n
    g = p * s ** n
    return n + ((1.0 + c * c) / (2.0 * g) - (n + 0.5) - s * g / (2.0 * p * p)) / c


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
            match = rf"{scheme.token}: average AoC exceeds float range \(N = 1024\)"
            with pytest.raises(ValueError, match=match):
                avg_aoc_ms(scheme, per, unit)

    def test_n1024_low_loss_values(self):
        per = make_per_vector([0.1] * 1024)
        want = _success_run_avg(1024, 0.1)
        assert tdma_nr_avg_aoc_slots(per) == pytest.approx(want, rel=REL)
        assert fdma_avg_aoc_rounds(per) == pytest.approx(0.5 + 0.9 ** -1024, rel=REL)

    def test_ms_conversion_overflow(self):
        timing = TimingModel(tdma_slot_ms=1e308, fdma_round_ms=1.0)
        with pytest.raises(ValueError, match="tdma-r: average AoC exceeds float range"):
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

    def test_tdma_r_unit_slot(self):
        timing = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)
        avg = avg_aoc_ms(SchemeKind.TDMA_R, make_per_vector([0.5, 0.5]), timing)
        assert avg == pytest.approx(5.5, rel=REL)


class TestCrossSchemeProperties:
    def test_retransmission_never_worse(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = _random_per(rng)
            r = tdma_r_avg_aoc_slots(p)
            nr = tdma_nr_avg_aoc_slots(p)
            assert r <= nr * (1.0 + 1e-12) + 1e-12

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
