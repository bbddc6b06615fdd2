import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aockit.domain import (
    AocTrace,
    HittingMoments,
    PerVector,
    SchemeKind,
    TimingModel,
    integrate_trace,
    make_per_vector,
)


class TestPerVector:
    def test_valid_vectors(self):
        assert make_per_vector([0.0, 0.0]).n == 2
        assert make_per_vector([0.5, 0.5]).probs == (0.5, 0.5)
        assert make_per_vector([0.999]).n == 1

    def test_rejects_per_of_one(self):
        with pytest.raises(ValueError, match="unreachable success state"):
            make_per_vector([0.3, 1.0])

    @pytest.mark.parametrize("bad", [[-0.1], [1.5], [0.2, float("nan")]])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            make_per_vector(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_per_vector([])

    def test_permuted(self):
        p = make_per_vector([0.1, 0.2, 0.3])
        assert p.permuted((3, 1, 2)).probs == (0.3, 0.1, 0.2)
        assert p.permuted((1, 2, 3)).probs == p.probs

    @pytest.mark.parametrize("order", [(1, 2), (1, 1, 2), (0, 1, 2), (2, 3, 4)])
    def test_permuted_rejects_non_permutation(self, order):
        p = make_per_vector([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            p.permuted(order)


    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64))
    def test_probs_round_trip(self, values):
        p = make_per_vector(values)
        assert p.probs == tuple(values)
        assert make_per_vector(p.probs) == p
        assert make_per_vector(np.array(p.probs)) == p

    @given(st.permutations(list(range(1, 7))))
    def test_permuted_round_trip(self, order):
        p = make_per_vector([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        seen = p.permuted(order)
        inverse = [order.index(d) + 1 for d in range(1, 7)]
        assert seen.permuted(inverse) == p
        assert seen.probs == tuple(p.probs[d - 1] for d in order)


class TestSchemeKind:
    def test_tokens_roundtrip(self):
        for kind in SchemeKind:
            assert SchemeKind.from_token(kind.token) is kind
            assert SchemeKind.expand(kind.token) == (kind,)

    def test_tdma_shorthand(self):
        assert SchemeKind.expand("tdma") == (SchemeKind.TDMA_NR, SchemeKind.TDMA_R)
        with pytest.raises(ValueError, match="unknown scheme token 'csma'"):
            SchemeKind.expand("csma")

    def test_unknown_token(self):
        with pytest.raises(ValueError):
            SchemeKind.from_token("tdma")  # shorthand is a table concept


class TestTimingModel:
    def test_valid(self):
        t = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)
        assert t.tdma_slot_ms == 0.104

    @pytest.mark.parametrize("slot,rnd", [
        (0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
        (float("inf"), 1.0), (1.0, float("nan")),
    ])
    def test_rejects_nonpositive(self, slot, rnd):
        with pytest.raises(ValueError):
            TimingModel(tdma_slot_ms=slot, fdma_round_ms=rnd)

    def test_unit_ms_covers_every_scheme(self):
        # TDMA counts slots, FDMA counts rounds
        t = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=2.0)
        assert {k: t.unit_ms(k) for k in SchemeKind} == {
            SchemeKind.TDMA_NR: 1.0, SchemeKind.TDMA_R: 1.0, SchemeKind.FDMA: 2.0,
        }


def _trace(events, unit="slots"):
    times = [t for t, _ in events]
    ages = [a for _, a in events]
    return AocTrace(np.asarray(times, dtype=float), np.asarray(ages, dtype=float), unit)


class TestAocTrace:
    def test_valid_trace(self):
        tr = _trace([(2, 2), (4, 2), (6, 2)])
        assert len(tr) == 3
        assert tr.events == [(2.0, 2.0), (4.0, 2.0), (6.0, 2.0)]

    def test_arrays_read_only(self):
        tr = _trace([(2, 2), (4, 2)])
        with pytest.raises(ValueError):
            tr.times[0] = 0.0

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            _trace([(4, 2), (2, 2)])

    def test_rejects_nonpositive_age(self):
        with pytest.raises(ValueError):
            _trace([(2, 0.0), (4, 2)])

    def test_rejects_age_above_growth(self):
        # age after a 2-slot gap can be at most 2 + previous age
        with pytest.raises(ValueError):
            _trace([(2, 2), (4, 5)])

    def test_rejects_bad_unit(self):
        for unit in ("hours", "ms"):
            with pytest.raises(ValueError, match=f"unit '{unit}'"):
                _trace([(2, 2), (4, 2)], unit=unit)

    def test_renewal_intervals(self):
        tr = _trace([(2, 2), (5, 1.5), (6, 2.5)])
        assert tr.gaps.tolist() == [3.0, 1.0]
        # areas[k] = ages[k] * gaps[k] + gaps[k]**2 / 2
        assert tr.areas.tolist() == [2 * 3 + 9 / 2, 1.5 * 1 + 1 / 2]
        for arr in (tr.gaps, tr.areas):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert _trace([(2, 2)]).gaps.size == _trace([(2, 2)]).areas.size == 0


class TestHittingMoments:
    def test_valid(self):
        m = HittingMoments(first=(6.0, 4.0), second_t1=58.0)
        assert m.first == (6.0, 4.0)

    def test_rejects_jensen_violation(self):
        with pytest.raises(ValueError):
            HittingMoments(first=(6.0, 4.0), second_t1=35.0)

    @pytest.mark.parametrize("kw", [
        dict(first=(0.0,), second_t1=1.0),
        dict(first=(1.0,), second_t1=-1.0),
        dict(first=(1.0,), second_t1=float("nan")),
        dict(first=(float("inf"),), second_t1=1.0),
    ])
    def test_rejects_invalid_entries(self, kw):
        with pytest.raises(ValueError):
            HittingMoments(**kw)


class TestIntegrateTrace:
    def test_single_interval(self):
        assert integrate_trace(_trace([(2, 2), (4, 2)])) == 3.0

    def test_identical_intervals(self):
        assert integrate_trace(_trace([(2, 2), (4, 2), (6, 2)])) == 3.0

    def test_mixed_interval(self):
        # area = 2*3 + 3^2/2 = 10.5 over a span of 3
        assert integrate_trace(_trace([(2, 2), (5, 2)])) == 3.5

    def test_requires_two_events(self):
        with pytest.raises(ValueError, match="insufficient renewal intervals"):
            integrate_trace(_trace([(2, 2)]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            gaps = rng.uniform(0.5, 3.0, size=12)
            times = np.cumsum(gaps) + 5.0
            ages = rng.uniform(0.1, 0.5, size=12)
            base = integrate_trace(AocTrace(times, ages, "slots"))
            shifted = integrate_trace(AocTrace(times + 1000.0, ages, "slots"))
            assert shifted == pytest.approx(base, rel=1e-9)

    def test_linear_scaling(self):
        rng = np.random.default_rng(8)
        times = np.cumsum(rng.uniform(1.0, 2.0, size=20))
        ages = rng.uniform(0.2, 0.9, size=20)
        tr = AocTrace(times, ages, "slots")
        for c in (0.104, 3.0):
            assert integrate_trace(AocTrace(times * c, ages * c, "slots")) == pytest.approx(
                c * integrate_trace(tr), rel=1e-12
            )

    def test_constant_trace_closed_form(self):
        for g, r in [(2.0, 2.0), (5.0, 1.0), (0.25, 0.25)]:
            times = np.arange(1, 11, dtype=float) * g
            ages = np.full(10, r)
            assert integrate_trace(AocTrace(times, ages, "rounds")) == pytest.approx(
                r + g / 2.0, rel=1e-12
            )
