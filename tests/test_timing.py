import dataclasses

import pytest

from aockit.timing import (
    PhyProfile,
    ack_duration_ms,
    default_timing,
    fdma_round_ms,
    idealized_timing,
    status_duration_ms,
    tdma_slot_ms,
)

REL = 1e-12
FDMA6 = PhyProfile(num_devices=6).fdma_split()  # one device's 8-subcarrier share


class TestDefaults:
    def test_status(self):
        assert status_duration_ms(PhyProfile()) == pytest.approx(0.048, rel=REL)

    def test_ack(self):
        assert ack_duration_ms(PhyProfile()) == pytest.approx(0.024, rel=REL)

    def test_tdma_slot(self):
        assert tdma_slot_ms(PhyProfile()) == pytest.approx(0.104, rel=REL)

    def test_fdma_round(self):
        assert fdma_round_ms(FDMA6) == pytest.approx(0.224, rel=REL)

    def test_fdma_status(self):
        assert status_duration_ms(FDMA6) == pytest.approx(0.208, rel=REL)

    def test_default_timing(self):
        t = default_timing()
        assert t.tdma_slot_ms == pytest.approx(0.104, rel=REL)
        assert t.fdma_round_ms == pytest.approx(0.224, rel=REL)


class TestStatusDuration:
    def test_short_payload_equals_ack(self):
        # 24 payload bits code to 48 bits: one symbol, same as the ACK
        phy = PhyProfile(payload_bits=24)
        assert status_duration_ms(phy) == pytest.approx(0.024, rel=REL)

    def test_ceiling_division(self):
        # 97 bits code to 194 > 192: one extra symbol over the default
        base = status_duration_ms(PhyProfile())
        bumped = status_duration_ms(PhyProfile(payload_bits=97))
        assert bumped == pytest.approx(base + 80.0 / 10e6 * 1000.0, rel=REL)

    def test_exact_division_boundary(self):
        # 192 coded bits on 48 subcarriers: exactly 4 symbols, no padding
        for bits in (95, 96):
            assert status_duration_ms(PhyProfile(payload_bits=bits)) == pytest.approx(
                0.048, rel=REL
            )


class TestAckDuration:
    def test_doubled_ack_payload(self):
        assert ack_duration_ms(PhyProfile(ack_payload_bits=48)) == pytest.approx(
            0.032, rel=REL
        )

    def test_zero_bit_ack_is_preamble_only(self):
        assert ack_duration_ms(PhyProfile(ack_payload_bits=0)) == pytest.approx(
            0.016, rel=REL
        )


class TestSlotAndRound:
    def test_slot_without_guards(self):
        assert tdma_slot_ms(PhyProfile(gi_ms=0.0)) == pytest.approx(0.072, rel=REL)

    def test_slot_with_doubled_guard(self):
        assert tdma_slot_ms(PhyProfile(gi_ms=0.032)) == pytest.approx(0.136, rel=REL)

    def test_round_without_guard(self):
        assert fdma_round_ms(dataclasses.replace(FDMA6, gi_ms=0.0)) == pytest.approx(
            0.208, rel=REL
        )

    def test_round_full_band_single_user(self):
        assert fdma_round_ms(PhyProfile()) == pytest.approx(0.064, rel=REL)


class TestIdealizedTiming:
    def test_reference_pair(self):
        t = idealized_timing(6, 0.104)
        assert t.tdma_slot_ms == 0.104
        assert t.fdma_round_ms == pytest.approx(0.624, rel=REL)

    @pytest.mark.parametrize("n,t_td,want", [(1, 1.0, 1.0), (2, 0.5, 1.0)])
    def test_degenerate(self, n, t_td, want):
        assert idealized_timing(n, t_td).fdma_round_ms == pytest.approx(want, rel=REL)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            idealized_timing(0, 0.104)
        with pytest.raises(ValueError):
            idealized_timing(6, 0.0)


class TestMonotonicity:
    @pytest.mark.parametrize("field,step", [
        ("payload_bits", 48),
        ("preamble_samples", 32),
        ("cp_samples", 8),
    ])
    def test_slot_non_decreasing(self, field, step):
        base = PhyProfile()
        bumped = dataclasses.replace(base, **{field: getattr(base, field) + step})
        assert tdma_slot_ms(bumped) >= tdma_slot_ms(base)

    def test_slot_increases_with_guard(self):
        assert tdma_slot_ms(PhyProfile(gi_ms=0.02)) > tdma_slot_ms(PhyProfile())

    def test_all_durations_positive(self):
        for phy in (PhyProfile(), FDMA6, PhyProfile(gi_ms=0.0)):
            assert status_duration_ms(phy) > 0.0
            assert ack_duration_ms(phy) > 0.0
            assert tdma_slot_ms(phy) > 0.0
            assert fdma_round_ms(phy) > 0.0


class TestValidation:
    @pytest.mark.parametrize("kw", [
        dict(fft_size=0),
        dict(data_subcarriers=0),
        dict(payload_bits=0),
        dict(code_rate_inv=0),
        dict(num_devices=0),
        dict(cp_samples=-1),
        dict(ack_payload_bits=-1),
        dict(bandwidth_hz=0.0),
        dict(gi_ms=-0.001),
        dict(data_subcarriers=65),
        dict(payload_bits=96.0),
    ])
    def test_rejects_invalid_fields(self, kw):
        with pytest.raises(ValueError):
            PhyProfile(**kw)

    def test_fdma_split_requires_divisibility(self):
        with pytest.raises(ValueError):
            PhyProfile(num_devices=5).fdma_split()
        assert PhyProfile(num_devices=4).fdma_split().data_subcarriers == 12

    def test_profile_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PhyProfile().payload_bits = 128


_HUGE = 10 ** 400   # an int past the float range
_COUNTS = "preamble_samples {} code_rate_inv fft_size or cp_samples"


class TestBeyondFloatRange:
    """A duration that does not fit a float raises a ValueError naming the
    fields that set it, never an OverflowError or an inf."""

    @pytest.mark.parametrize("kw,call,want", [
        (dict(payload_bits=_HUGE), status_duration_ms,
         "the payload_bits packet does not fit a float in ms: lower "
         + _COUNTS.format("payload_bits")),
        (dict(preamble_samples=_HUGE), ack_duration_ms,
         "the ack_payload_bits packet does not fit a float in ms: lower "
         + _COUNTS.format("ack_payload_bits")),
        (dict(cp_samples=_HUGE), tdma_slot_ms,
         "the payload_bits packet does not fit a float in ms: lower "
         + _COUNTS.format("payload_bits")),
        (dict(bandwidth_hz=1e-320), fdma_round_ms,
         "the payload_bits packet does not fit a float in ms: raise bandwidth_hz "
         "or lower " + _COUNTS.format("payload_bits")),
        (dict(gi_ms=1e308), tdma_slot_ms,
         "the TDMA slot does not fit a float in ms: lower gi_ms or the packets"),
        # a status packet of 1e308 ms (480 samples) plus a 1e308 ms guard
        (dict(bandwidth_hz=480e3 / 1e308, gi_ms=1e308), fdma_round_ms,
         "the FDMA round does not fit a float in ms: lower gi_ms or the status packet"),
    ])
    def test_names_the_fields(self, kw, call, want):
        with pytest.raises(ValueError) as info:
            call(PhyProfile(**kw))
        assert str(info.value) == want

    def test_long_finite_durations_stay(self):
        assert tdma_slot_ms(PhyProfile(gi_ms=1e307)) == pytest.approx(2e307, rel=REL)
        assert status_duration_ms(PhyProfile(bandwidth_hz=480e3 / 1e308)) == \
            pytest.approx(1e308, rel=1e-9)
