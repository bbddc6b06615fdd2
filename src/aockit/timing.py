"""Slot and round durations from OFDM physical-layer parameters.

A packet occupies a preamble plus however many OFDM symbols its coded
payload needs at the configured subcarrier allocation:

    samples = preamble_samples
              + ceil(payload_bits * code_rate_inv / data_subcarriers)
                * (fft_size + cp_samples)
    duration_ms = samples / bandwidth_hz * 1000

A TDMA slot carries one status packet, its acknowledgement and two guard
intervals.  An FDMA round carries one status packet per device in
parallel on per-device sub-channels plus a single guard interval; no ACK
is returned inside the round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .domain import TimingModel

__all__ = [
    "PhyProfile",
    "status_duration_ms",
    "ack_duration_ms",
    "tdma_slot_ms",
    "fdma_round_ms",
    "idealized_timing",
    "default_timing",
]


@dataclass(frozen=True)
class PhyProfile:
    """OFDM parameters for one transmission format.

    Defaults describe a 10 MHz system: 64-point FFT, 16-sample cyclic
    prefix, 160-sample reduced preamble, 48 data subcarriers per symbol,
    96-bit status payloads and 24-bit acknowledgements at code rate 1/2
    (code_rate_inv = 2), 0.016 ms guard interval, 6 devices.  FDMA splits
    the 48 data subcarriers across the devices; fdma_split() applies that
    split.
    """

    bandwidth_hz: float = 10e6          # [samples/s]
    preamble_samples: int = 160
    payload_bits: int = 96              # pre-coding: device ID + status data
    code_rate_inv: int = 2              # coded bits = payload_bits * this
    data_subcarriers: int = 48          # per symbol, per user
    fft_size: int = 64
    cp_samples: int = 16
    gi_ms: float = 0.016
    ack_payload_bits: int = 24
    num_devices: int = 6

    def __post_init__(self):
        ints = {
            "preamble_samples": self.preamble_samples,
            "payload_bits": self.payload_bits,
            "code_rate_inv": self.code_rate_inv,
            "data_subcarriers": self.data_subcarriers,
            "fft_size": self.fft_size,
            "cp_samples": self.cp_samples,
            "ack_payload_bits": self.ack_payload_bits,
            "num_devices": self.num_devices,
        }
        for name, v in ints.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an int, got {v!r}")
        for name, v in ints.items():
            # cp may be absent; a 0-bit ACK degenerates to a bare preamble
            if name in ("cp_samples", "ack_payload_bits"):
                if v < 0:
                    raise ValueError(f"{name} must be >= 0, got {v}")
            elif v <= 0:
                raise ValueError(f"{name} must be > 0, got {v}")
        if self.data_subcarriers > self.fft_size:
            raise ValueError(
                f"data_subcarriers {self.data_subcarriers} exceeds "
                f"fft_size {self.fft_size}"
            )
        if not (math.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0.0):
            raise ValueError(
                f"bandwidth_hz must be finite and > 0, got {self.bandwidth_hz!r}"
            )
        if not (math.isfinite(self.gi_ms) and self.gi_ms >= 0.0):
            raise ValueError(f"gi_ms must be finite and >= 0, got {self.gi_ms!r}")

    def fdma_split(self) -> "PhyProfile":
        """Same profile with the data subcarriers divided evenly across
        the devices (one user's sub-channel)."""
        if self.data_subcarriers % self.num_devices != 0:
            raise ValueError(
                f"cannot split {self.data_subcarriers} subcarriers over "
                f"{self.num_devices} devices"
            )
        return replace(self, data_subcarriers=self.data_subcarriers // self.num_devices)


def _finite_ms(ms: float, what: str, remedy: str) -> float:
    # a duration past the float range names the fields that set it
    if not math.isfinite(ms):
        raise ValueError(f"{what} does not fit a float in ms: {remedy}")
    return ms


def _packet_ms(phy: PhyProfile, bits_field: str) -> float:
    coded = getattr(phy, bits_field) * phy.code_rate_inv
    symbols = -(-coded // phy.data_subcarriers)   # ceil division
    samples = phy.preamble_samples + symbols * (phy.fft_size + phy.cp_samples)
    try:
        ms = samples / phy.bandwidth_hz * 1000.0
        if math.isfinite(ms):
            return ms
        remedy = "raise bandwidth_hz or lower"
    except OverflowError:       # samples, an int, is past the float range
        remedy = "lower"
    raise ValueError(f"the {bits_field} packet does not fit a float in ms: {remedy} "
                     f"preamble_samples {bits_field} code_rate_inv fft_size or cp_samples")


def status_duration_ms(phy: PhyProfile) -> float:
    """On-air time of one status packet in milliseconds."""
    return _packet_ms(phy, "payload_bits")


def ack_duration_ms(phy: PhyProfile) -> float:
    """On-air time of one acknowledgement in milliseconds."""
    return _packet_ms(phy, "ack_payload_bits")


def tdma_slot_ms(phy: PhyProfile) -> float:
    """Duration of one TDMA slot: status, ACK and two guard intervals."""
    return _finite_ms(status_duration_ms(phy) + ack_duration_ms(phy) + 2.0 * phy.gi_ms,
                      "the TDMA slot", "lower gi_ms or the packets")


def fdma_round_ms(phy: PhyProfile) -> float:
    """Duration of one FDMA round: parallel status packets plus one guard.

    Pass a profile whose data_subcarriers already reflect the per-device
    sub-channel (see PhyProfile.fdma_split).
    """
    return _finite_ms(status_duration_ms(phy) + phy.gi_ms,
                      "the FDMA round", "lower gi_ms or the status packet")


def idealized_timing(n: int, t_td: float) -> TimingModel:
    """Overhead-free comparison timing: an FDMA round exactly as long as a
    full TDMA cycle of n slots."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=n * t_td)


def default_timing(num_devices: int = 6) -> TimingModel:
    """TimingModel from the default profiles: 0.104 ms TDMA slots and FDMA
    rounds at the num_devices split (0.224 ms for 6 devices).  Raises
    ValueError when num_devices does not divide the 48 data subcarriers."""
    phy = PhyProfile(num_devices=num_devices)
    return TimingModel(tdma_slot_ms=tdma_slot_ms(phy),
                       fdma_round_ms=fdma_round_ms(phy.fdma_split()))
