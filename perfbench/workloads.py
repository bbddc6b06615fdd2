"""Seeded input generator for the three benchmark workloads and the
TDMA-NR defect grid.

Every input is a pure function of the workload seed, drawn from a numpy
PCG64 stream that is separate from the generator aockit itself uses.
PERs are rounded to four decimals so the CSV text written for cli-sweep
and the in-process table parse to the same floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCHEMES = ("fdma", "tdma-nr", "tdma-r")
N_DEVICES = 6

# cli-sweep: start-up dominated; the simulation share stays small
CLI_SNR_BANDS = ((5.0, 0.10, 0.30), (15.0, 0.0, 0.05))
CLI_HORIZON = 20_000

# sweep-long: loop-heavy high-loss rows beside collection-heavy low-loss rows
LONG_SNR_BANDS = (
    (0.0, 0.30, 0.50),
    (5.0, 0.15, 0.30),
    (10.0, 0.05, 0.15),
    (15.0, 0.0, 0.05),
)
LONG_HORIZON = 100_000

# theory-scale: half-octave grid of device counts from 2 to 256.  One
# operation is a scan over the grid, THEORY_VECTORS_PER_N vectors at each N
# under all three schemes.  PERs are capped at THEORY_LOAD / N, so
# prod(1 - p_i) stays above about e^-8 at every N and no call fails; the
# failing inputs live in the defect grid.
THEORY_NS = tuple(sorted({int(round(2 ** (1 + j / 2))) for j in range(15)}))
THEORY_SCANS = 3
THEORY_VECTORS_PER_N = 4
THEORY_PER_MAX = 0.2
THEORY_LOAD = 8.0

# defect grid: PER uniform in [0, 0.2) at every N, where TDMA-NR gives up
# at N >= 128 (ROADMAP item 1); run once per run, outside the timed loop
DEFECT_VECTORS_PER_N = 4

HEADER = "snr_db,scheme,device_id,per\n"


@dataclass(frozen=True)
class PerRow:
    snr_db: float
    scheme: str
    device_id: int
    per: float


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = sum(ord(c) << (8 * (i % 7)) for i, c in enumerate(workload))
    return np.random.Generator(np.random.PCG64([seed, tag]))


def _table(rng: np.random.Generator, bands) -> list[PerRow]:
    rows = []
    for snr, lo, hi in bands:
        for scheme in SCHEMES:
            for device in range(1, N_DEVICES + 1):
                per = round(float(rng.uniform(lo, hi)), 4)
                rows.append(PerRow(snr, scheme, device, per))
    return rows


def table_csv(rows: list[PerRow]) -> str:
    return HEADER + "".join(
        f"{r.snr_db},{r.scheme},{r.device_id},{r.per}\n" for r in rows
    )


def cli_sweep_inputs(seed: int) -> tuple[list[PerRow], int]:
    """PER rows for the cli-sweep table and the CLI --seed."""
    rng = _rng(seed, "cli-sweep")
    rows = _table(rng, CLI_SNR_BANDS)
    return rows, int(rng.integers(0, 2 ** 63))


def sweep_long_inputs(seed: int) -> tuple[list[PerRow], int]:
    """PER rows for sweep-long and the run_sweep master seed."""
    rng = _rng(seed, "sweep-long")
    rows = _table(rng, LONG_SNR_BANDS)
    return rows, int(rng.integers(0, 2 ** 63))


def theory_scale_inputs(seed: int) -> list[list[tuple[str, tuple[float, ...]]]]:
    """THEORY_SCANS scans; each is the (scheme, PER vector) calls of one
    operation, THEORY_VECTORS_PER_N vectors per N under all three schemes."""
    rng = _rng(seed, "theory-scale")
    scans = []
    for _ in range(THEORY_SCANS):
        calls = []
        for n in THEORY_NS:
            top = min(THEORY_PER_MAX, THEORY_LOAD / n)
            for _ in range(THEORY_VECTORS_PER_N):
                probs = tuple(float(x) for x in rng.uniform(0.0, top, size=n))
                calls.extend((scheme, probs) for scheme in SCHEMES)
        scans.append(calls)
    return scans


def defect_grid_inputs(seed: int) -> list[tuple[str, tuple[float, ...]]]:
    """(scheme, PER vector) calls with PER uniform in [0, 0.2) at every N."""
    rng = _rng(seed, "defect-grid")
    calls = []
    for n in THEORY_NS:
        for _ in range(DEFECT_VECTORS_PER_N):
            probs = tuple(float(x) for x in rng.uniform(0.0, THEORY_PER_MAX, size=n))
            calls.extend((scheme, probs) for scheme in SCHEMES)
    return calls
