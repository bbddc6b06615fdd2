"""Average age-of-collection analysis and simulation for TDMA/FDMA
status-update systems.

The package exports the names the README's library example uses, plus
the types they take or return; everything else is imported from its
submodule (aockit.sweep, aockit.timing, ...)."""

from .analysis import (
    avg_aoc_ms,
    fdma_avg_aoc_rounds,
    tdma_nr_avg_aoc_slots,
    tdma_r_avg_aoc_slots,
)
from .domain import PerVector, SchemeKind, TimingModel, make_per_vector
from .sim import SimConfig, SimResult, simulate
from .timing import default_timing

__version__ = "0.1.0"

__all__ = [
    "PerVector",
    "SchemeKind",
    "SimConfig",
    "SimResult",
    "TimingModel",
    "avg_aoc_ms",
    "default_timing",
    "fdma_avg_aoc_rounds",
    "make_per_vector",
    "simulate",
    "tdma_nr_avg_aoc_slots",
    "tdma_r_avg_aoc_slots",
    "__version__",
]
