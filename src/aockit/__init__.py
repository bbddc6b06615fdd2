"""Average age-of-collection analysis and simulation for TDMA/FDMA
status-update systems."""

from .analysis import (
    avg_aoc_ms,
    fdma_avg_aoc_rounds,
    fdma_gamma,
    tdma_nr_avg_aoc_slots,
    tdma_nr_moments,
    tdma_r_avg_aoc_slots,
    tdma_r_moments,
)
from .domain import (
    AocTrace,
    HittingMoments,
    PerVector,
    SchemeKind,
    TimingModel,
    integrate_trace,
    make_per_vector,
)
from .sim import RNG_NAME, SimConfig, SimResult, simulate, simulate_ms
from .sweep import (
    MODES,
    PerTable,
    SweepRow,
    default_order_patterns,
    emit_rows,
    load_per_table,
    run_order_study,
    run_sweep,
    single_point_table,
)
from .timing import (
    PhyProfile,
    ack_duration_ms,
    default_timing,
    fdma_round_ms,
    idealized_timing,
    status_duration_ms,
    tdma_slot_ms,
)

__version__ = "0.1.0"

__all__ = [
    "AocTrace",
    "HittingMoments",
    "MODES",
    "PerTable",
    "PerVector",
    "PhyProfile",
    "RNG_NAME",
    "SchemeKind",
    "SimConfig",
    "SimResult",
    "SweepRow",
    "TimingModel",
    "ack_duration_ms",
    "avg_aoc_ms",
    "default_order_patterns",
    "default_timing",
    "emit_rows",
    "fdma_avg_aoc_rounds",
    "fdma_gamma",
    "fdma_round_ms",
    "idealized_timing",
    "integrate_trace",
    "load_per_table",
    "make_per_vector",
    "run_order_study",
    "run_sweep",
    "simulate",
    "simulate_ms",
    "single_point_table",
    "status_duration_ms",
    "tdma_nr_avg_aoc_slots",
    "tdma_nr_moments",
    "tdma_r_avg_aoc_slots",
    "tdma_r_moments",
    "tdma_slot_ms",
    "__version__",
]
