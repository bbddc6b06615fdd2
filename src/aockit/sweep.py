"""PER-table ingestion, theory/simulation sweeps and order studies.

The measured input is a CSV table of per-device packet error rates keyed
by SNR and scheme; SNR is an opaque row key (no SNR-to-PER model is
bundled).  A sweep turns each (snr, scheme) key into a theory row and, if
requested, a simulation row whose seed is derived from the master seed
and the row key, so extending the table never perturbs existing rows.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, replace
from decimal import Decimal
from pathlib import Path
from types import MappingProxyType

from .analysis import avg_aoc_ms
from .domain import PerVector, SchemeKind, TimingModel
from .domain import _check_horizon, _check_permutation, _check_seed
from .sim import SimConfig, simulate_ms

__all__ = [
    "MODES",
    "PerTable",
    "SweepRow",
    "load_per_table",
    "single_point_table",
    "run_sweep",
    "run_order_study",
    "default_order_patterns",
    "theory_row",
    "simulation_row",
    "emit_csv",
    "emit_rows",
]

MODES = ("theory", "simulation")

_HEADER = ("snr_db", "scheme", "device_id", "per")
_OUT_HEADER = ("snr_db", "scheme", "mode", "avg_aoc_ms", "ci_halfwidth_ms", "seed")


@dataclass(frozen=True)
class PerTable:
    """Per-device packet error rates: a read-only map from each
    (snr_db, scheme) key to the PerVector of its devices 1..N."""

    vectors: Mapping[tuple[float, SchemeKind], PerVector]

    def __post_init__(self):
        vectors = {}
        for (snr, scheme), p in self.vectors.items():
            if not isinstance(scheme, SchemeKind):
                raise ValueError(f"scheme must be a SchemeKind, got {scheme!r}")
            if not isinstance(p, PerVector):
                raise ValueError(f"PER vector must be a PerVector, got {p!r}")
            vectors[(float(snr), scheme)] = p
        object.__setattr__(self, "vectors", MappingProxyType(vectors))

    def keys(self) -> list[tuple[float, SchemeKind]]:
        """(snr_db, scheme) keys sorted by SNR then scheme token."""
        return sorted(self.vectors, key=lambda k: (k[0], k[1].token))

    def vector(self, snr_db: float, scheme: SchemeKind) -> PerVector:
        return self.vectors[(float(snr_db), scheme)]

    def device_counts(self, schemes=tuple(SchemeKind)) -> list[int]:
        """Sorted distinct device counts of the keys under `schemes`."""
        return sorted({p.n for (_, scheme), p in self.vectors.items() if scheme in schemes})


@dataclass(frozen=True)
class SweepRow:
    """One output record of a sweep or order study.

    Theory rows carry ci_halfwidth_ms = 0 and seed = 0.  order is the
    transmission order the row was computed under, None for index order.
    """

    snr_db: float
    scheme: SchemeKind
    mode: str
    avg_aoc_ms: float
    ci_halfwidth_ms: float
    seed: int
    order: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.avg_aoc_ms) and self.avg_aoc_ms > 0.0):
            raise ValueError(f"avg_aoc_ms must be > 0, got {self.avg_aoc_ms!r}")
        if math.isnan(self.ci_halfwidth_ms) or self.ci_halfwidth_ms < 0.0:
            raise ValueError(f"ci_halfwidth_ms must be >= 0, got {self.ci_halfwidth_ms!r}")
        _check_seed(self.seed)
        if self.mode == "theory" and (self.ci_halfwidth_ms != 0.0 or self.seed != 0):
            raise ValueError("theory rows carry ci_halfwidth_ms = 0 and seed = 0")


def _field(text: str, field: str, line: int, convert, ok=lambda value: True):
    """text converted by convert, if that succeeds and ok accepts the value;
    otherwise a ValueError naming the field, the text and the line."""
    try:
        value = convert(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"invalid {field} {text!r} at line {line}")


def load_per_table(path) -> PerTable:
    """Parse and validate a PER table from CSV.

    Expected header: snr_db,scheme,device_id,per.  Scheme tokens are
    tdma-nr, tdma-r and fdma; the shorthand tdma applies one row to both
    TDMA schemes.  Every (snr_db, scheme) key must list devices 1..N once
    each.  Parse errors and duplicate devices name the offending line; a
    table without rows is an error too.
    """
    grouped: dict[tuple[float, SchemeKind], dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(s.strip() for s in header) != _HEADER:
            raise ValueError(
                f"bad header in {path}: expected {','.join(_HEADER)}"
            )
        for line, record in enumerate(reader, start=2):
            if not record or all(not s.strip() for s in record):
                continue
            if len(record) != 4:
                raise ValueError(f"expected 4 fields at line {line}")
            snr_s, scheme_s, device_s, per_s = (s.strip() for s in record)
            snr = _field(snr_s, "snr_db", line, float, math.isfinite)
            try:
                schemes = SchemeKind.expand(scheme_s)
            except ValueError:
                raise ValueError(
                    f"unknown scheme token {scheme_s!r} at line {line}"
                ) from None
            device = _field(device_s, "device_id", line, int, lambda d: d >= 1)
            per = _field(per_s, "per", line, float)
            if not (0.0 <= per < 1.0):
                raise ValueError(f"per out of range [0,1) at line {line}")
            for scheme in schemes:
                devices = grouped.setdefault((snr, scheme), {})
                if device in devices:
                    raise ValueError(f"duplicate device {device} for "
                                     f"({snr} dB, {scheme.token}) at line {line}")
                devices[device] = per
    if not grouped:
        raise ValueError(f"no PER rows in {path}")
    vectors = {}
    for (snr, scheme), devices in grouped.items():
        n = len(devices)
        # distinct ids >= 1 are exactly 1..n when the largest is n
        if max(devices) != n:
            raise ValueError(f"incomplete device set for ({snr} dB, {scheme.token})")
        vectors[(snr, scheme)] = PerVector(tuple(devices[d] for d in range(1, n + 1)))
    return PerTable(vectors)


def single_point_table(
    p: PerVector,
    schemes=tuple(SchemeKind),
    snr_db: float = 0.0,
) -> PerTable:
    """Table with one PerVector shared by the given schemes at one SNR."""
    return PerTable({(snr_db, scheme): p for scheme in schemes})


def _derive_seed(master: int, *parts) -> int:
    # both operands are 64-bit, so the result is a valid seed
    key = ":".join(str(part) for part in parts).encode("ascii")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return master ^ int.from_bytes(digest, "big")


def theory_row(
    snr_db: float,
    scheme: SchemeKind,
    p: PerVector,
    timing: TimingModel,
) -> SweepRow:
    """Closed-form row for one key, with p in transmission order."""
    return SweepRow(snr_db, scheme, "theory", avg_aoc_ms(scheme, p, timing), 0.0, 0)


def simulation_row(
    snr_db: float,
    scheme: SchemeKind,
    p: PerVector,
    timing: TimingModel,
    horizon: int,
    seed: int,
) -> SweepRow:
    """One seeded simulation run as a row, with p in transmission order."""
    result = simulate_ms(SimConfig(scheme, p, horizon, seed), timing)
    return SweepRow(snr_db, scheme, "simulation", result.avg_aoc,
                    result.ci_halfwidth, seed)


def run_sweep(
    table: PerTable,
    timing: TimingModel,
    modes=MODES,
    horizon: int = 100_000,
    seed: int = 0,
) -> list[SweepRow]:
    """Theory and/or simulation rows for every (snr, scheme) key.

    Simulation seeds derive from the master seed and the row key, so rows
    are independent of which other keys the table happens to contain.
    Rows come back sorted by (snr_db, scheme, mode).  An error raised
    while computing a row is re-raised prefixed with the row's key.
    """
    if isinstance(modes, str):
        raise ValueError(f"modes must be a sequence of tokens, got the string {modes!r}")
    if not modes:
        raise ValueError(f"modes must be a non-empty subset of {MODES}, got {modes!r}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown modes token {mode!r}, "
                             f"expected one of {', '.join(MODES)}")
    mode_set = set(modes)
    _check_seed(seed)
    _check_horizon(horizon)
    rows: list[SweepRow] = []
    for snr, scheme in table.keys():
        p = table.vector(snr, scheme)
        try:
            if "theory" in mode_set:
                rows.append(theory_row(snr, scheme, p, timing))
            if "simulation" in mode_set:
                run_seed = _derive_seed(seed, "sweep", repr(float(snr)), scheme.token)
                rows.append(simulation_row(snr, scheme, p, timing, horizon, run_seed))
        except ValueError as exc:
            raise ValueError(f"({snr} dB, {scheme.token}): {exc}") from exc
    rows.sort(key=lambda r: (r.snr_db, r.scheme.token, r.mode))
    return rows


def run_order_study(
    p: PerVector,
    orders,
    timing: TimingModel,
    horizon: int = 100_000,
    seed: int = 0,
) -> list[SweepRow]:
    """Theory and simulation rows per transmission order and TDMA scheme.

    Both rows of an order see p permuted into that order, and carry the
    order.  FDMA has no order (all devices transmit simultaneously) and is
    omitted.  An error raised while computing a row is re-raised prefixed
    with its key and order.
    """
    _check_seed(seed)
    _check_horizon(horizon)
    orders = [_check_permutation(order, p.n) for order in orders]
    if not orders:
        raise ValueError("order study needs at least one order")
    if len(set(orders)) != len(orders):
        raise ValueError("duplicate order in order study")
    rows: list[SweepRow] = []
    for order in orders:
        label = "-".join(map(str, order))
        seen = p.permuted(order)
        for scheme in (SchemeKind.TDMA_NR, SchemeKind.TDMA_R):
            try:
                row = theory_row(0.0, scheme, seen, timing)
                rows.append(replace(row, order=order))
                run_seed = _derive_seed(seed, "order", label, scheme.token)
                row = simulation_row(0.0, scheme, seen, timing, horizon, run_seed)
                rows.append(replace(row, order=order))
            except ValueError as exc:
                raise ValueError(
                    f"(0.0 dB, {scheme.token}, order {label}): {exc}"
                ) from exc
    return rows


def default_order_patterns(n: int) -> list[tuple[int, ...]]:
    """Reference transmission orders: index order, last-device-first, and
    a mid-round promotion of the last device (distinct patterns only)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    patterns = [tuple(range(1, n + 1)), (n,) + tuple(range(1, n))]
    if n >= 5:
        patterns.append((1, 2, 3, n) + tuple(range(4, n)))
    return list(dict.fromkeys(patterns))


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf"
    # .6g rounds the exact binary value half-to-even; Decimal prints it
    # without an exponent
    text = format(Decimal(f"{value:.6g}"), "f")
    return text if "." in text else text + ".0"


def emit_csv(header, records, dest=None) -> None:
    """Write a header and records as newline-terminated CSV.

    String fields are written as given; any other field is a number and is
    written with 6 significant digits in fixed-decimal notation.  dest may
    be a path, an open text stream, or None for stdout.
    """
    lines = [",".join(header)]
    for record in records:
        lines.append(",".join(
            field if isinstance(field, str) else _fmt(field) for field in record
        ))
    text = "\n".join(lines) + "\n"
    if dest is None:
        sys.stdout.write(text)
    elif hasattr(dest, "write"):
        dest.write(text)
    else:
        Path(dest).write_text(text, encoding="utf-8")


def emit_rows(rows, dest=None) -> None:
    """Write rows as CSV with 6-significant-digit fixed-decimal values.

    dest may be a path, an open text stream, or None for stdout.  An
    `order` column is appended when any row carries one.  Output is
    newline-terminated and byte-identical for identical rows.
    """
    with_order = any(row.order is not None for row in rows)
    header = _OUT_HEADER + (("order",) if with_order else ())
    records = []
    for row in rows:
        fields = [
            row.snr_db,
            row.scheme.token,
            row.mode,
            row.avg_aoc_ms,
            row.ci_halfwidth_ms,
            str(row.seed),
        ]
        if with_order:
            fields.append("-".join(map(str, row.order)) if row.order else "")
        records.append(fields)
    emit_csv(header, records, dest)
