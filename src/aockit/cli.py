"""Command-line front end.

Subcommands:
  theory    closed-form average AoC per (snr, scheme) key
  simulate  one seeded simulation run for a single scheme
  sweep     theory and simulation rows for a whole PER table
  orders    transmission-order study for the TDMA schemes
  timing    slot/round durations from PHY-layer parameters

PER input is either a CSV table (--per-table) or an inline vector (--p).
All results are emitted as CSV on stdout or --out; exit code is 0 on
success and nonzero with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import sys

from .domain import PerVector, SchemeKind, TimingModel, make_per_vector
from .sim import SimConfig, simulate_ms
from .sweep import (
    MODES,
    SweepRow,
    default_order_patterns,
    emit_csv,
    emit_rows,
    load_per_table,
    run_order_study,
    run_sweep,
    single_point_table,
)
from .timing import PhyProfile, fdma_round_ms, idealized_timing, status_duration_ms
from .timing import ack_duration_ms, tdma_slot_ms

_ALL_SCHEMES = tuple(SchemeKind)


def _parse_probs(text: str) -> PerVector:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"invalid --p value {text!r}") from None
    return make_per_vector(values)


def _parse_order(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"invalid order {text!r}") from None


def _parse_orders(text: str) -> list[tuple[int, ...]]:
    orders = [_parse_order(part) for part in text.split(";") if part.strip() != ""]
    if not orders:
        raise ValueError(f"invalid --orders value {text!r}")
    return orders


def _parse_schemes(text: str | None) -> tuple[SchemeKind, ...]:
    if text is None:
        return _ALL_SCHEMES
    schemes: list[SchemeKind] = []
    for token in text.split(","):
        token = token.strip()
        if token == "tdma":
            expanded = [SchemeKind.TDMA_NR, SchemeKind.TDMA_R]
        else:
            expanded = [SchemeKind.from_token(token)]
        for scheme in expanded:
            if scheme not in schemes:
                schemes.append(scheme)
    return tuple(schemes)


def _inline_p(args) -> PerVector:
    if args.p is None:
        raise ValueError("--p is required for this subcommand")
    p = _parse_probs(args.p)
    if args.n is not None and args.n != p.n:
        raise ValueError(f"--n {args.n} does not match the {p.n} values in --p")
    return p


def _resolve_table(args, schemes):
    if args.per_table is not None and args.p is not None:
        raise ValueError("choose one of --per-table or --p")
    if args.per_table is not None:
        return load_per_table(args.per_table)
    if args.p is not None:
        return single_point_table(_inline_p(args), schemes=schemes)
    raise ValueError("one of --per-table or --p is required")


def _table_device_count(table) -> int | None:
    sizes = {table.vector(snr, scheme).n for snr, scheme in table.keys()}
    if len(sizes) > 1:
        return -1
    return sizes.pop() if sizes else None


def _resolve_timing(args, n: int | None) -> TimingModel:
    t_td = args.t_td if args.t_td is not None else tdma_slot_ms(PhyProfile())
    if args.idealized:
        if args.t_fd is not None:
            raise ValueError("--idealized and --t-fd are mutually exclusive")
        if n is None:
            n = PhyProfile().num_devices
        if n < 0:
            raise ValueError("--idealized needs a single device count across all keys")
        return idealized_timing(n, t_td)
    if args.t_fd is not None:
        return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=args.t_fd)
    return TimingModel(
        tdma_slot_ms=t_td, fdma_round_ms=fdma_round_ms(PhyProfile.fdma_default())
    )


def _cmd_theory(args) -> int:
    table = _resolve_table(args, schemes=_parse_schemes(args.scheme))
    timing = _resolve_timing(args, _table_device_count(table))
    rows = run_sweep(table, timing, modes=("theory",), horizon=1, seed=0)
    emit_rows(rows, args.out)
    return 0


def _cmd_simulate(args) -> int:
    p = _inline_p(args)
    scheme = SchemeKind.from_token(args.scheme)
    timing = _resolve_timing(args, p.n)
    order = _parse_order(args.order) if args.order else None
    config = SimConfig(scheme, p, args.horizon, args.seed, order=order)
    result = simulate_ms(config, timing)
    row = SweepRow(
        snr_db=0.0,
        scheme=scheme,
        mode="simulation",
        avg_aoc_ms=result.avg_aoc,
        ci_halfwidth_ms=result.ci_halfwidth,
        seed=args.seed,
        order=order,
    )
    emit_rows([row], args.out)
    return 0


def _cmd_sweep(args) -> int:
    table = _resolve_table(args, schemes=_ALL_SCHEMES)
    timing = _resolve_timing(args, _table_device_count(table))
    modes = tuple(tok.strip() for tok in args.modes.split(",") if tok.strip())
    rows = run_sweep(table, timing, modes=modes, horizon=args.horizon, seed=args.seed)
    emit_rows(rows, args.out)
    return 0


def _cmd_orders(args) -> int:
    p = _inline_p(args)
    orders = _parse_orders(args.orders) if args.orders else default_order_patterns(p.n)
    timing = _resolve_timing(args, p.n)
    rows = run_order_study(p, orders, timing, horizon=args.horizon, seed=args.seed)
    emit_rows(rows, args.out)
    return 0


def _cmd_timing(args) -> int:
    phy = PhyProfile(
        bandwidth_hz=args.bandwidth_hz,
        preamble_samples=args.preamble_samples,
        payload_bits=args.payload_bits,
        code_rate_inv=args.code_rate_inv,
        data_subcarriers=args.subcarriers,
        fft_size=args.fft_size,
        cp_samples=args.cp_samples,
        gi_ms=args.gi_ms,
        ack_payload_bits=args.ack_payload_bits,
        num_devices=args.n if args.n is not None else 6,
    )
    split = phy.fdma_split()
    records = [
        ("status", status_duration_ms(phy)),
        ("ack", ack_duration_ms(phy)),
        ("tdma_slot", tdma_slot_ms(phy)),
        ("fdma_status", status_duration_ms(split)),
        ("fdma_round", fdma_round_ms(split)),
    ]
    emit_csv(("quantity", "value_ms"), records, args.out)
    return 0


def _add_timing_flags(parser) -> None:
    parser.add_argument("--t-td", type=float, default=None, metavar="MS",
                        help="TDMA slot duration in ms (default: PHY profile, 0.104)")
    parser.add_argument("--t-fd", type=float, default=None, metavar="MS",
                        help="FDMA round duration in ms (default: PHY profile, 0.224)")
    parser.add_argument("--idealized", action="store_true",
                        help="set the FDMA round to N TDMA slots (overhead-free)")


def _add_input_flags(parser) -> None:
    parser.add_argument("--per-table", metavar="PATH", default=None,
                        help="CSV of per-device PERs keyed by snr_db and scheme")
    parser.add_argument("--p", metavar="LIST", default=None,
                        help="inline comma-separated PER vector, e.g. 0.1,0.2")
    parser.add_argument("--n", type=int, default=None,
                        help="device count; checked against --p when both given")


def _add_run_flags(parser) -> None:
    parser.add_argument("--horizon", type=int, default=100_000,
                        help="slots (TDMA) or rounds (FDMA) per run")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed, 64-bit unsigned")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aockit",
        description="Average age-of-collection analysis for TDMA/FDMA status updates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser("theory", help="closed-form averages per table key")
    _add_input_flags(theory)
    theory.add_argument("--scheme", default=None, metavar="TOKENS",
                        help="comma list of tdma-nr,tdma-r,fdma (or tdma); inline --p only")
    _add_timing_flags(theory)
    theory.add_argument("--out", default=None, metavar="PATH")
    theory.set_defaults(func=_cmd_theory)

    simulate = sub.add_parser("simulate", help="one seeded simulation run")
    simulate.add_argument("--scheme", required=True,
                          choices=[k.token for k in SchemeKind])
    _add_input_flags(simulate)
    simulate.add_argument("--order", default=None, metavar="LIST",
                          help="transmission order, e.g. 6,1,2,3,4,5 (TDMA only)")
    _add_run_flags(simulate)
    _add_timing_flags(simulate)
    simulate.add_argument("--out", default=None, metavar="PATH")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="theory + simulation over a PER table")
    _add_input_flags(sweep)
    sweep.add_argument("--modes", default=",".join(MODES), metavar="LIST",
                       help="comma list of theory,simulation")
    _add_run_flags(sweep)
    _add_timing_flags(sweep)
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.set_defaults(func=_cmd_sweep)

    orders = sub.add_parser("orders", help="transmission-order study (TDMA)")
    _add_input_flags(orders)
    orders.add_argument("--orders", default=None, metavar="LISTS",
                        help="semicolon-separated orders, e.g. 1,2;2,1 "
                             "(default: built-in reference patterns)")
    _add_run_flags(orders)
    _add_timing_flags(orders)
    orders.add_argument("--out", default=None, metavar="PATH")
    orders.set_defaults(func=_cmd_orders)

    timing = sub.add_parser("timing", help="slot/round durations from PHY parameters")
    timing.add_argument("--bandwidth-hz", type=float, default=10e6)
    timing.add_argument("--preamble-samples", type=int, default=160)
    timing.add_argument("--payload-bits", type=int, default=96)
    timing.add_argument("--ack-payload-bits", type=int, default=24)
    timing.add_argument("--code-rate-inv", type=int, default=2)
    timing.add_argument("--subcarriers", type=int, default=48)
    timing.add_argument("--fft-size", type=int, default=64)
    timing.add_argument("--cp-samples", type=int, default=16)
    timing.add_argument("--gi-ms", type=float, default=0.016)
    timing.add_argument("--n", type=int, default=None,
                        help="device count for the FDMA subcarrier split")
    timing.add_argument("--out", default=None, metavar="PATH")
    timing.set_defaults(func=_cmd_timing)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"aockit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
