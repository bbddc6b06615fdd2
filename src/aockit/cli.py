"""Command-line front end.

Subcommands:
  theory    closed-form average AoC per (snr, scheme) key
  simulate  one seeded simulation run for a single scheme
  sweep     theory and simulation rows for a whole PER table
  orders    transmission-order study for the TDMA schemes
  timing    slot/round durations from PHY-layer parameters

theory and sweep read PER input from a CSV table (--per-table) or an
inline vector (--p); simulate and orders take an inline vector only.
All results are emitted as CSV on stdout or --out; exit code is 0 on
success and nonzero with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .domain import PerVector, SchemeKind, TimingModel, make_per_vector
from .sweep import (
    MODES,
    PerTable,
    default_order_patterns,
    emit_csv,
    emit_rows,
    load_per_table,
    run_order_study,
    run_sweep,
    simulation_row,
    single_point_table,
)
from .timing import PhyProfile, fdma_round_ms, idealized_timing
from .timing import ack_duration_ms, status_duration_ms, tdma_slot_ms

_ALL_SCHEMES = tuple(SchemeKind)

# PhyProfile field -> the `aockit timing` flag that overrides it
_PHY_FLAGS = {
    "bandwidth_hz": "--bandwidth-hz",
    "preamble_samples": "--preamble-samples",
    "payload_bits": "--payload-bits",
    "ack_payload_bits": "--ack-payload-bits",
    "code_rate_inv": "--code-rate-inv",
    "data_subcarriers": "--subcarriers",
    "fft_size": "--fft-size",
    "cp_samples": "--cp-samples",
    "gi_ms": "--gi-ms",
    "num_devices": "--n",
}

# every field or argument an error message may name -> the flag that sets it
_FIELD_FLAGS = {**_PHY_FLAGS, "tdma_slot_ms": "--t-td", "fdma_round_ms": "--t-fd",
                "horizon": "--horizon", "seed": "--seed", "modes": "--modes"}


def _tokens(text: str, flag: str | None = None, sep: str = ",") -> list[str]:
    # the one rule for every list flag: empty tokens are skipped, so a
    # trailing separator is harmless, and a list with none names its flag
    tokens = [tok.strip() for tok in text.split(sep) if tok.strip()]
    if flag and not tokens:
        raise ValueError(f"invalid {flag} value {text!r}")
    return tokens


def _parse_probs(text: str) -> PerVector:
    try:
        values = [float(tok) for tok in _tokens(text, "--p")]
    except ValueError:
        raise ValueError(f"invalid --p value {text!r}") from None
    return make_per_vector(values)


def _parse_order(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in _tokens(text))
    except ValueError:
        raise ValueError(f"invalid order {text!r}") from None


def _parse_orders(text: str) -> list[tuple[int, ...]]:
    return [_parse_order(part) for part in _tokens(text, "--orders", ";")]


def _parse_schemes(text: str | None) -> tuple[SchemeKind, ...]:
    if text is None:
        return _ALL_SCHEMES
    tokens = _tokens(text, "--scheme")
    return tuple(dict.fromkeys(
        scheme for token in tokens for scheme in SchemeKind.expand(token)
    ))


def _inline_p(args) -> PerVector:
    if args.p is None:
        raise ValueError("--p is required for this subcommand")
    p = _parse_probs(args.p)
    if args.n is not None and args.n != p.n:
        raise ValueError(f"--n {args.n} does not match the {p.n} values in --p")
    return p


def _resolve_table(args, schemes=_ALL_SCHEMES) -> PerTable:
    """The run's table from --per-table or --p, keeping only the keys
    under `schemes`; --n is checked against every key of the input."""
    if args.per_table is not None and args.p is not None:
        raise ValueError("choose one of --per-table or --p")
    if args.per_table is not None:
        table = load_per_table(args.per_table)
        counts = table.device_counts()
        if args.n is not None and counts != [args.n]:
            raise ValueError(
                f"--n {args.n} does not match {args.per_table}: its keys have "
                f"{', '.join(map(str, counts)) or 'no'} devices"
            )
    elif args.p is not None:
        table = single_point_table(_inline_p(args))
    else:
        raise ValueError("one of --per-table or --p is required")
    table = PerTable({key: p for key, p in table.vectors.items() if key[1] in schemes})
    if not table.vectors:
        raise ValueError(f"--scheme {args.scheme} matches no key of {args.per_table}")
    return table


def _resolve_timing(args, table) -> TimingModel:
    """The PHY profile's TDMA slot and its FDMA round for N devices, N
    being the device count of the table's FDMA keys (the profile's own
    when it has none), with the timing flags applied.  The round is split
    from the profile only when no flag replaces it."""
    if args.idealized and args.t_fd is not None:
        raise ValueError("--idealized and --t-fd are mutually exclusive")
    counts = table.device_counts((SchemeKind.FDMA,))
    if len(counts) > 1 and args.t_fd is None:
        raise ValueError(
            f"FDMA keys mix device counts {', '.join(map(str, counts))}; "
            "the FDMA round needs one (or give --t-fd)"
        )
    phy = PhyProfile(num_devices=counts[0]) if counts else PhyProfile()
    t_td = tdma_slot_ms(phy) if args.t_td is None else args.t_td
    if args.idealized:
        return idealized_timing(phy.num_devices, t_td)
    if args.t_fd is not None:
        return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=args.t_fd)
    try:
        split = phy.fdma_split()
    except ValueError as exc:
        raise ValueError(f"{exc} (or give --t-fd)") from None
    return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=fdma_round_ms(split))


def _cmd_theory(args) -> int:
    table = _resolve_table(args, schemes=_parse_schemes(args.scheme))
    rows = run_sweep(table, _resolve_timing(args, table), modes=("theory",),
                     horizon=1, seed=0)
    emit_rows(rows, args.out)
    return 0


def _cmd_simulate(args) -> int:
    p = _inline_p(args)
    scheme = SchemeKind.from_token(args.scheme)
    timing = _resolve_timing(args, single_point_table(p, schemes=(scheme,)))
    order = _parse_order(args.order) if args.order else None
    if order is not None:
        if scheme is SchemeKind.FDMA:
            raise ValueError("--order applies to TDMA schemes only")
        p = p.permuted(order)
    row = simulation_row(0.0, scheme, p, timing, args.horizon, args.seed)
    emit_rows([replace(row, order=order)], args.out)
    return 0


def _cmd_sweep(args) -> int:
    table = _resolve_table(args)
    timing = _resolve_timing(args, table)
    rows = run_sweep(table, timing, modes=tuple(_tokens(args.modes, "--modes")),
                     horizon=args.horizon, seed=args.seed)
    emit_rows(rows, args.out)
    return 0


def _cmd_orders(args) -> int:
    p = _inline_p(args)
    orders = _parse_orders(args.orders) if args.orders else default_order_patterns(p.n)
    timing = _resolve_timing(args, single_point_table(p, schemes=SchemeKind.expand("tdma")))
    rows = run_order_study(p, orders, timing, horizon=args.horizon, seed=args.seed)
    emit_rows(rows, args.out)
    return 0


def _cmd_timing(args) -> int:
    phy = PhyProfile(**{field: getattr(args, field) for field in _PHY_FLAGS
                        if getattr(args, field) is not None})
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
                        help="TDMA slot duration in ms (default: the PHY profile's, "
                             "see aockit timing)")
    parser.add_argument("--t-fd", type=float, default=None, metavar="MS",
                        help="FDMA round duration in ms (default: the PHY profile's "
                             "round for the run's N devices, see aockit timing --n N)")
    parser.add_argument("--idealized", action="store_true",
                        help="set the FDMA round to N TDMA slots (overhead-free)")


def _add_input_flags(parser, per_table: bool) -> None:
    if per_table:
        parser.add_argument("--per-table", metavar="PATH", default=None,
                            help="CSV of per-device PERs keyed by snr_db and scheme")
    parser.add_argument("--p", metavar="LIST", default=None,
                        help="inline comma-separated PER vector, e.g. 0.1,0.2")
    parser.add_argument("--n", type=int, default=None,
                        help="device count; checked against the PER input")


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
    _add_input_flags(theory, per_table=True)
    theory.add_argument("--scheme", default=None, metavar="TOKENS",
                        help="comma list of tdma-nr,tdma-r,fdma (or tdma)")
    _add_timing_flags(theory)
    theory.add_argument("--out", default=None, metavar="PATH")
    theory.set_defaults(func=_cmd_theory)

    simulate = sub.add_parser("simulate", help="one seeded simulation run")
    simulate.add_argument("--scheme", required=True,
                          choices=[k.token for k in SchemeKind])
    _add_input_flags(simulate, per_table=False)
    simulate.add_argument("--order", default=None, metavar="LIST",
                          help="transmission order, e.g. 6,1,2,3,4,5 (TDMA only)")
    _add_run_flags(simulate)
    _add_timing_flags(simulate)
    simulate.add_argument("--out", default=None, metavar="PATH")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="theory + simulation over a PER table")
    _add_input_flags(sweep, per_table=True)
    sweep.add_argument("--modes", default=",".join(MODES), metavar="LIST",
                       help="comma list of theory,simulation")
    _add_run_flags(sweep)
    _add_timing_flags(sweep)
    sweep.add_argument("--out", default=None, metavar="PATH")
    sweep.set_defaults(func=_cmd_sweep)

    orders = sub.add_parser("orders", help="transmission-order study (TDMA)")
    _add_input_flags(orders, per_table=False)
    orders.add_argument("--orders", default=None, metavar="LISTS",
                        help="semicolon-separated orders, e.g. 1,2;2,1 "
                             "(default: built-in reference patterns)")
    _add_run_flags(orders)
    _add_timing_flags(orders)
    orders.add_argument("--out", default=None, metavar="PATH")
    orders.set_defaults(func=_cmd_orders)

    timing = sub.add_parser("timing", help="slot/round durations from PHY parameters")
    for field, flag in _PHY_FLAGS.items():
        default = getattr(PhyProfile, field)
        timing.add_argument(flag, dest=field, type=type(default), default=None,
                            metavar=flag[2:].upper().replace("-", "_"),
                            help=f"default {default:g}")
    timing.add_argument("--out", default=None, metavar="PATH")
    timing.set_defaults(func=_cmd_timing)

    return parser


def _name_flags(message: str, args) -> str:
    """The message with each PhyProfile, TimingModel or SimConfig field it
    names replaced by the flag that sets it.  Under --idealized the FDMA
    round, N times --t-td, is named the --idealized round."""
    flags = _FIELD_FLAGS
    if getattr(args, "idealized", False):
        flags = {**flags, "fdma_round_ms": "--idealized round"}
    return " ".join(flags.get(word, word) for word in message.split(" "))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"aockit: {_name_flags(str(exc), args)}", file=sys.stderr)
        return 2
    except MemoryError:
        # the simulator's memory grows with the horizon
        horizon = getattr(args, "horizon", None)
        where = "" if horizon is None else f" at --horizon {horizon}"
        print(f"aockit: out of memory{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
