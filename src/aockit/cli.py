"""Command-line front end.

Subcommands:
  theory    closed-form average AoC per (snr, scheme) key
  simulate  one seeded simulation run for a single scheme
  sweep     theory and simulation rows for a whole PER table
  orders    transmission-order study for the TDMA schemes
  timing    slot/round durations from PHY-layer parameters

theory and sweep read PER input from a CSV table (--per-table) or an
inline vector (--p); simulate and orders take an inline vector only.
The device count N is the length of each PER vector: only timing takes
it as a flag (--n), to size its FDMA split.  theory runs as a sweep with
--modes theory.  All results are emitted as CSV on stdout or --out; exit
code is 0 on success and 2 on any error, usage errors included, with one
`aockit: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .domain import PerVector, SchemeKind, TimingModel, make_per_vector
from .sim import SimConfig, simulate_ms
from .sweep import (
    MODES,
    PerTable,
    SweepRow,
    default_order_patterns,
    emit_csv,
    emit_rows,
    load_per_table,
    run_order_study,
    run_sweep,
    single_point_table,
)
from .timing import PhyProfile, default_timing, fdma_round_ms, idealized_timing
from .timing import ack_duration_ms, status_duration_ms, tdma_slot_ms

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
        return tuple(SchemeKind)
    tokens = _tokens(text, "--scheme")
    return tuple(dict.fromkeys(
        scheme for token in tokens for scheme in SchemeKind.expand(token)
    ))


def _resolve_table(args) -> PerTable:
    """The run's table from --per-table or --p, keeping only the keys
    under --scheme (every key when it is None)."""
    schemes = _parse_schemes(args.scheme)
    if args.p is not None:
        return single_point_table(_parse_probs(args.p), schemes)
    vectors = load_per_table(args.per_table).vectors
    table = PerTable({key: p for key, p in vectors.items() if key[1] in schemes})
    if not table.vectors:
        raise ValueError(f"--scheme {args.scheme} matches no key of {args.per_table}")
    return table


def _resolve_timing(args, counts) -> TimingModel:
    """The run's timing, `counts` being the device counts of its FDMA rows.
    The slot is the PHY profile's unless --t-td is given, and the round is
    --t-fd, N slots under --idealized, or else default_timing(N)'s, N
    being the one entry of `counts` (the profile's own N when there is
    none)."""
    if len(counts) > 1 and args.t_fd is None:
        remedy = "give --t-fd in place of --idealized" if args.idealized else "or give --t-fd"
        raise ValueError(f"FDMA keys mix device counts {', '.join(map(str, counts))}; "
                         f"the FDMA round needs one ({remedy})")
    n = counts[0] if counts else PhyProfile.num_devices
    t_td = tdma_slot_ms(PhyProfile()) if args.t_td is None else args.t_td
    if args.idealized:
        return idealized_timing(n, t_td)
    if args.t_fd is not None:
        return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=args.t_fd)
    try:
        t_fd = default_timing(n).fdma_round_ms
    except ValueError as exc:
        raise ValueError(f"{exc} (or give --t-fd)") from None
    return TimingModel(tdma_slot_ms=t_td, fdma_round_ms=t_fd)


def _cmd_simulate(args) -> int:
    p = _parse_probs(args.p)
    scheme = SchemeKind.from_token(args.scheme)
    timing = _resolve_timing(args, [p.n] if scheme is SchemeKind.FDMA else [])
    order = _parse_order(args.order) if args.order else None
    if order is not None:
        if scheme is SchemeKind.FDMA:
            raise ValueError("--order applies to TDMA schemes only")
        p = p.permuted(order)
    result = simulate_ms(SimConfig(scheme, p, args.horizon, args.seed), timing)
    emit_rows([SweepRow(0.0, scheme, "simulation", result.avg_aoc,
                        result.ci_halfwidth, args.seed, order)], args.out)
    return 0


def _cmd_sweep(args) -> int:
    table = _resolve_table(args)
    timing = _resolve_timing(args, table.device_counts((SchemeKind.FDMA,)))
    rows = run_sweep(table, timing, modes=_tokens(args.modes, "--modes"),
                     horizon=args.horizon, seed=args.seed)
    emit_rows(rows, args.out)
    return 0


def _cmd_orders(args) -> int:
    p = _parse_probs(args.p)
    orders = _parse_orders(args.orders) if args.orders else default_order_patterns(p.n)
    timing = _resolve_timing(args, [])
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
    round_flags = parser.add_mutually_exclusive_group()
    round_flags.add_argument("--t-fd", type=float, default=None, metavar="MS",
                             help="FDMA round duration in ms (default: the PHY profile's "
                                  "round for the run's N devices, see aockit timing --n N)")
    round_flags.add_argument("--idealized", action="store_true",
                             help="set the FDMA round to N TDMA slots (overhead-free)")


def _add_input_flags(parser, per_table: bool) -> None:
    # theory and sweep take exactly one of the two inputs, the others --p
    inputs = parser.add_mutually_exclusive_group(required=True) if per_table else parser
    if per_table:
        inputs.add_argument("--per-table", metavar="PATH", default=None,
                            help="CSV of per-device PERs keyed by snr_db and scheme")
    inputs.add_argument("--p", metavar="LIST", default=None, required=not per_table,
                        help="inline comma-separated PER vector, e.g. 0.1,0.2")


def _add_run_flags(parser) -> None:
    parser.add_argument("--horizon", type=int, default=100_000,
                        help="slots (TDMA) or rounds (FDMA) per run")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed, 64-bit unsigned")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, like every other error, print one
    `aockit: <message>` line; its subparsers share the class."""

    def error(self, message):
        self.exit(2, f"aockit: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    theory.set_defaults(func=_cmd_sweep, modes="theory", horizon=1, seed=0)

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
    sweep.set_defaults(func=_cmd_sweep, scheme=None)

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
