import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aockit import sim
from aockit.analysis import tdma_nr_avg_aoc_slots
from aockit.cli import main
from aockit.domain import SchemeKind, make_per_vector
from aockit.timing import PhyProfile, tdma_slot_ms

TABLE = """snr_db,scheme,device_id,per
10,tdma,1,0.1
10,tdma,2,0.2
10,fdma,1,0.15
10,fdma,2,0.25
"""

# `aockit sweep --p 0.3,0.2,0.1 --seed 7 --horizon H` stdout; the FDMA rows
# use the 3-device round, 0.128 ms (16 subcarriers per device).  The
# horizons 10 to 30 give 1 to 11 renewal intervals (1 for both TDMA schemes
# at 10), below the _MIN_CYCLES floor, so every half-width there is inf;
# 5000 gives 1,101 to 2,555 intervals and finite half-widths.
SWEEP_GOLDEN = {
    10: (
        'snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n'
        '0.0,fdma,simulation,0.234667,inf,17578680901711760161\n'
        '0.0,fdma,theory,0.317968,0.0,0\n'
        '0.0,tdma-nr,simulation,0.624,inf,7718441288640780397\n'
        '0.0,tdma-nr,theory,0.602101,0.0,0\n'
        '0.0,tdma-r,simulation,0.52,inf,11454282878471336457\n'
        '0.0,tdma-r,theory,0.561002,0.0,0\n'
    ),
    13: (
        'snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n'
        '0.0,fdma,simulation,0.419556,inf,17578680901711760161\n'
        '0.0,fdma,theory,0.317968,0.0,0\n'
        '0.0,tdma-nr,simulation,0.5824,inf,7718441288640780397\n'
        '0.0,tdma-nr,theory,0.602101,0.0,0\n'
        '0.0,tdma-r,simulation,0.548889,inf,11454282878471336457\n'
        '0.0,tdma-r,theory,0.561002,0.0,0\n'
    ),
    30: (
        'snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n'
        '0.0,fdma,simulation,0.352,inf,17578680901711760161\n'
        '0.0,fdma,theory,0.317968,0.0,0\n'
        '0.0,tdma-nr,simulation,0.54288,inf,7718441288640780397\n'
        '0.0,tdma-nr,theory,0.602101,0.0,0\n'
        '0.0,tdma-r,simulation,0.552741,inf,11454282878471336457\n'
        '0.0,tdma-r,theory,0.561002,0.0,0\n'
    ),
    5000: (
        'snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n'
        '0.0,fdma,simulation,0.318463,0.00934123,17578680901711760161\n'
        '0.0,fdma,theory,0.317968,0.0,0\n'
        '0.0,tdma-nr,simulation,0.605841,0.0136772,7718441288640780397\n'
        '0.0,tdma-nr,theory,0.602101,0.0,0\n'
        '0.0,tdma-r,simulation,0.558011,0.00648618,11454282878471336457\n'
        '0.0,tdma-r,theory,0.561002,0.0,0\n'
    ),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTiming:
    def test_default_constants(self, capsys):
        code, out, err = _run(capsys, ["timing"])
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "quantity,value_ms",
            "status,0.048",
            "ack,0.024",
            "tdma_slot,0.104",
            "fdma_status,0.208",
            "fdma_round,0.224",
        ]

    def test_custom_profile(self, capsys):
        code, out, _ = _run(capsys, ["timing", "--gi-ms", "0", "--n", "4"])
        assert code == 0
        assert "tdma_slot,0.072" in out

    def test_bad_split_fails(self, capsys):
        code, _, err = _run(capsys, ["timing", "--n", "5"])
        assert code == 2
        assert err.startswith("aockit:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value,want", [
        ("--bandwidth-hz", "0", "must be finite and > 0, got 0.0"),
        ("--preamble-samples", "0", "must be > 0, got 0"),
        ("--payload-bits", "0", "must be > 0, got 0"),
        ("--ack-payload-bits", "-1", "must be >= 0, got -1"),
        ("--code-rate-inv", "0", "must be > 0, got 0"),
        ("--subcarriers", "0", "must be > 0, got 0"),
        ("--fft-size", "0", "must be > 0, got 0"),
        ("--cp-samples", "-1", "must be >= 0, got -1"),
        ("--gi-ms", "-1", "must be finite and >= 0, got -1.0"),
        ("--n", "0", "must be > 0, got 0"),
        ("--subcarriers", "65", "65 exceeds --fft-size 64"),
    ])
    def test_bad_value_names_the_flag(self, capsys, flag, value, want):
        code, out, err = _run(capsys, ["timing", flag, value])
        assert (code, out) == (2, "")
        assert err == f"aockit: {flag} {want}\n"

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        code, out, _ = _run(capsys, ["timing", "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8").startswith("quantity,value_ms\n")


class TestTheory:
    def test_inline_zero_loss(self, capsys):
        code, out, _ = _run(capsys, ["theory", "--p", "0,0,0,0,0,0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed"
        assert "0.0,fdma,theory,0.336,0.0,0" in lines
        assert "0.0,tdma-nr,theory,0.936,0.0,0" in lines
        assert "0.0,tdma-r,theory,0.936,0.0,0" in lines

    def test_scheme_filter(self, capsys):
        code, out, _ = _run(capsys, ["theory", "--p", "0.5,0.5", "--scheme", "tdma",
                                     "--t-td", "1.0"])
        assert code == 0
        lines = out.splitlines()[1:]
        assert len(lines) == 2
        assert any(line.startswith("0.0,tdma-r,theory,5.5,") for line in lines)

    def test_table_input(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        code, out, _ = _run(capsys, ["theory", "--per-table", str(path)])
        assert code == 0
        assert len(out.splitlines()) == 4  # header + 3 keys

    def test_scheme_filters_table_keys(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        code, out, err = _run(capsys, ["theory", "--per-table", str(path),
                                       "--scheme", "fdma"])
        assert code == 0 and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("10.0,fdma,theory,")

    def test_empty_result_is_an_error(self, tmp_path, capsys):
        tdma_only = tmp_path / "tdma.csv"
        tdma_only.write_text("snr_db,scheme,device_id,per\n10,tdma,1,0.1\n",
                             encoding="utf-8")
        code, out, err = _run(capsys, ["theory", "--per-table", str(tdma_only),
                                       "--scheme", "fdma"])
        assert (code, out) == (2, "")
        assert err == f"aockit: --scheme fdma matches no key of {tdma_only}\n"
        header_only = tmp_path / "empty.csv"
        header_only.write_text("snr_db,scheme,device_id,per\n", encoding="utf-8")
        for argv in (["theory"], ["sweep", "--horizon", "100"]):
            code, out, err = _run(capsys, argv + ["--per-table", str(header_only)])
            assert (code, out, err) == (2, "", f"aockit: no PER rows in {header_only}\n")

    def test_tdma_filter_skips_the_fdma_split(self, tmp_path, capsys):
        # FDMA keys at N = 5 cannot be split, but --scheme tdma drops them
        path = tmp_path / "per.csv"
        path.write_text("snr_db,scheme,device_id,per\n"
                        + "".join(f"10,fdma,{d},0.1\n" for d in range(1, 6))
                        + "10,tdma,1,0.1\n10,tdma,2,0.1\n", encoding="utf-8")
        code, _, err = _run(capsys, ["theory", "--per-table", str(path)])
        assert (code, err) == (2, "aockit: cannot split 48 subcarriers over 5 devices "
                                  "(or give --t-fd)\n")
        code, out, err = _run(capsys, ["theory", "--per-table", str(path),
                                       "--scheme", "tdma"])
        assert code == 0 and err == ""
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == \
            ["tdma-nr", "tdma-r"]

    def test_idealized(self, capsys):
        code, out, _ = _run(capsys, ["theory", "--p", "0,0,0,0,0,0",
                                     "--t-td", "1.0", "--idealized"])
        assert code == 0
        assert "0.0,fdma,theory,9.0,0.0,0" in out.splitlines()

    def test_requires_input(self, capsys):
        code, _, err = _run(capsys, ["theory"])
        assert code == 2
        assert "aockit:" in err

    def test_rejects_both_inputs(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        code, _, err = _run(capsys, ["theory", "--per-table", str(path),
                                     "--p", "0.1"])
        assert code == 2
        assert "choose one" in err

    def test_n_mismatch(self, capsys):
        code, _, err = _run(capsys, ["theory", "--p", "0.1,0.2", "--n", "3"])
        assert code == 2
        assert "--n" in err

    def test_many_devices_long_rounds(self, capsys):
        probs = [0.5] * 48
        code, out, err = _run(capsys, ["theory", "--p", ",".join(map(str, probs)),
                                       "--scheme", "tdma-nr"])
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 1 and rows[0][1] == "tdma-nr"
        want = tdma_nr_avg_aoc_slots(make_per_vector(probs)) * tdma_slot_ms(PhyProfile())
        assert float(rows[0][3]) == pytest.approx(want, rel=1e-5)

    def test_range_error_names_the_scheme_once(self, capsys):
        # the row key names the scheme; the closed form's message does not
        code, out, err = _run(capsys, ["theory", "--p", ",".join(["0.99"] * 200),
                                       "--scheme", "tdma-nr"])
        assert (code, out) == (2, "")
        assert err == ("aockit: (0.0 dB, tdma-nr): average AoC exceeds float range "
                       "(N = 200)\n")


class TestTimingFlags:
    """Every subcommand's default timing is default_timing(n), n being the
    device count of the run's FDMA rows."""

    FIVE = ",".join(["0.1"] * 5)

    def test_fdma_round_follows_device_count(self, capsys):
        code, out, _ = _run(capsys, ["timing", "--n", "4"])
        assert code == 0 and "fdma_round,0.16" in out.splitlines()
        code, out, _ = _run(capsys, ["theory", "--p", "0,0,0,0", "--scheme", "fdma"])
        assert code == 0
        assert out.splitlines()[1] == "0.0,fdma,theory,0.24,0.0,0"

    def test_indivisible_split_fails_like_timing(self, capsys):
        # the same split error, which the table commands can avoid by
        # giving the round themselves
        code, _, err = _run(capsys, ["timing", "--n", "5"])
        assert code == 2
        assert err == "aockit: cannot split 48 subcarriers over 5 devices\n"
        want = "aockit: cannot split 48 subcarriers over 5 devices (or give --t-fd)\n"
        for argv in (["theory", "--p", self.FIVE],
                     ["sweep", "--p", self.FIVE, "--horizon", "100"],
                     ["simulate", "--scheme", "fdma", "--p", self.FIVE]):
            code, out, err = _run(capsys, argv)
            assert (code, out, err) == (2, "", want)
            code, _, err = _run(capsys, argv + ["--t-fd", "0.2"])
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ["theory", "--scheme", "tdma"],
        ["theory", "--t-fd", "0.2"],
        ["sweep", "--t-fd", "0.2", "--horizon", "2000"],
        ["simulate", "--scheme", "tdma-nr", "--horizon", "2000"],
        ["orders", "--horizon", "2000"],
    ])
    def test_runs_without_a_split_work_at_any_n(self, capsys, argv):
        code, _, err = _run(capsys, argv + ["--p", self.FIVE])
        assert code == 0 and err == ""

    def test_idealized_needs_no_split(self, capsys):
        code, out, _ = _run(capsys, ["theory", "--p", "0,0,0,0,0", "--scheme", "fdma",
                                     "--t-td", "1.0", "--idealized"])
        assert code == 0
        assert out.splitlines()[1] == "0.0,fdma,theory,7.5,0.0,0"

    def test_mixed_fdma_device_counts(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text("snr_db,scheme,device_id,per\n"
                        "10,fdma,1,0.1\n10,fdma,2,0.1\n"
                        "12,fdma,1,0.1\n12,fdma,2,0.1\n12,fdma,3,0.1\n",
                        encoding="utf-8")
        code, _, err = _run(capsys, ["theory", "--per-table", str(path)])
        assert code == 2
        assert "FDMA keys mix device counts 2, 3" in err
        code, _, err = _run(capsys, ["theory", "--per-table", str(path), "--t-fd", "0.2"])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("flag,value,shown", [
        ("--t-td", "0", "0.0"),
        ("--t-td", "nan", "nan"),
        ("--t-fd", "-1", "-1.0"),
        ("--t-fd", "inf", "inf"),
    ])
    def test_bad_duration_names_the_flag(self, capsys, flag, value, shown):
        code, out, err = _run(capsys, ["theory", "--p", "0.1", flag, value])
        assert (code, out) == (2, "")
        assert err == f"aockit: {flag} must be finite and > 0, got {shown}\n"

    def test_idealized_excludes_t_fd(self, capsys):
        code, out, err = _run(capsys, ["theory", "--p", "0.1", "--idealized", "--t-fd", "1"])
        assert (code, out) == (2, "")
        assert err == "aockit: --idealized and --t-fd are mutually exclusive\n"

    def test_idealized_round_overflow_names_the_flag(self, capsys):
        code, out, err = _run(capsys, ["theory", "--p", "0.1,0.1", "--t-td", "1e308",
                                       "--idealized"])
        assert (code, out) == (2, "")
        assert err == "aockit: --idealized round must be finite and > 0, got inf\n"

    @pytest.mark.parametrize("flags,named", [
        (["--t-fd", "1e308"], "--t-fd"),
        (["--t-td", "5e307", "--idealized"], "--idealized round"),
    ], ids=["t-fd", "idealized"])
    def test_round_ms_overflow_names_the_flag(self, capsys, flags, named):
        code, out, err = _run(capsys, ["theory", "--p", "0.5,0.5", "--scheme", "fdma"]
                              + flags)
        assert (code, out) == (2, "")
        assert err == (f"aockit: (0.0 dB, fdma): {named} 1e+308 times 4.5 rounds "
                       "exceeds float range\n")

    def test_tdma_keys_do_not_set_the_fdma_round(self, tmp_path, capsys):
        # TDMA keys at N = 5 beside FDMA keys at N = 2: the round is N = 2's
        path = tmp_path / "per.csv"
        path.write_text("snr_db,scheme,device_id,per\n"
                        + "".join(f"10,tdma,{d},0\n" for d in range(1, 6))
                        + "10,fdma,1,0\n10,fdma,2,0\n", encoding="utf-8")
        code, out, err = _run(capsys, ["theory", "--per-table", str(path)])
        assert code == 0 and err == ""
        assert "10.0,fdma,theory,0.144,0.0,0" in out.splitlines()


class TestListFlags:
    """One rule for every comma-list flag: empty tokens are skipped, and a
    list with no tokens is an error that names the flag."""

    @pytest.mark.parametrize("trailing,plain", [
        (["theory", "--p", "0.1,0.2,"], ["theory", "--p", "0.1,0.2"]),
        (["theory", "--p", "0.1,,0.2", "--scheme", "fdma,"],
         ["theory", "--p", "0.1,0.2", "--scheme", "fdma"]),
        (["theory", "--p", "0.1,0.2", "--scheme", " tdma , "],
         ["theory", "--p", "0.1,0.2", "--scheme", "tdma"]),
        (["simulate", "--scheme", "tdma-r", "--p", "0.1,0.2", "--order", "2,1,",
          "--horizon", "500"],
         ["simulate", "--scheme", "tdma-r", "--p", "0.1,0.2", "--order", "2,1",
          "--horizon", "500"]),
        (["sweep", "--p", "0.1,0.2", "--modes", "theory,"],
         ["sweep", "--p", "0.1,0.2", "--modes", "theory"]),
    ], ids=["p", "scheme", "scheme-spaces", "order", "modes"])
    def test_empty_tokens_are_skipped(self, capsys, trailing, plain):
        assert _run(capsys, trailing) == _run(capsys, plain)
        assert _run(capsys, plain)[0] == 0

    @pytest.mark.parametrize("flag,value", [("--scheme", ","), ("--scheme", " "),
                                            ("--p", ","), ("--modes", ","),
                                            ("--orders", ";")])
    def test_no_tokens_names_the_flag(self, capsys, flag, value):
        argv = {
            "--modes": ["sweep", "--p", "0.1", "--modes", "theory"],
            "--orders": ["orders", "--p", "0.1,0.2", "--orders", "1,2"],
        }.get(flag, ["theory", "--p", "0.1", "--scheme", "fdma"])
        argv[argv.index(flag) + 1] = value
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", f"aockit: invalid {flag} value {value!r}\n")

    def test_unknown_modes_token_names_the_flag(self, capsys):
        code, out, err = _run(capsys, ["sweep", "--p", "0.1", "--modes", "theory,foo"])
        assert (code, out) == (2, "")
        assert err == ("aockit: unknown --modes token 'foo', "
                       "expected one of theory, simulation\n")


class TestDeviceCountFlag:
    def test_checks_per_table(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        code, _, err = _run(capsys, ["theory", "--per-table", str(path), "--n", "3"])
        assert code == 2
        assert err.startswith("aockit: --n 3 does not match") and "2 devices" in err
        code, out, _ = _run(capsys, ["theory", "--per-table", str(path), "--n", "2"])
        assert code == 0 and len(out.splitlines()) == 4

    def test_names_every_count_of_a_mixed_table(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE + "12,fdma,1,0.1\n", encoding="utf-8")
        code, _, err = _run(capsys, ["sweep", "--per-table", str(path), "--n", "2"])
        assert code == 2
        assert "1, 2 devices" in err


class TestInputFlags:
    @pytest.mark.parametrize("command", [
        ["simulate", "--scheme", "tdma-nr"],
        ["orders"],
    ])
    def test_inline_only_subcommands_reject_per_table(self, tmp_path, capsys, command):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            main(command + ["--p", "0.1,0.2", "--per-table", str(path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --per-table" in capsys.readouterr().err


class TestHorizonFlag:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--p", "0.1,0.2", "--modes", "theory"],  # builds no SimConfig
        ["orders", "--p", "0.1,0.2"],  # a run-level error, not a row's
    ])
    def test_checked_before_any_row(self, capsys, argv):
        code, out, err = _run(capsys, argv + ["--horizon", "0"])
        assert (code, out, err) == (2, "", "aockit: --horizon must be >= 1, got 0\n")


class TestSeedFlag:
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--scheme", "fdma", "--p", "0.1"],
        ["sweep", "--p", "0.1,0.2"],
    ], ids=["simulate", "sweep"])
    def test_names_the_flag(self, capsys, argv, seed):
        code, out, err = _run(capsys, argv + ["--seed", seed])
        assert (code, out) == (2, "")
        assert err == f"aockit: --seed must be a 64-bit unsigned integer, got {seed}\n"


class TestSimulate:
    def test_zero_loss_exact(self, capsys):
        code, out, _ = _run(capsys, ["simulate", "--scheme", "tdma-nr",
                                     "--p", "0,0", "--horizon", "1000",
                                     "--seed", "5", "--t-td", "1.0"])
        assert code == 0
        assert out.splitlines()[1] == "0.0,tdma-nr,simulation,3.0,0.0,5"

    def test_order_flag(self, capsys):
        code, out, _ = _run(capsys, ["simulate", "--scheme", "tdma-r",
                                     "--p", "0.1,0.2", "--order", "2,1",
                                     "--horizon", "5000", "--t-td", "1.0"])
        assert code == 0
        assert out.splitlines()[0].endswith(",order")
        assert out.splitlines()[1].endswith(",2-1")

    def test_order_flag_rejected_for_fdma(self, capsys):
        code, out, err = _run(capsys, ["simulate", "--scheme", "fdma", "--p", "0.1,0.2",
                                       "--order", "2,1"])
        assert (code, out) == (2, "")
        assert err == "aockit: --order applies to TDMA schemes only\n"

    def test_unparsable_order_flag(self, capsys):
        code, out, err = _run(capsys, ["simulate", "--scheme", "tdma-r", "--p", "0.1,0.2",
                                       "--order", "1,x"])
        assert (code, out, err) == (2, "", "aockit: invalid order '1,x'\n")

    def test_insufficient_collections(self, capsys):
        code, _, err = _run(capsys, ["simulate", "--scheme", "tdma-nr",
                                     "--p", "0,0", "--horizon", "3"])
        assert code == 2
        assert "insufficient collections" in err

    def test_insufficient_collections_names_the_horizon(self, capsys):
        code, out, err = _run(capsys, ["simulate", "--scheme", "fdma",
                                       "--p", "0.9,0.9,0.9", "--horizon", "50"])
        assert (code, out) == (2, "")
        assert err == ("aockit: insufficient collections: 0 in --horizon 50 rounds, "
                       "need 2\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_out_of_memory_names_the_horizon(self, capsys, monkeypatch, command):
        def step(probs, u, carry):
            raise MemoryError
        monkeypatch.setitem(sim._KERNELS, SchemeKind.FDMA, (step, "rounds"))
        argv = [command, "--p", "0", "--horizon", "100000000"]
        if command == "simulate":
            argv += ["--scheme", "fdma"]
        code, out, err = _run(capsys, argv)
        assert (code, out, err) == (2, "", "aockit: out of memory at --horizon 100000000\n")

    def test_requires_p(self, capsys):
        code, _, err = _run(capsys, ["simulate", "--scheme", "fdma"])
        assert code == 2
        assert "--p" in err


class TestSweep:
    def test_byte_identical_runs(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = _run(capsys, ["sweep", "--per-table", str(path),
                                       "--horizon", "20000", "--seed", "9",
                                       "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_modes_flag(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text(TABLE, encoding="utf-8")
        code, out, _ = _run(capsys, ["sweep", "--per-table", str(path),
                                     "--modes", "theory"])
        assert code == 0
        assert all(",theory," in line for line in out.splitlines()[1:])

    def test_table_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "per.csv"
        path.write_text("snr_db,scheme,device_id,per\n10,fdma,1,1.0\n",
                        encoding="utf-8")
        code, _, err = _run(capsys, ["sweep", "--per-table", str(path)])
        assert code == 2
        assert "per out of range [0,1) at line 2" in err

    @pytest.mark.parametrize("horizon", sorted(SWEEP_GOLDEN))
    def test_golden_output(self, horizon, capsys):
        code, out, err = _run(capsys, ["sweep", "--p", "0.3,0.2,0.1", "--seed", "7",
                                       "--horizon", str(horizon)])
        assert code == 0 and err == ""
        assert out == SWEEP_GOLDEN[horizon]

    def test_row_error_names_its_key(self, capsys):
        code, out, err = _run(capsys, ["sweep", "--p", "0.95,0.95,0.95,0.95",
                                       "--horizon", "20"])
        assert (code, out) == (2, "")
        assert err == ("aockit: (0.0 dB, fdma): insufficient collections: 0 in "
                       "--horizon 20 rounds, need 2\n")

    def test_huge_slot_duration_gives_finite_rows(self, capsys):
        # the simulated averages and half-widths are finite in ms, so the
        # run succeeds even where slot times in ms would overflow
        code, out, err = _run(capsys, ["sweep", "--p", "0.1", "--t-td", "1e306",
                                       "--t-fd", "0.2", "--horizon", "1000"])
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            _, _, _, avg, half, _ = row.split(",")
            assert math.isfinite(float(avg)) and math.isfinite(float(half))

    @pytest.mark.parametrize("modes,units", [([], "6.83333"),
                                             (["--modes", "simulation"], "6.37726")],
                             ids=["all-modes", "simulation"])
    def test_slot_ms_overflow_names_the_flag(self, capsys, modes, units):
        # the theory row overflows first; alone, the simulation row does
        code, out, err = _run(capsys, ["sweep", "--p", "0.5,0.5", "--t-td", "1e308",
                                       "--t-fd", "0.2", "--horizon", "1000"] + modes)
        assert (code, out) == (2, "")
        assert err == (f"aockit: (0.0 dB, tdma-nr): --t-td 1e+308 times {units} slots "
                       "exceeds float range\n")

    def test_missing_table_file(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["sweep", "--per-table",
                                     str(tmp_path / "nope.csv")])
        assert code == 2
        assert err.startswith("aockit:")


class TestOrders:
    def test_default_patterns(self, capsys):
        code, out, _ = _run(capsys, ["orders", "--p", "0.05,0.1,0.1,0.1,0.1,0.2",
                                     "--horizon", "20000", "--t-td", "1.0",
                                     "--idealized"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(",order")
        assert len(lines) == 1 + 3 * 2 * 2  # 3 orders x 2 schemes x 2 modes

    def test_explicit_orders(self, capsys):
        code, out, _ = _run(capsys, ["orders", "--p", "0.1,0.2",
                                     "--orders", "1,2;2,1",
                                     "--horizon", "5000"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2 * 2

    def test_invalid_order(self, capsys):
        code, _, err = _run(capsys, ["orders", "--p", "0.1,0.2",
                                     "--orders", "1,3"])
        assert code == 2
        assert "aockit:" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aockit.cli", "timing"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("quantity,value_ms\n")

    def test_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "aockit.cli", "theory"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip().startswith("aockit:")

    def test_cli_import_loads_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, aockit.cli; print('scipy' in sys.modules)"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
