import io
import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aockit.domain import SchemeKind, TimingModel, make_per_vector
from aockit.sim import SimConfig
from aockit.sweep import (
    MODES,
    PerTable,
    SweepRow,
    _derive_seed,
    _fmt,
    default_order_patterns,
    emit_csv,
    emit_rows,
    load_per_table,
    run_order_study,
    run_sweep,
    simulation_row,
    single_point_table,
    theory_row,
)

REF_TIMING = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)
UNIT = TimingModel(tdma_slot_ms=1.0, fdma_round_ms=1.0)


def _write(tmp_path, text, name="per.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path

TABLE_OK = """snr_db,scheme,device_id,per
10,tdma,1,0.1
10,tdma,2,0.2
10,fdma,1,0.15
10,fdma,2,0.25
12,tdma-nr,1,0.05
12,tdma-nr,2,0.05
"""


class TestPerTable:
    def test_keys_and_vectors(self):
        table = PerTable({
            (10.0, SchemeKind.FDMA): make_per_vector([0.1, 0.2]),
            (5, SchemeKind.TDMA_NR): make_per_vector([0.3]),
        })
        assert table.keys() == [(5.0, SchemeKind.TDMA_NR), (10.0, SchemeKind.FDMA)]
        assert table.vector(10.0, SchemeKind.FDMA).probs == (0.1, 0.2)
        assert table.vector(5.0, SchemeKind.TDMA_NR).probs == (0.3,)

    def test_scheme_must_be_a_scheme_kind(self):
        with pytest.raises(ValueError, match="scheme must be a SchemeKind"):
            PerTable({(10.0, "fdma"): make_per_vector([0.1])})

    def test_per_validated(self):
        # values must be PerVectors, whose constructor checks every PER
        with pytest.raises(ValueError, match="must be a PerVector"):
            PerTable({(10.0, SchemeKind.FDMA): (0.1, 1.0)})

    def test_incomplete_device_set(self, tmp_path):
        # a value must cover devices 1..N: a device -> PER map with a gap is
        # no PerVector, and the loader rejects the same gap in a CSV
        with pytest.raises(ValueError, match="must be a PerVector"):
            PerTable({(10.0, SchemeKind.FDMA): {1: 0.1, 3: 0.2}})
        text = "snr_db,scheme,device_id,per\n10,fdma,1,0.1\n10,fdma,3,0.2\n"
        with pytest.raises(ValueError, match=r"incomplete device set for \(10.0 dB, fdma\)"):
            load_per_table(_write(tmp_path, text))

    def test_read_only(self):
        table = single_point_table(make_per_vector([0.1]))
        with pytest.raises(TypeError):
            table.vectors[(1.0, SchemeKind.FDMA)] = make_per_vector([0.2])

    def test_device_counts(self):
        table = PerTable({
            (10.0, SchemeKind.FDMA): make_per_vector([0.1, 0.2]),
            (12.0, SchemeKind.FDMA): make_per_vector([0.1] * 3),
            (10.0, SchemeKind.TDMA_R): make_per_vector([0.1] * 5),
        })
        assert table.device_counts() == [2, 3, 5]
        assert table.device_counts((SchemeKind.FDMA,)) == [2, 3]
        assert table.device_counts((SchemeKind.TDMA_NR,)) == []


class TestLoadPerTable:
    def test_parses_and_expands_tdma(self, tmp_path):
        table = load_per_table(_write(tmp_path, TABLE_OK))
        assert table.keys() == [
            (10.0, SchemeKind.FDMA),
            (10.0, SchemeKind.TDMA_NR),
            (10.0, SchemeKind.TDMA_R),
            (12.0, SchemeKind.TDMA_NR),
        ]
        assert table.vector(10.0, SchemeKind.TDMA_NR).probs == (0.1, 0.2)
        assert table.vector(10.0, SchemeKind.TDMA_R).probs == (0.1, 0.2)

    def test_blank_lines_skipped(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n\n10,fdma,1,0.1\n\n"
        table = load_per_table(_write(tmp_path, text))
        assert len(table.keys()) == 1

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "snr,scheme,device,per\n10,fdma,1,0.1\n")
        with pytest.raises(ValueError, match="bad header"):
            load_per_table(path)

    def test_per_out_of_range_names_line(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,fdma,1,0.1\n10,fdma,2,1.0\n"
        with pytest.raises(ValueError, match=r"per out of range \[0,1\) at line 3"):
            load_per_table(_write(tmp_path, text))

    def test_infinite_snr_names_line(self, tmp_path):
        text = "snr_db,scheme,device_id,per\ninf,fdma,1,0.1\n"
        with pytest.raises(ValueError, match=r"^invalid snr_db 'inf' at line 2$"):
            load_per_table(_write(tmp_path, text))

    def test_unknown_scheme_names_line(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,csma,1,0.1\n"
        with pytest.raises(ValueError, match="unknown scheme token 'csma' at line 2"):
            load_per_table(_write(tmp_path, text))

    def test_duplicate_device_names_line(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,fdma,1,0.1\n10,fdma,1,0.2\n"
        with pytest.raises(ValueError,
                           match=r"^duplicate device 1 for \(10.0 dB, fdma\) at line 3$"):
            load_per_table(_write(tmp_path, text))

    def test_shorthand_duplicates_a_tdma_row(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,tdma-r,1,0.1\n10,tdma,1,0.2\n"
        with pytest.raises(ValueError, match=r"\(10.0 dB, tdma-r\) at line 3$"):
            load_per_table(_write(tmp_path, text))

    def test_missing_device(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,fdma,1,0.1\n10,fdma,3,0.1\n"
        with pytest.raises(ValueError, match="incomplete device set"):
            load_per_table(_write(tmp_path, text))

    def test_wrong_field_count(self, tmp_path):
        text = "snr_db,scheme,device_id,per\n10,fdma,1\n"
        with pytest.raises(ValueError, match="expected 4 fields at line 2"):
            load_per_table(_write(tmp_path, text))

    @pytest.mark.parametrize("row,what", [
        ("abc,fdma,1,0.1", "snr_db"),
        ("10,fdma,x,0.1", "device_id"),
        ("10,fdma,0,0.1", "device_id"),
        ("10,fdma,1,low", "per"),
    ])
    def test_bad_values_name_line(self, tmp_path, row, what):
        text = f"snr_db,scheme,device_id,per\n{row}\n"
        with pytest.raises(ValueError, match=f"invalid {what}.*at line 2"):
            load_per_table(_write(tmp_path, text))


# scheme columns one SNR may carry: the shorthand tdma stands in for both
# TDMA schemes, so it never appears beside tdma-nr or tdma-r
_LAYOUTS = [
    cols for k in (1, 2, 3)
    for cols in itertools.combinations(("fdma", "tdma", "tdma-nr", "tdma-r"), k)
    if not ("tdma" in cols and ("tdma-nr" in cols or "tdma-r" in cols))
]


@st.composite
def _tables(draw):
    """(csv text, {(snr, scheme): probs}) for a random valid PER table."""
    snrs = draw(st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=3, unique=True))
    expected, rows = {}, []
    for snr in snrs:
        for token in draw(st.sampled_from(_LAYOUTS)):
            probs = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=1, max_size=5))
            rows += [f"{snr!r},{token},{d},{per!r}" for d, per in enumerate(probs, 1)]
            for scheme in SchemeKind.expand(token):
                expected[(snr, scheme)] = tuple(probs)
    rows = draw(st.permutations(rows))
    return "snr_db,scheme,device_id,per\n" + "\n".join(rows) + "\n", expected


class TestLoadPerTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(_tables())
    def test_round_trip(self, tmp_path_factory, drawn):
        text, expected = drawn
        path = _write(tmp_path_factory.mktemp("t"), text)
        table = load_per_table(path)
        assert table.keys() == sorted(expected, key=lambda k: (k[0], k[1].token))
        for (snr, scheme), probs in expected.items():
            assert table.vector(snr, scheme).probs == probs


class TestSinglePointTable:
    def test_all_schemes(self):
        table = single_point_table(make_per_vector([0.1, 0.2]))
        assert len(table.keys()) == 3
        for _, scheme in table.keys():
            assert table.vector(0.0, scheme).probs == (0.1, 0.2)

    def test_scheme_subset(self):
        table = single_point_table(make_per_vector([0.1]), schemes=(SchemeKind.FDMA,))
        assert table.keys() == [(0.0, SchemeKind.FDMA)]


class TestRunSweep:
    def test_zero_loss_theory_and_simulation_agree_exactly(self):
        table = single_point_table(make_per_vector([0.0] * 6))
        rows = run_sweep(table, REF_TIMING, horizon=6_000, seed=1)
        by_key = {(r.scheme, r.mode): r for r in rows}
        assert by_key[(SchemeKind.TDMA_NR, "theory")].avg_aoc_ms == pytest.approx(0.936, rel=1e-12)
        assert by_key[(SchemeKind.TDMA_R, "theory")].avg_aoc_ms == pytest.approx(0.936, rel=1e-12)
        assert by_key[(SchemeKind.FDMA, "theory")].avg_aoc_ms == pytest.approx(0.336, rel=1e-12)
        for scheme in SchemeKind:
            theory = by_key[(scheme, "theory")]
            sim = by_key[(scheme, "simulation")]
            assert sim.avg_aoc_ms == theory.avg_aoc_ms
            assert sim.ci_halfwidth_ms == 0.0
            assert sim.seed != 0

    def test_rows_sorted_and_complete(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(TABLE_OK, encoding="utf-8")
        rows = run_sweep(load_per_table(path), UNIT, horizon=5_000, seed=3)
        keys = [(r.snr_db, r.scheme.token, r.mode) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 8  # 4 table keys x 2 modes

    def test_theory_only(self):
        table = single_point_table(make_per_vector([0.2, 0.2]))
        rows = run_sweep(table, UNIT, modes=("theory",), horizon=10, seed=0)
        assert [r.mode for r in rows] == ["theory"] * 3
        assert all(r.seed == 0 and r.ci_halfwidth_ms == 0.0 for r in rows)

    def test_simulation_tracks_theory(self):
        for per in (0.25, 0.5):
            table = single_point_table(make_per_vector([per] * 6))
            rows = run_sweep(table, UNIT, horizon=200_000, seed=5)
            by_key = {(r.scheme, r.mode): r for r in rows}
            for scheme in SchemeKind:
                theory = by_key[(scheme, "theory")].avg_aoc_ms
                sim = by_key[(scheme, "simulation")]
                tol = max(3.0 * sim.ci_halfwidth_ms, 0.01 * theory)
                assert abs(sim.avg_aoc_ms - theory) <= tol

    def test_seed_isolation_between_keys(self):
        # adding another key must not perturb an existing key's rows
        p = make_per_vector([0.3, 0.3])
        small = single_point_table(p, schemes=(SchemeKind.FDMA,), snr_db=4.0)
        big = PerTable({**small.vectors, (8.0, SchemeKind.FDMA): p})
        rows_small = run_sweep(small, UNIT, horizon=20_000, seed=7)
        rows_big = run_sweep(big, UNIT, horizon=20_000, seed=7)
        shared_small = [r for r in rows_small if r.snr_db == 4.0]
        shared_big = [r for r in rows_big if r.snr_db == 4.0]
        assert shared_small == shared_big

    def test_master_seed_changes_run_seeds(self):
        table = single_point_table(make_per_vector([0.3, 0.3]),
                                   schemes=(SchemeKind.FDMA,))
        a = run_sweep(table, UNIT, horizon=5_000, seed=1)
        b = run_sweep(table, UNIT, horizon=5_000, seed=2)
        sim_a = [r for r in a if r.mode == "simulation"][0]
        sim_b = [r for r in b if r.mode == "simulation"][0]
        assert sim_a.seed != sim_b.seed

    @pytest.mark.parametrize("modes", [(), ("theory", "plots"), ("both",)])
    def test_rejects_bad_modes(self, modes):
        table = single_point_table(make_per_vector([0.1]))
        with pytest.raises(ValueError, match="modes"):
            run_sweep(table, UNIT, modes=modes, horizon=10, seed=0)

    def test_names_the_first_unknown_mode_in_order(self):
        table = single_point_table(make_per_vector([0.1]))
        match = r"^unknown modes token 'zz', expected one of theory, simulation$"
        with pytest.raises(ValueError, match=match):
            run_sweep(table, UNIT, modes=("simulation", "zz", "aa"), horizon=10, seed=0)

    def test_rejects_a_bare_string(self):
        # iterating "theory" would report the unknown token 't'
        table = single_point_table(make_per_vector([0.1]))
        match = r"^modes must be a sequence of tokens, got the string 'theory'$"
        with pytest.raises(ValueError, match=match):
            run_sweep(table, UNIT, modes="theory", horizon=10, seed=0)

    def test_propagates_insufficient_collections(self):
        table = single_point_table(make_per_vector([0.95] * 4))
        with pytest.raises(ValueError, match="insufficient collections"):
            run_sweep(table, UNIT, horizon=20, seed=0)

    def test_error_names_its_row(self):
        table = single_point_table(make_per_vector([0.95] * 4),
                                   schemes=(SchemeKind.TDMA_NR,), snr_db=5.0)
        with pytest.raises(ValueError) as info:
            run_sweep(table, UNIT, horizon=20, seed=0)
        assert str(info.value) == \
            "(5.0 dB, tdma-nr): insufficient collections: 0 in horizon 20 slots, need 2"


class TestRunOrderStudy:
    P = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
    ORDERS = [(1, 2, 3, 4, 5, 6), (6, 1, 2, 3, 4, 5), (1, 2, 3, 6, 4, 5)]

    def test_row_structure(self):
        rows = run_order_study(self.P, self.ORDERS, UNIT, horizon=20_000, seed=2)
        assert len(rows) == len(self.ORDERS) * 2 * 2
        assert all(r.order is not None for r in rows)
        assert {r.scheme for r in rows} == {SchemeKind.TDMA_NR, SchemeKind.TDMA_R}
        keys = {(r.scheme, r.mode, r.order) for r in rows}
        assert len(keys) == len(rows)

    def test_weakest_first_minimizes_nr_theory(self):
        rows = run_order_study(self.P, self.ORDERS, UNIT, horizon=1_000, seed=2)
        nr = {r.order: r.avg_aoc_ms for r in rows
              if r.scheme is SchemeKind.TDMA_NR and r.mode == "theory"}
        weakest_first = (6, 1, 2, 3, 4, 5)
        for order, avg in nr.items():
            if order != weakest_first:
                assert nr[weakest_first] < avg

    def test_r_theory_ignores_tail_order(self):
        rows = run_order_study(self.P, self.ORDERS, UNIT, horizon=1_000, seed=2)
        r_theory = {r.order: r.avg_aoc_ms for r in rows
                    if r.scheme is SchemeKind.TDMA_R and r.mode == "theory"}
        assert r_theory[(1, 2, 3, 4, 5, 6)] == r_theory[(1, 2, 3, 6, 4, 5)]

    def test_uniform_per_is_order_blind(self):
        p = make_per_vector([0.2] * 4)
        rows = run_order_study(p, [(1, 2, 3, 4), (4, 3, 2, 1)], UNIT,
                               horizon=1_000, seed=2)
        theory = {(r.scheme, r.order): r.avg_aoc_ms for r in rows if r.mode == "theory"}
        assert theory[(SchemeKind.TDMA_NR, (1, 2, 3, 4))] == \
            theory[(SchemeKind.TDMA_NR, (4, 3, 2, 1))]

    def test_rows_are_the_permuted_rows_with_the_order(self):
        rows = run_order_study(self.P, self.ORDERS, UNIT, horizon=2_000, seed=2)
        want = []
        for order in self.ORDERS:
            seen = self.P.permuted(order)
            label = "-".join(map(str, order))
            for scheme in (SchemeKind.TDMA_NR, SchemeKind.TDMA_R):
                run_seed = _derive_seed(2, "order", label, scheme.token)
                want += [
                    replace(theory_row(0.0, scheme, seen, UNIT), order=order),
                    replace(simulation_row(0.0, scheme, seen, UNIT, 2_000, run_seed),
                            order=order),
                ]
        assert rows == want

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            run_order_study(self.P, [(1, 2, 3)], UNIT, horizon=100, seed=0)
        with pytest.raises(ValueError, match="duplicate order"):
            run_order_study(self.P, [self.ORDERS[0], self.ORDERS[0]], UNIT,
                            horizon=100, seed=0)
        with pytest.raises(ValueError):
            run_order_study(self.P, [], UNIT, horizon=100, seed=0)


    def test_error_names_its_row_and_order(self):
        with pytest.raises(ValueError) as info:
            run_order_study(self.P, [(6, 1, 2, 3, 4, 5)], UNIT, horizon=3, seed=0)
        assert str(info.value) == (
            "(0.0 dB, tdma-nr, order 6-1-2-3-4-5): insufficient collections: "
            "0 in horizon 3 slots, need 2")


class TestSeedCheck:
    """SweepRow, SimConfig and both runners share one 64-bit seed check."""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0, "7"])
    def test_rejected_everywhere_alike(self, seed):
        p = make_per_vector([0.1, 0.2])
        calls = [
            lambda: SweepRow(0.0, SchemeKind.FDMA, "simulation", 1.0, 0.0, seed),
            lambda: SimConfig(SchemeKind.FDMA, p, 10, seed),
            lambda: run_sweep(single_point_table(p), UNIT, modes=("theory",), seed=seed),
            lambda: run_order_study(p, [(1, 2)], UNIT, horizon=10, seed=seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^seed must be a 64-bit unsigned integer"):
                call()

    def test_extreme_seeds_accepted(self):
        p = make_per_vector([0.1, 0.2])
        for seed in (0, 2 ** 64 - 1):
            rows = run_sweep(single_point_table(p, schemes=(SchemeKind.FDMA,)),
                             UNIT, horizon=200, seed=seed)
            assert all(0 <= r.seed < 2 ** 64 for r in rows)


class TestHorizonCheck:
    """SimConfig and both runners share one horizon check, which the
    runners make before any row is built."""

    @pytest.mark.parametrize("horizon,message", [
        (0, "horizon must be >= 1, got 0"),
        (-5, "horizon must be >= 1, got -5"),
        (1.0, "horizon must be an int, got 1.0"),
        (True, "horizon must be an int, got True"),
    ])
    def test_rejected_everywhere_alike(self, horizon, message):
        p = make_per_vector([0.1, 0.2])
        calls = [
            lambda: SimConfig(SchemeKind.FDMA, p, horizon, 0),
            lambda: run_sweep(single_point_table(p), UNIT, modes=("theory",),
                              horizon=horizon),
            lambda: run_order_study(p, [(1, 2)], UNIT, horizon=horizon),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


class TestDefaultOrderPatterns:
    def test_six_devices(self):
        assert default_order_patterns(6) == [
            (1, 2, 3, 4, 5, 6), (6, 1, 2, 3, 4, 5), (1, 2, 3, 6, 4, 5)]

    def test_small_n_deduplicates(self):
        assert default_order_patterns(1) == [(1,)]
        assert default_order_patterns(2) == [(1, 2), (2, 1)]

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            default_order_patterns(0)

    def test_patterns_are_permutations(self):
        for n in range(1, 9):
            for pattern in default_order_patterns(n):
                assert sorted(pattern) == list(range(1, n + 1))


class TestSweepRow:
    def test_theory_rows_pin_seed_and_ci(self):
        with pytest.raises(ValueError):
            SweepRow(0.0, SchemeKind.FDMA, "theory", 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            SweepRow(0.0, SchemeKind.FDMA, "theory", 1.0, 0.0, 5)

    @pytest.mark.parametrize("kw", [
        dict(mode="estimate"),
        dict(avg_aoc_ms=0.0),
        dict(avg_aoc_ms=math.inf),
        dict(ci_halfwidth_ms=-1.0),
        dict(seed=-1),
    ])
    def test_rejects_bad_fields(self, kw):
        base = dict(snr_db=0.0, scheme=SchemeKind.FDMA, mode="simulation",
                    avg_aoc_ms=1.0, ci_halfwidth_ms=0.0, seed=1)
        base.update(kw)
        with pytest.raises(ValueError):
            SweepRow(**base)


class TestEmitRows:
    def test_empty_rows_emit_header_only(self):
        buf = io.StringIO()
        emit_rows([], buf)
        assert buf.getvalue() == "snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n"

    def test_one_row_two_lines(self):
        buf = io.StringIO()
        emit_rows([SweepRow(10.0, SchemeKind.FDMA, "theory", 0.336, 0.0, 0)], buf)
        lines = buf.getvalue().splitlines()
        assert lines == [
            "snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed",
            "10.0,fdma,theory,0.336,0.0,0",
        ]
        assert buf.getvalue().endswith("\n")

    def test_six_significant_digits(self):
        row = SweepRow(0.0, SchemeKind.TDMA_NR, "simulation",
                       1.8199999999999998, 0.0123456789, 3)
        buf = io.StringIO()
        emit_rows([row], buf)
        assert buf.getvalue().splitlines()[1] == "0.0,tdma-nr,simulation,1.82,0.0123457,3"

    def test_order_column_when_present(self):
        rows = [SweepRow(0.0, SchemeKind.TDMA_R, "theory", 1.0, 0.0, 0,
                         order=(2, 1))]
        buf = io.StringIO()
        emit_rows(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].endswith(",order")
        assert lines[1].endswith(",2-1")

    def test_round_trip_to_six_digits(self, tmp_path):
        table = single_point_table(make_per_vector([0.3] * 4))
        rows = run_sweep(table, REF_TIMING, horizon=30_000, seed=13)
        path = tmp_path / "out.csv"
        emit_rows(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            snr, token, mode, avg, ci, seed = line.split(",")
            assert float(snr) == row.snr_db
            assert token == row.scheme.token
            assert mode == row.mode
            assert float(avg) == pytest.approx(row.avg_aoc_ms, rel=5e-6)
            assert float(ci) == pytest.approx(row.ci_halfwidth_ms, rel=5e-6, abs=1e-12)
            assert int(seed) == row.seed

    def test_emit_to_stdout(self, capsys):
        emit_rows([SweepRow(0.0, SchemeKind.FDMA, "theory", 0.5, 0.0, 0)])
        out = capsys.readouterr().out
        assert out.startswith("snr_db,")
        assert out.endswith("0.0,fdma,theory,0.5,0.0,0\n")

    def test_byte_identical_for_identical_rows(self, tmp_path):
        table = single_point_table(make_per_vector([0.25] * 3))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_rows(run_sweep(table, UNIT, horizon=20_000, seed=11), out1)
        emit_rows(run_sweep(table, UNIT, horizon=20_000, seed=11), out2)
        assert out1.read_bytes() == out2.read_bytes()


class TestEmitCsv:
    def test_strings_as_given_numbers_formatted(self):
        buf = io.StringIO()
        emit_csv(("name", "value"), [("a", 0.0123456789), ("7", 10), ("c", math.inf)], buf)
        assert buf.getvalue() == "name,value\na,0.0123457\n7,10.0\nc,inf\n"

    def test_path_and_stdout_match(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        emit_csv(("q",), [(0.104,)], path)
        emit_csv(("q",), [(0.104,)])
        assert path.read_text(encoding="utf-8") == capsys.readouterr().out == "q\n0.104\n"


class TestFmt:
    def test_matches_numpy_positional(self):
        # numpy's fixed-precision positional format is the reference the
        # CSV bytes were first written with; sweep itself does not use numpy
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2**64, 9000, dtype=np.uint64).view(np.float64)
        logs = 10.0 ** rng.uniform(-8.0, 12.0, 8000) * rng.choice([-1.0, 1.0], 8000)
        # exact ties at the sixth digit: 7 significant digits ending in 5
        ties = [
            (1_000_005 + 10 * rng.integers(0, 900_000, 2000)) * 10.0 ** rng.integers(0, 9, 2000),
            rng.integers(100_000, 1_000_000, 1000) + 0.5,
            rng.integers(10_000, 100_000, 1000) + rng.choice([0.25, 0.75], 1000),
            rng.integers(1_000, 10_000, 1000) + rng.choice([0.125, 0.375, 0.625, 0.875], 1000),
        ]
        edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                 math.inf, -math.inf]
        values = [float(v) for v in itertools.chain(bits[np.isfinite(bits)], logs, *ties)]
        values += edges
        assert len(values) >= 20_000
        for value in values:
            want = np.format_float_positional(value, precision=6, unique=False,
                                              fractional=False, trim="0")
            assert _fmt(value) == want, value
