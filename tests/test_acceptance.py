"""Acceptance gate: one test per release criterion.

Each test prints a single "[acceptance] criterion k (...): PASS/FAIL" line
on the real stdout (bypassing capture) so a test-log scan shows the
verdict per criterion, and enforces the criterion's runtime budget.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from aockit.analysis import (
    avg_aoc_ms,
    fdma_avg_aoc_rounds,
    tdma_nr_avg_aoc_slots,
    tdma_nr_moments,
    tdma_r_avg_aoc_slots,
    tdma_r_moments,
)
from aockit.domain import SchemeKind, TimingModel, make_per_vector
from aockit.sim import SimConfig, simulate, simulate_ms
from aockit.sweep import default_order_patterns
from aockit.timing import (
    PhyProfile,
    ack_duration_ms,
    fdma_round_ms,
    idealized_timing,
    status_duration_ms,
    tdma_slot_ms,
)

REF_TIMING = TimingModel(tdma_slot_ms=0.104, fdma_round_ms=0.224)


def _pass(num: int, name: str, t0: float, limit_s: float, cap) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, (
        f"criterion {num} runtime {elapsed:.1f} s exceeds the {limit_s:.0f} s budget"
    )
    with cap.disabled():
        print(f"\n[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f} s)",
              flush=True)


def _fail(num: int, name: str, t0: float, cap) -> None:
    elapsed = time.perf_counter() - t0
    with cap.disabled():
        print(f"\n[acceptance] criterion {num} ({name}): FAIL ({elapsed:.2f} s)",
              flush=True)


def test_criterion_1_timing_constants(capfd):
    t0 = time.perf_counter()
    try:
        tdma = PhyProfile()
        fdma = PhyProfile(num_devices=6).fdma_split()
        for got, want in [
            (status_duration_ms(tdma), 0.048),
            (ack_duration_ms(tdma), 0.024),
            (tdma_slot_ms(tdma), 0.104),
            (fdma_round_ms(fdma), 0.224),
        ]:
            assert abs(got - want) <= 1e-12 * want, f"{got} != {want}"
        _pass(1, "timing constants", t0, 5.0, capfd)
    except BaseException:
        _fail(1, "timing constants", t0, capfd)
        raise


def test_criterion_2_zero_loss_closed_form(capfd):
    t0 = time.perf_counter()
    try:
        for n in range(1, 9):
            p0 = make_per_vector([0.0] * n)
            ideal = idealized_timing(n, 1.0)
            want = 1.5 * n
            assert tdma_nr_avg_aoc_slots(p0) == want
            assert tdma_r_avg_aoc_slots(p0) == want
            assert avg_aoc_ms(SchemeKind.FDMA, p0, ideal) == want
            for scheme in (SchemeKind.TDMA_NR, SchemeKind.TDMA_R):
                res = simulate(SimConfig(scheme, p0, 1_000, n))
                assert res.avg_aoc == want, (scheme, n, res.avg_aoc)
                assert res.ci_halfwidth == 0.0
            fd = simulate_ms(SimConfig(SchemeKind.FDMA, p0, 1_000, n), ideal)
            assert fd.avg_aoc == want, (n, fd.avg_aoc)
        _pass(2, "zero-loss closed form", t0, 1.0, capfd)
    except BaseException:
        _fail(2, "zero-loss closed form", t0, capfd)
        raise


def test_criterion_3_theory_equals_simulation(capfd):
    t0 = time.perf_counter()
    try:
        horizon = 1_000_000
        for per in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            p = make_per_vector([per] * 6)
            theory = {
                SchemeKind.TDMA_NR: tdma_nr_avg_aoc_slots(p),
                SchemeKind.TDMA_R: tdma_r_avg_aoc_slots(p),
                SchemeKind.FDMA: fdma_avg_aoc_rounds(p),
            }
            for scheme, ref in theory.items():
                res = simulate(SimConfig(scheme, p, horizon, 42))
                tol = max(3.0 * res.ci_halfwidth, 0.01 * ref)
                assert abs(res.avg_aoc - ref) <= tol, (
                    f"{scheme.token} p={per}: sim {res.avg_aoc} vs theory {ref}, "
                    f"tol {tol}"
                )
        _pass(3, "theory = simulation grid", t0, 60.0, capfd)
    except BaseException:
        _fail(3, "theory = simulation grid", t0, capfd)
        raise


def _mc_hitting_samples(probs, start, episodes, seed, retransmit):
    """Monte Carlo hitting-time samples by direct chain stepping.

    Implemented here, on raw numpy, precisely so the oracle shares no code
    with the analysis or simulation modules.
    """
    rng = np.random.default_rng(seed)
    p = np.asarray(probs, dtype=float)
    n = p.size
    pos = np.full(episodes, start, dtype=np.int8)
    t = np.zeros(episodes, dtype=np.int32)
    idx = np.arange(episodes, dtype=np.int32)
    out = np.zeros(episodes, dtype=np.int32)
    while idx.size:
        ok = rng.random(idx.size) >= p[pos]
        t += 1
        if retransmit:
            pos = np.where(ok, pos + 1, pos).astype(np.int8)
        else:
            pos = np.where(ok, pos + 1, 0).astype(np.int8)
        done = pos == n
        if done.any():
            out[idx[done]] = t[done]
            keep = ~done
            idx, pos, t = idx[keep], pos[keep], t[keep]
    return out


def _mc_confirm(samples, mean_ref, second_ref, label):
    x = samples.astype(np.float64)
    k = x.size
    m1 = float(x.mean())
    se1 = float(x.std(ddof=1)) / math.sqrt(k)
    assert abs(m1 - mean_ref) <= 3.0 * se1, (
        f"{label}: MC mean {m1} vs {mean_ref} (3se = {3 * se1:.4g})"
    )
    if second_ref is not None:
        sq = x * x
        m2 = float(sq.mean())
        se2 = float(sq.std(ddof=1)) / math.sqrt(k)
        assert abs(m2 - second_ref) <= 3.0 * se2, (
            f"{label}: MC second moment {m2} vs {second_ref} (3se = {3 * se2:.4g})"
        )


def test_criterion_4_hand_derived_oracles(capfd):
    t0 = time.perf_counter()
    try:
        episodes = 10_000_000
        p = make_per_vector([0.5, 0.5])

        nr = tdma_nr_moments(p)
        assert nr.first == pytest.approx((6.0, 4.0), rel=1e-12)
        assert nr.second_t1 == pytest.approx(58.0, rel=1e-12)
        assert tdma_nr_avg_aoc_slots(p) == pytest.approx(2.0 + 58.0 / 12.0, rel=1e-12)
        _mc_confirm(_mc_hitting_samples((0.5, 0.5), 0, episodes, 1001, False),
                    6.0, 58.0, "TDMA-NR from state 1")
        _mc_confirm(_mc_hitting_samples((0.5, 0.5), 1, episodes, 1002, False),
                    4.0, None, "TDMA-NR from state 2")

        r = tdma_r_moments(p)
        assert r.first == (4.0, 2.0)
        assert r.first[1] == 2.0
        assert r.second_t1 == 20.0
        assert tdma_r_avg_aoc_slots(p) == pytest.approx(5.5, rel=1e-12)
        _mc_confirm(_mc_hitting_samples((0.5, 0.5), 0, episodes, 1003, True),
                    4.0, 20.0, "TDMA-R from state 1")
        _mc_confirm(_mc_hitting_samples((0.5, 0.5), 1, episodes, 1004, True),
                    2.0, None, "TDMA-R from state 2")

        assert fdma_avg_aoc_rounds(p) == pytest.approx(4.5, rel=1e-12)
        rng = np.random.default_rng(1005)
        d = rng.geometric(0.25, size=episodes).astype(np.float64)
        batches = d.reshape(100, -1)
        ratios = 1.0 + np.mean(batches * batches, axis=1) / (2.0 * np.mean(batches, axis=1))
        est = float(np.mean(ratios))
        se = float(np.std(ratios, ddof=1)) / math.sqrt(ratios.size)
        assert abs(est - 4.5) <= 3.0 * se, f"FDMA: MC {est} vs 4.5 (3se = {3 * se:.4g})"

        _pass(4, "hand-derived oracles vs Monte Carlo", t0, 30.0, capfd)
    except BaseException:
        _fail(4, "hand-derived oracles vs Monte Carlo", t0, capfd)
        raise


def test_criterion_5_scheme_ordering(capfd):
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            p = make_per_vector(rng.uniform(0.0, 0.9, size=n))
            r = tdma_r_avg_aoc_slots(p)
            nr = tdma_nr_avg_aoc_slots(p)
            assert r <= nr * (1.0 + 1e-12) + 1e-12, (p.probs, r, nr)

        p0 = make_per_vector([0.0] * 6)
        fd0 = avg_aoc_ms(SchemeKind.FDMA, p0, REF_TIMING)
        td0 = avg_aoc_ms(SchemeKind.TDMA_R, p0, REF_TIMING)
        assert fd0 == pytest.approx(0.336, rel=1e-12)
        assert td0 == pytest.approx(0.936, rel=1e-12)
        assert fd0 < td0 and fd0 / td0 < 0.5

        p5 = make_per_vector([0.5] * 6)
        td5 = avg_aoc_ms(SchemeKind.TDMA_R, p5, REF_TIMING)
        fd5 = avg_aoc_ms(SchemeKind.FDMA, p5, REF_TIMING)
        assert td5 == pytest.approx(1.82, rel=1e-9)
        assert fd5 == pytest.approx(14.448, rel=1e-9)
        assert td5 < fd5

        _pass(5, "scheme ordering", t0, 5.0, capfd)
    except BaseException:
        _fail(5, "scheme ordering", t0, capfd)
        raise


def test_criterion_6_order_study(capfd):
    t0 = time.perf_counter()
    try:
        p = make_per_vector([0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        patterns = default_order_patterns(6)
        assert patterns == [(1, 2, 3, 4, 5, 6), (6, 1, 2, 3, 4, 5), (1, 2, 3, 6, 4, 5)]
        weakest_first = patterns[1]  # device 6 carries the largest PER

        nr = {o: tdma_nr_avg_aoc_slots(p.permuted(o)) for o in patterns}
        for order, avg in nr.items():
            if order != weakest_first:
                assert nr[weakest_first] < avg, (order, avg, nr[weakest_first])

        r_first = tdma_r_avg_aoc_slots(p.permuted(patterns[0]))
        r_third = tdma_r_avg_aoc_slots(p.permuted(patterns[2]))
        assert r_first == r_third  # exact equality, not approximate

        _pass(6, "order study", t0, 1.0, capfd)
    except BaseException:
        _fail(6, "order study", t0, capfd)
        raise


def test_criterion_7_determinism(tmp_path, capfd):
    t0 = time.perf_counter()
    try:
        table = tmp_path / "per.csv"
        lines = ["snr_db,scheme,device_id,per"]
        for snr, base in ((10, 0.3), (14, 0.1)):
            for scheme in ("tdma", "fdma"):
                lines.append(f"{snr},{scheme},1,{base}")
                lines.append(f"{snr},{scheme},2,{base + 0.05}")
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "aockit.cli", "sweep",
                 "--per-table", str(table), "--horizon", "50000",
                 "--seed", "2718", "--out", str(out)],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"snr_db,scheme,mode,avg_aoc_ms,ci_halfwidth_ms,seed\n")
        _pass(7, "end-to-end determinism", t0, 60.0, capfd)
    except BaseException:
        _fail(7, "end-to-end determinism", t0, capfd)
        raise
