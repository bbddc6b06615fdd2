"""Committed mutation checks: the tests must catch each listed bug.

Each row of MUTANTS is a one-place edit of the package: a file, its exact
old text, the new text, the pytest selection that must catch it, and why.
The script copies the repository, without .git, to a temporary directory
and runs every selection there once unmutated, where it must pass.  Then
it applies each edit in turn, runs the mutant's selection with -x, and
undoes the edit.  A mutant is killed when its selection fails.  Rows with
survives=True are equivalent mutants, such as a fork that only changes
speed; their selection must still pass, so a fork that becomes
observable is flagged.  A mutant's old text must occur exactly once in
its file, so a refactor that moves the text stops this script until the
row is updated.

    python tests/mutants.py

Exit status 0 when every row behaves as listed, 1 otherwise.  The file
name keeps it out of pytest's collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str            # relative to the repository root
    old: str
    new: str
    selection: tuple[str, ...]
    reason: str
    survives: bool = False


SIM = "src/aockit/sim.py"
ANALYSIS = "src/aockit/analysis.py"
SWEEP = "src/aockit/sweep.py"
SWEEP_ROWS = ("tests/test_sweep.py::TestRunSweep", "tests/test_sweep.py::TestRunOrderStudy")

MUTANTS = (
    Mutant("TDMA-R ages +1", SIM,
           "    ages = e - g[:e.size]\n",
           "    ages = e - g[:e.size] + 1\n",
           ("tests/test_sim.py::TestTraceProperties",),
           "a lossless TDMA-R cycle resets the age to exactly N"),
    Mutant("TDMA-NR reset age N - 1", SIM,
           "np.full(ends.size, float(n))",
           "np.full(ends.size, float(n - 1))",
           ("tests/test_sim.py::TestTraceProperties",),
           "every TDMA-NR collection resets the age to N"),
    Mutant("TDMA-R carried generation slot off by one", SIM,
           "(count, gen - u.size)",
           "(count, gen - u.size + 1)",
           ("tests/test_sim.py::TestDrawConvention::test_tdma_r_cycle_across_chunks",),
           "a TDMA-R cycle that spans chunks keeps its generation slot"),
    Mutant("TDMA-R rows through the TDMA-NR step", SIM,
           '    SchemeKind.TDMA_R: (_step_tdma_r, "slots"),\n',
           '    SchemeKind.TDMA_R: (_step_tdma_nr, "slots"),\n',
           ("tests/test_sim.py::TestTraceProperties",),
           "a TDMA-R retransmission carries the reset age above N; TDMA-NR's is N"),
    Mutant("_MIN_CYCLES = 20", SIM,
           "_MIN_CYCLES = 200    #",
           "_MIN_CYCLES = 20    #",
           ("tests/test_sim.py::TestQuantile::test_floor_keeps_df_in_checked_range",),
           "the quantile's expansion is checked from 20 degrees of freedom up"),
    Mutant("normal quantile rounded to 1.96", SIM,
           "    x = 1.959963984540054\n",
           "    x = 1.96\n",
           ("tests/test_sim_golden.py",),
           "every finite half-width scales with the quantile; TestQuantile "
           "compares it with scipy only where scipy is installed"),
    Mutant("quantile's fourth term dropped", SIM,
           "(g3 + g4 / df)",
           "(g3 + 0.0)",
           ("tests/test_sim_golden.py",),
           "the four-term expansion is pinned to the bit in every finite half-width"),
    Mutant("CI lag-1 term dropped", SIM,
           '    s = s0 + 2.0 * float(np.einsum("i,i", z[:-1], z[1:]))\n',
           "    s = s0\n",
           ("tests/test_sim.py::TestCoverage",),
           "successive cycle residuals are correlated, and the interval must "
           "count that to cover"),
    Mutant("_SCALE = 1.0", ANALYSIS,
           "_SCALE = 2.0 ** 64\n",
           "_SCALE = 1.0\n",
           ("tests/test_analysis.py::TestSurvival",),
           "a survival product below 2**-1022 loses bits without the scale"),
    Mutant("plain B at every N", ANALYSIS,
           "if n < _EXACT_EXCESS_N or 2.0 * n * q <= s_a:",
           "if True:",
           ("tests/test_analysis.py::TestSmallPers",),
           "at many devices with tiny PERs, A - N Q loses the excess over N"),
    Mutant("_over without its zero guard", ANALYSIS,
           "    return x / q if q else math.inf\n",
           "    return x / q\n",
           ("tests/test_analysis.py::TestFloatRange", "tests/test_analysis.py::TestFdma"),
           "an underflowed product is an average beyond float range, not a "
           "ZeroDivisionError"),
    Mutant("T_1 = A/Q", ANALYSIS,
           "    t1 = p.n + _over(s_b, q)\n",
           "    t1 = _over(s_a, q)\n",
           ("tests/test_analysis.py::TestSmallPers",),
           "T_1 = N + B/Q keeps the excess over N that A/Q rounds away"),
    Mutant("E[T_1^2] off by a relative 2**-40", ANALYSIS,
           "    second_t1 = _over(s_a + 2.0 * s_w + 2.0 * s_b * t1, q)\n",
           "    second_t1 = _over(s_a + 2.0 * s_w + 2.0 * s_b * t1, q) * (1.0 + 2.0 ** -40)\n",
           ("tests/test_analysis.py::TestTdmaNrMoments",),
           "at zero loss E[T_1^2] = N^2 exactly, and test_zero_loss pins it to "
           "the bit"),
    Mutant("R_i = 1 - Q/P_{i-1}", ANALYSIS,
           "    fails = list(accumulate(map(mul, reversed(probs), reversed(prefix))))\n",
           "    fails = [pm - q for pm in reversed(prefix)]\n",
           ("tests/test_analysis.py::TestUlpBound::"
            "test_nr_first_moments_after_a_lossy_first_device",),
           "after a lossy first device, P_{i-1} - Q cancels; the sum of p_k P_{k-1} "
           "does not"),
    Mutant("order dropped from simulation rows", SWEEP,
           "result.ci_halfwidth, seed, order))",
           "result.ci_halfwidth, seed))",
           SWEEP_ROWS,
           "both rows of an order study carry the order"),
    Mutant("order-study seeds derived with the sweep tag", SWEEP,
           '_derive_seed(seed, "order", label, scheme.token)',
           '_derive_seed(seed, "sweep", label, scheme.token)',
           SWEEP_ROWS,
           "order-study seeds are their own stream"),
    Mutant("row key prefix removed", SWEEP,
           'raise ValueError(f"({key}): {exc}") from exc',
           "raise",
           SWEEP_ROWS,
           "a row's error names its key"),
    Mutant("FDMA row-wise test at every N", SIM,
           "    if n < _FDMA_ROWS:\n",
           "    if False:\n",
           ("tests/test_sim.py", "tests/test_sim_golden.py", "-k", "fdma"),
           "the fork only chooses the faster of two equal success tests",
           survives=True),
)

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".benchmarks", "*.egg-info")


def _pytest(copy: Path, selection, env) -> tuple[int, float]:
    # a fresh example database per run, so no run replays another's failures
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode, time.perf_counter() - start


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            print(f"{m.name}: old text occurs {found} times in {m.path}, expected once")
            return 1
    ok = True
    with tempfile.TemporaryDirectory(prefix="aockit-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        # the copy's package, not an installed one, and no stale bytecode
        # when an edit keeps a file's size and mtime
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import aockit; print(aockit.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            print(f"aockit imports from {where.stdout.strip() or where.stderr}, not the copy")
            return 1
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            code, took = _pytest(copy, selection, env)
            print(f"unmutated  {'pass' if code == 0 else 'FAIL'}  {took:5.1f} s  "
                  f"{' '.join(selection)}")
            ok &= code == 0
        if not ok:
            return 1
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                code, took = _pytest(copy, m.selection, env)
            finally:
                target.write_text(original, encoding="utf-8")
            if m.survives:
                verdict, good = ("survived", code == 0)
            else:
                verdict, good = ("killed", code == 1)
            if not good:
                verdict = f"UNEXPECTED (pytest exit {code})"
            print(f"{verdict:9}  {took:5.1f} s  {m.name}: {m.reason}")
            ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
