#!/usr/bin/env python3
"""aockit benchmark: one closed-loop caller per workload, answers checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is cli-sweep, sweep-long, theory-scale, or all (each in turn).  The run
builds its inputs from --seed, sets up, computes the expected answers,
warms up with one untimed operation, then calls the program one operation at a
time, each call waiting for the last, for S seconds.  It prints a readable
summary and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  A full record (run
metadata, extra figures, and with --trace 1 every span) is written under
perfbench/out/.

Every process the benchmark starts, itself included, runs with one BLAS
and OpenMP thread, so that a run uses one core of the host.

Exit status: 0 when every answer is right, 1 when an answer is wrong,
and nonzero without a result line when the aockit sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# before numpy is first imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(ROOT))
from perfbench import metrics, tracing, workloads  # noqa: E402

# a simulation row may sit this many CI half-widths from its theory row
CI_WIDTHS = 6.0
# relative agreement between a theory value and the oracle
ORACLE_REL_TOL = 1e-9
SETUP_SAMPLES = 3
PROBE_REPS = 3

# metric names and units, as declared to whoever runs the benchmark
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class Incorrect(Exception):
    """The program gave a wrong answer."""


class OpFailed(Exception):
    """The program refused an operation (nonzero exit)."""


def load_aockit():
    init = SRC / "aockit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: aockit sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import aockit

    if Path(aockit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported aockit from {aockit.__file__}, not {init}")
    import aockit.analysis
    import aockit.cli
    import aockit.sweep


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# the console script `aockit` is exactly this entry point
CLI_PREFIX = ("-c", "import sys; from aockit.cli import main; sys.exit(main())")


def oracle_ms(token: str, probs, timing) -> float:
    from perfbench import oracle

    unit = timing.fdma_round_ms if token == "fdma" else timing.tdma_slot_ms
    return oracle.avg_aoc_units(token, probs) * unit


def check_rows(rows, timing, table) -> None:
    """Theory rows against the oracle; simulation rows against theory."""
    theory = {}
    for row in rows:
        if row.mode != "theory":
            continue
        want = oracle_ms(row.scheme.token, table.vector(row.snr_db, row.scheme).probs,
                         timing)
        if not math.isclose(row.avg_aoc_ms, want, rel_tol=ORACLE_REL_TOL):
            raise Incorrect(f"theory {row.scheme.token} at {row.snr_db} dB: "
                            f"{row.avg_aoc_ms!r} != oracle {want!r}")
        theory[(row.snr_db, row.scheme)] = row.avg_aoc_ms
    for row in rows:
        if row.mode != "simulation":
            continue
        want = theory[(row.snr_db, row.scheme)]
        slack = CI_WIDTHS * row.ci_halfwidth_ms + ORACLE_REL_TOL * want
        if not abs(row.avg_aoc_ms - want) <= slack:
            raise Incorrect(f"simulation {row.scheme.token} at {row.snr_db} dB: "
                            f"{row.avg_aoc_ms!r} is more than {CI_WIDTHS} CI "
                            f"half-widths ({row.ci_halfwidth_ms!r}) from {want!r}")


def write_table(rows, path: Path):
    from aockit.sweep import load_per_table

    path.write_text(workloads.table_csv(rows), encoding="utf-8")
    return load_per_table(path)


class CliSweep:
    """Fresh `aockit sweep` process per operation; start-up dominates."""

    name = "cli-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def units_per_op(self) -> int:
        return len(self.table.keys()) * workloads.CLI_HORIZON

    def setup(self) -> None:
        per_rows, self.sim_seed = workloads.cli_sweep_inputs(self.seed)
        path = self.workdir / "cli-sweep-table.csv"
        self.table = write_table(per_rows, path)
        self.argv = ["sweep", "--per-table", str(path),
                     "--horizon", str(workloads.CLI_HORIZON), "--seed", str(self.sim_seed)]

    def prepare(self) -> None:
        from aockit.sweep import MODES, emit_rows, run_sweep
        from aockit.timing import default_timing

        timing = default_timing()
        rows = run_sweep(self.table, timing, modes=MODES,
                         horizon=workloads.CLI_HORIZON, seed=self.sim_seed)
        check_rows(rows, timing, self.table)
        buf = io.StringIO()
        emit_rows(rows, buf)
        self.expected = buf.getvalue().encode("utf-8")

    def run_process(self) -> bytes:
        proc = subprocess.run([sys.executable, *CLI_PREFIX, *self.argv],
                              cwd=ROOT, env=child_env(), capture_output=True)
        if proc.returncode != 0:
            raise OpFailed(proc.stderr.decode("utf-8", "replace").strip())
        return proc.stdout

    def run_main(self, tracer=None) -> bytes:
        import aockit.cli

        def main():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = aockit.cli.main(self.argv)
            if code != 0:
                raise OpFailed(f"cli.main returned {code}")
            return buf.getvalue().encode("utf-8")

        if tracer is None:
            return main()
        return tracer.call("cli.main", main,
                           attrs_of=lambda a, k, out: {"bytes": len(out or b"")})

    def ops(self):
        return [self.run_process]

    def traced_ops(self, tracer):
        return [lambda: self.run_main(tracer)]

    def check(self, index: int, result: bytes) -> None:
        if result != self.expected:
            raise Incorrect("aockit sweep stdout differs from in-process "
                            "emit_rows(run_sweep(...))")


class SweepLong:
    """In-process run_sweep at a long horizon; the slot loops dominate."""

    name = "sweep-long"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    @property
    def units_per_op(self) -> int:
        return len(self.table.keys()) * workloads.LONG_HORIZON

    def setup(self) -> None:
        from aockit.sweep import MODES
        from aockit.timing import default_timing

        per_rows, self.sim_seed = workloads.sweep_long_inputs(self.seed)
        self.table = write_table(per_rows, self.workdir / "sweep-long-table.csv")
        self.timing = default_timing()
        self.modes = MODES

    def prepare(self) -> None:
        self.expected = self.run()
        check_rows(self.expected, self.timing, self.table)

    def run(self):
        import aockit.sweep

        return aockit.sweep.run_sweep(self.table, self.timing, modes=self.modes,
                                      horizon=workloads.LONG_HORIZON, seed=self.sim_seed)

    def ops(self):
        return [self.run]

    def traced_ops(self, tracer):
        return self.ops()

    def check(self, index: int, rows) -> None:
        if rows != self.expected:
            raise Incorrect("repeated run_sweep call returned different rows")


class TheoryScale:
    """One scan per operation: avg_aoc_ms under all three schemes at every N
    of the grid 2..256; closed forms only."""

    name = "theory-scale"
    units_per_op = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        from aockit.timing import default_timing

        self.timing = default_timing()
        self.inputs = workloads.theory_scale_inputs(self.seed)
        self.scans = [bind_calls(calls) for calls in self.inputs]

    def prepare(self) -> None:
        self.expected = [[oracle_ms(token, probs, self.timing) for token, probs in calls]
                         for calls in self.inputs]

    def ops(self):
        import aockit.analysis

        def bind(calls):
            # the name is looked up per call, so a traced pass sees the wrapper
            def scan():
                return [aockit.analysis.avg_aoc_ms(scheme, p, self.timing)
                        for scheme, p in calls]
            return scan

        return [bind(calls) for calls in self.scans]

    def traced_ops(self, tracer):
        return self.ops()

    def check(self, index: int, values: list) -> None:
        for (scheme, p), value, want in zip(self.scans[index], values,
                                            self.expected[index]):
            check_value(scheme, p, value, want)


def bind_calls(calls):
    """(scheme token, probs) pairs as aockit (SchemeKind, PerVector) pairs."""
    from aockit.domain import SchemeKind, make_per_vector

    return [(SchemeKind.from_token(token), make_per_vector(probs))
            for token, probs in calls]


def check_value(scheme, p, value: float, want: float) -> None:
    if not math.isclose(value, want, rel_tol=ORACLE_REL_TOL):
        raise Incorrect(f"{scheme.token} at N={p.n}: {value!r} != oracle {want!r}")


def run_defect_grid(seed: int, timing) -> dict:
    """One pass over the defect grid (PER < 0.2 at every N, where TDMA-NR
    gives up at large N), outside any timed loop.  Calls that return are
    checked against the oracle; calls that raise ValueError are counted
    per scheme.  The result does not depend on how fast the host is."""
    import aockit.analysis

    inputs = workloads.defect_grid_inputs(seed)
    failed = dict.fromkeys(workloads.SCHEMES, 0)
    failed_n = set()
    for (token, probs), (scheme, p) in zip(inputs, bind_calls(inputs)):
        try:
            value = aockit.analysis.avg_aoc_ms(scheme, p, timing)
        except ValueError:
            failed[token] += 1
            failed_n.add(p.n)
            continue
        check_value(scheme, p, value, oracle_ms(token, probs, timing))
    return {"calls": len(inputs), "failed": sum(failed.values()),
            "failed_by_scheme": failed, "failed_n": sorted(failed_n)}


CLASSES = {cls.name: cls for cls in (CliSweep, SweepLong, TheoryScale)}


class Loop:
    """Closed loop over whole passes of a workload's operations.

    Each operation is timed alone; answers are checked after the pass, so
    checking never counts toward the timed phase.
    """

    def __init__(self):
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.passes = 0
        self.traced_passes = 0

    def run_pass(self, work, ops, tracer=None) -> None:
        results = []
        start = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                result, ok = op(), True
            except (ValueError, OpFailed):
                result, ok = None, False
            t1 = time.perf_counter()
            (self.traced_times if tracer is not None else self.times).append(t1 - t0)
            results.append((index, result, ok))
        self.busy += time.perf_counter() - start
        self.passes += 1
        self.traced_passes += tracer is not None
        for index, result, ok in results:
            self.attempted += 1
            if ok:
                work.check(index, result)
            else:
                self.failed += 1


def warm_up(work) -> None:
    """One untimed, checked operation: page cache, bytecode and lazy imports."""
    Loop().run_pass(work, work.ops()[:1])


def run_untraced(work, seconds: float) -> Loop:
    loop = Loop()
    ops = work.ops()
    while loop.busy < seconds or len(loop.times) <= metrics.TAIL_BEYOND:
        loop.run_pass(work, ops)
    return loop


def run_traced(work, seconds: float, tracer) -> Loop:
    """Alternate untraced and traced passes, so the two share conditions."""
    loop = Loop()
    plain, traced = work.traced_ops(None), work.traced_ops(tracer)
    while loop.busy < seconds or loop.traced_passes < 2:
        if loop.passes % 2 == 0:
            loop.run_pass(work, plain)
        else:
            uninstall = tracing.install(tracer)
            try:
                loop.run_pass(work, traced, tracer)
            finally:
                uninstall()
    return loop


def setup_only(workload: str, seed: int) -> int:
    workdir = make_workdir()
    try:
        load_aockit()
        CLASSES[workload](seed, workdir).setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh processes timed from spawn until the program is set up: the
    interpreter, the aockit imports, the inputs and the PER tables.  The
    expected answers and the warm-up pass are the benchmark's own work and
    come after this point."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup of {workload} failed with status {code}")
        samples.append(t1 - t0)
    return samples


# ---------------------------------------------------------------- probes

# the CLI entry point with the time and module count of its import written
# to stderr; stdout is untouched, so the answer is still checked
CLI_PROBE = ("-c", "import sys, time; before = len(sys.modules); "
             "t = time.perf_counter(); from aockit.cli import main; "
             "t = time.perf_counter() - t; "
             "print(t * 1e3, len(sys.modules) - before, file=sys.stderr); "
             "sys.exit(main())")


def probe_startup(cli: CliSweep) -> dict:
    """Fresh processes: a bare interpreter, then instrumented CLI calls for
    import time, modules loaded and CPU per call (RUSAGE_CHILDREN)."""
    env = child_env()
    interp = []
    for _ in range(PROBE_REPS + 2):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interp.append((time.perf_counter() - t0) * 1e3)
    imports, modules, cpu = [], [], []
    for _ in range(PROBE_REPS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, *CLI_PROBE, *cli.argv], env=env,
                              cwd=ROOT, capture_output=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise OpFailed(proc.stderr.decode("utf-8", "replace").strip())
        cli.check(0, proc.stdout)
        import_ms, count = proc.stderr.split()[:2]
        imports.append(float(import_ms))
        modules.append(int(count))
        cpu.append((after.ru_utime + after.ru_stime
                    - before.ru_utime - before.ru_stime) * 1e3)
    return {"startup.interp_ms": statistics.median(interp),
            "startup.import_ms": statistics.median(imports),
            "startup.modules": statistics.median(modules),
            "startup.cpu_ms": statistics.median(cpu)}


def probe_spans(workload: str, seed: int, cli: CliSweep) -> tuple[list, int]:
    """Spans for layers the workload itself never enters, from fixed probes:
    warm in-process cli.main on the cli-sweep argv, the first theory-scale
    scan (N = 2..256 under all three schemes), and default_timing."""
    import aockit.timing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    passes = 0
    try:
        if workload != "cli-sweep":
            for _ in range(PROBE_REPS):
                tracer.op += 1
                cli.check(0, cli.run_main(tracer))
                passes += 1
        if workload != "theory-scale":
            theory = TheoryScale(seed, cli.workdir)
            theory.setup()
            tracer.op += 1
            theory.ops()[0]()
        for _ in range(200):
            tracer.op += 1
            aockit.timing.default_timing()
    finally:
        uninstall()
    return tracer.spans, passes


def draw_floor_ns(units: int) -> float:
    """numpy-only cost of the uniforms the slot loops draw, per unit."""
    import numpy as np

    units = int(units) or 1_000_000
    chunk = 1 << 16
    samples = []
    for rep in range(PROBE_REPS):
        rng = np.random.Generator(np.random.PCG64(rep))
        t0 = time.perf_counter()
        left = units
        while left > 0:
            m = min(chunk, left)
            rng.random(m).tolist()
            left -= m
        samples.append((time.perf_counter() - t0) / units * 1e9)
    return statistics.median(samples)


# ---------------------------------------------------------------- reporting

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_metadata(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": package_version("numpy"),
        "scipy": package_version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def result_line(correct: bool, loop: Loop, values: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    })


def make_workdir() -> Path:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_one(args) -> int:
    meta = run_metadata(args)
    load_aockit()
    workdir = make_workdir()
    record = {"meta": meta}
    try:
        setups = [] if args.trace else setup_seconds(args.workload, args.seed)
        work = CLASSES[args.workload](args.seed, workdir)
        correct, loop, error, defect = True, Loop(), None, None
        try:
            work.setup()
            work.prepare()
            warm_up(work)
            if args.trace:
                tracer = tracing.Tracer()
                loop = run_traced(work, args.seconds, tracer)
            else:
                loop = run_untraced(work, args.seconds)
            if args.trace or isinstance(work, TheoryScale):
                from aockit.timing import default_timing

                defect = run_defect_grid(args.seed, default_timing())
        except Incorrect as exc:
            correct, error = False, str(exc)
            print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        if args.trace:
            values, extra = (traced_values(args, work, loop, tracer, defect)
                             if correct else ({}, {}))
            units = PER_LAYER_UNITS
        else:
            values, extra = (end_to_end_values(work, loop, setups, defect)
                             if correct else ({}, {}))
            units = END_TO_END_UNITS
        values = {k: values.get(k, math.nan) for k in units}
        record.update(correct=correct, error=error, attempted=loop.attempted,
                      failed=loop.failed, metrics=values, extra=extra)
        print_summary(meta, values, units, extra)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{name}.json").write_text(json.dumps(record, indent=1, default=str))
        if args.trace and correct:
            with open(OUT / f"{name}-spans.jsonl", "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
        print(result_line(correct, loop, values, units), flush=True)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_values(work, loop: Loop, setups: list[float], defect):
    times_ms = [t * 1e3 for t in loop.times]
    tail_value, tail_pct, tail_n = metrics.tail(times_ms)
    ops_per_s = metrics.windowed_rate(loop.times)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": tail_value,
        "ops_per_s": ops_per_s,
    }
    extra = {
        "op_tail_percentile": tail_pct, "op_tail_samples": tail_n,
        "setup_samples_s": setups,
        "failed_frac": loop.failed / loop.attempted,
        "timed_seconds": loop.busy, "passes": loop.passes,
        "ops_per_s_windows": min(metrics.RATE_WINDOWS, len(loop.times)),
        "op_times_ms": times_ms,
    }
    if defect is not None:
        extra["timed_failed_frac"] = extra["failed_frac"]
        extra["failed_frac"] = defect["failed"] / defect["calls"]
        extra["defect_grid"] = defect
    if work.units_per_op:
        extra["mslots_per_s"] = ops_per_s * work.units_per_op / 1e6
    return values, extra


def traced_values(args, work, loop: Loop, tracer, defect):
    values = metrics.layer_metrics(tracer.spans, loop.traced_passes)
    source = {k: "workload" for k in values}
    cli = work if isinstance(work, CliSweep) else CliSweep(args.seed, work.workdir)
    if cli is not work:
        cli.setup()
        cli.prepare()
    probe, probe_passes = probe_spans(args.workload, args.seed, cli)
    for key, value in metrics.layer_metrics(probe, probe_passes).items():
        if key not in values:
            values[key], source[key] = value, "probe"
    values.update(probe_startup(cli))
    for token, key in metrics.ANALYSIS_SCHEMES:
        if key != "tdma_r":
            values[f"analysis.{key}.failed"] = defect["failed_by_scheme"][token]
            source[f"analysis.{key}.failed"] = "defect grid"
    values["sim.draw_floor_ns_per_unit"] = draw_floor_ns(values.get("sim.units", 0))
    plain = statistics.median(loop.times)
    traced = statistics.median(loop.traced_times)
    values["trace.overhead_ms"] = (traced - plain) * 1e3
    values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
    extra = {"source": source, "untraced_p50_ms": plain * 1e3,
             "traced_p50_ms": traced * 1e3, "spans": len(tracer.spans),
             "traced_passes": loop.traced_passes, "defect_grid": defect}
    return values, extra


def print_summary(meta: dict, values: dict, units: dict, extra: dict) -> None:
    print(f"# perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    print("# meta " + json.dumps(meta))
    for key, unit in units.items():
        print(f"{key:34s} {values[key]:>14.6g} {unit}")
    if "op_tail_percentile" in extra:
        print(f"{'  op_tail percentile':34s} {extra['op_tail_percentile']:>14.4g} "
              f"of {extra['op_tail_samples']} samples")
    if "defect_grid" in extra and "failed_frac" in extra:
        grid = extra["defect_grid"]
        print(f"{'failed_frac':34s} {extra['failed_frac']:>14.6g} 1"
              f"  ({grid['failed']} of {grid['calls']} defect-grid calls raised,"
              f" at N = {grid['failed_n']})")
        print(f"{'timed_failed_frac':34s} {extra['timed_failed_frac']:>14.6g} 1")
    elif "failed_frac" in extra:
        print(f"{'failed_frac':34s} {extra['failed_frac']:>14.6g} 1")
    if "mslots_per_s" in extra:
        print(f"{'mslots_per_s':34s} {extra['mslots_per_s']:>14.6g} Mslot/s")


def run_all(args) -> int:
    """Run every workload in its own process and merge their result lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{key}"] = metric
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
