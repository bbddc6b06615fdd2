"""Spans of a traced `aockit sweep` call, made through the CLI's bindings.

perfbench times aockit by rebinding public names in aockit.cli,
aockit.sweep and aockit.sim (perfbench/tracing.py).  A refactor that stops
calling through one of those names loses its span, and the benchmark's
traced cli-sweep run then has no figure for that layer.  This runs
`aockit sweep` in process under the tracer, as that run does.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    # perfbench is a top-level directory of the repository, not installed
    sys.path.insert(0, str(ROOT))

from aockit import cli  # noqa: E402
from perfbench import metrics, tracing  # noqa: E402

TABLE = """snr_db,scheme,device_id,per
10,tdma,1,0.1
10,tdma,2,0.2
10,fdma,1,0.1
10,fdma,2,0.2
"""

CLI_SWEEP_SPANS = {
    "sweep.load_per_table",
    "sweep.run_sweep",
    "sweep.emit_rows",
    "sim.simulate_ms",
    "sim.simulate",
    "domain.integrate_trace",
    "analysis.avg_aoc_ms",
}


def test_cli_sweep_fires_every_span_and_gives_finite_layer_metrics(tmp_path, capsys):
    path = tmp_path / "per.csv"
    path.write_text(TABLE, encoding="utf-8")
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = cli.main(["sweep", "--per-table", str(path),
                         "--horizon", "2000", "--seed", "1"])
    finally:
        uninstall()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3
    names = {span.name for span in tracer.spans}
    assert CLI_SWEEP_SPANS <= names, CLI_SWEEP_SPANS - names
    layer = metrics.layer_metrics(tracer.spans, passes=1)
    assert "domain.integrate_trace_ms" in layer
    assert all(math.isfinite(value) for value in layer.values()), layer
