"""In-memory spans around calls into aockit's public functions.

Wrappers are installed by rebinding each public name in the module that
uses it: aockit.cli and aockit.sweep import run_sweep, simulate_ms and
avg_aoc_ms by name, so each of those bindings gets its own wrapper.  No
file of the package changes.  Spans are recorded only in this process;
work done inside child or worker processes is not seen.
"""

from __future__ import annotations

import importlib
import time


class Span:
    """One timed call: name, start, end, parent span index (-1 for a root)
    and the id of the operation it belongs to."""

    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, name: str, start: float, end: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs: dict = {}
        self.error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Collects nested spans; one tracer per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs_of=None):
        """Run fn(*args, **kwargs) inside a span and return its result.

        attrs_of(args, kwargs, result) may return extra span attributes;
        it runs after the span has ended, outside the timed interval.
        """
        kwargs = kwargs or {}
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, attrs_of=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_of)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def _analysis_attrs(args, kwargs, result):
    scheme = args[0] if args else kwargs.get("scheme")
    p = args[1] if len(args) > 1 else kwargs.get("p")
    return {"scheme": getattr(scheme, "token", str(scheme)), "n": getattr(p, "n", None)}


def _sim_attrs(args, kwargs, result):
    config = args[0] if args else kwargs.get("config")
    attrs = {"scheme": config.scheme.token, "units": int(config.horizon)}
    if result is not None:
        attrs["collections"] = int(result.collections)
    return attrs


# (module, bound name, span name, attribute hook).  Names a module does not
# bind are skipped, so a refactor that drops one loses its span, not the run.
WRAP_POINTS = (
    ("aockit.cli", "load_per_table", "sweep.load_per_table", None),
    ("aockit.cli", "run_sweep", "sweep.run_sweep", None),
    ("aockit.cli", "emit_rows", "sweep.emit_rows", None),
    ("aockit.cli", "simulate_ms", "sim.simulate_ms", _sim_attrs),
    ("aockit.sweep", "run_sweep", "sweep.run_sweep", None),
    ("aockit.sweep", "emit_rows", "sweep.emit_rows", None),
    ("aockit.sweep", "avg_aoc_ms", "analysis.avg_aoc_ms", _analysis_attrs),
    ("aockit.sweep", "simulate_ms", "sim.simulate_ms", _sim_attrs),
    ("aockit.sim", "simulate", "sim.simulate", None),
    ("aockit.sim", "integrate_trace", "domain.integrate_trace", None),
    ("aockit.analysis", "avg_aoc_ms", "analysis.avg_aoc_ms", _analysis_attrs),
    ("aockit.timing", "default_timing", "timing.default_timing", None),
)


def install(tracer: Tracer):
    """Rebind every wrap point to a traced wrapper; returns the undo callable."""
    saved = []
    for module_name, attr, span_name, attrs_of in WRAP_POINTS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            continue
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original, attrs_of))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall
