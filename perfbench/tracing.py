"""Outside-in span tracer for the benchmark's traced run.

The program under test is left untouched.  :func:`install` wraps each
layer's public entry points *where callers look them up*: callers write
``from ..disksim.simulator import simulate``, so the wrapper replaces the
function in every ``repro`` module namespace that holds it, not only in
the defining module.  Methods (``ResultCache.load``, ``ReplayPlan.
for_trace``, the oracle constructors, ``TraceStream.iter_chunks``) are
wrapped on their class.

Each call records a span ``[name, start, end, parent, attrs]`` in memory;
:meth:`Tracer.write` dumps them when the run ends.  A span's *self time*
is its duration minus the durations of its direct children (the run is
single-threaded, so children never overlap), and :func:`layer_metrics`
folds self times and per-call counts into the per-layer metrics that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import statistics
import sys
import time
from collections import defaultdict

#: Every artifact id of ``repro-experiments all``, in run order.
PAPER_IDS: tuple[str, ...] = (
    "fig2", "table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6",
    "fig7", "fig8", "fig13", "ablation_preactivation",
    "ablation_estimation_error", "ablation_transition_speed",
    "ext_multitiling", "ext_pdc", "summary_edp", "gap_anatomy",
    "fault_sensitivity", "trace_replay",
)

NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """``fn`` inside a span.  ``name`` is a string or a function of the
        call's ``(args, kwargs)``; ``count(result, args)`` returns the
        span's attributes (work counts), evaluated after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                tracer.spans[idx][ATTRS] = count(result, args)
            return result

        return wrapper

    def timed_iter(self, name: str, iterator):
        """Re-yield ``iterator``, one span per ``next()`` (records = rows)."""
        while True:
            idx = self.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.end(idx)
                return
            self.end(idx)
            self.spans[idx][ATTRS] = {"records": len(item)}
            yield item

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, **attrs}
                ) + "\n")


# ---------------------------------------------------------------------- #
def self_times(spans) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _import_all_repro() -> None:
    """Import every ``repro`` module so each consumer namespace exists
    before patching (lazy ``from . import x`` imports then resolve to
    already-patched attributes)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _replace_everywhere(orig, wrapper, undo: list) -> None:
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                undo.append((mod, key, value))
                setattr(mod, key, wrapper)


def _set_class_attr(cls, key: str, value, undo: list) -> None:
    undo.append((cls, key, cls.__dict__.get(key)))
    setattr(cls, key, value)


def _file_size(cache, key: str) -> int:
    try:
        return os.path.getsize(cache._path(key))
    except OSError:
        return 0


def install(tracer: Tracer):
    """Wrap every layer entry point; returns a function that undoes it."""
    _import_all_repro()
    from repro.analysis import cycles, dap, gapstats
    from repro.analysis import access
    from repro.cache import ResultCache
    from repro.controllers.oracle import OracleDRPM, OracleTPM
    from repro.disksim import simulator
    from repro.disksim.replay import ReplayPlan
    from repro.experiments import cli
    from repro.power import insertion
    from repro.trace import generator, ingest, synth
    from repro.trace.stream import TraceStream
    from repro.transform import pdc, pipeline
    from repro.workloads import registry

    undo: list = []
    stream_layers: dict[int, tuple[str, object]] = {}

    def replay_kind(args, kwargs):
        trace = args[0] if args else kwargs["trace"]
        return "disksim.streamed" if isinstance(trace, TraceStream) else "disksim.whole"

    def tag_stream(layer):
        def count(stream, args):
            # Keep the stream alive so its id cannot be reused.
            stream_layers[id(stream)] = (layer, stream)
            return {}
        return count

    functions = [
        (simulator, "simulate", replay_kind,
         lambda r, a: {"requests": r.num_requests}),
        (insertion, "plan_power_calls", "power",
         lambda r, a: {"placements": len(r.placements)}),
        (cli, "run_experiment", lambda a, k: f"experiments.{a[0]}", None),
        (generator, "generate_trace", "trace.generate",
         lambda r, a: {"requests": r.num_requests}),
        (generator, "directives_at_positions", "trace.directives", None),
        (ingest, "ingest_trace", "trace.ingest",
         lambda r, a: {"records": r.num_requests}),
        (ingest, "scan_trace", "trace.ingest", None),
        (ingest, "ingest_fingerprint", "trace.ingest", None),
        (ingest, "stream_ingest", "trace.ingest", tag_stream("trace.ingest")),
        (synth, "synth_trace", "trace.synth", None),
        (synth, "synth_stream", "trace.synth", tag_stream("trace.synth")),
        (access, "analyze_program", "analysis", None),
        (cycles, "compute_timing", "analysis", None),
        (cycles, "measured_timing", "analysis", None),
        (dap, "build_dap", "analysis", None),
        (gapstats, "gap_statistics", "analysis", None),
        (gapstats, "exploitable_fractions", "analysis", None),
        (registry, "build_workload", "workloads", None),
        (pipeline, "make_version", "transform", None),
        (pdc, "pdc_layout", "transform", None),
    ]
    for module, attr, name, count in functions:
        orig = getattr(module, attr)
        _replace_everywhere(orig, tracer.wrap(name, orig, count), undo)

    for attr in ("for_trace", "for_columns"):
        orig = ReplayPlan.__dict__[attr].__func__
        _set_class_attr(
            ReplayPlan, attr, classmethod(tracer.wrap("disksim.plan", orig)), undo
        )
    for cls in (OracleTPM, OracleDRPM):
        _set_class_attr(
            cls, "__init__",
            tracer.wrap("controllers.oracle", cls.__init__), undo,
        )

    def load_count(result, args):
        hit = result is not None
        return {"hit": int(hit), "bytes": _file_size(args[0], args[1]) if hit else 0}

    _set_class_attr(
        ResultCache, "load",
        tracer.wrap("cache.load", ResultCache.load, load_count), undo,
    )
    _set_class_attr(
        ResultCache, "store",
        tracer.wrap("cache.store", ResultCache.store,
                    lambda r, a: {"bytes": _file_size(a[0], a[1])}),
        undo,
    )

    orig_iter = TraceStream.iter_chunks

    def iter_chunks(self):
        it = orig_iter(self)
        tagged = stream_layers.get(id(self))
        return tracer.timed_iter(tagged[0], it) if tagged else it

    _set_class_attr(TraceStream, "iter_chunks", iter_chunks, undo)

    def uninstall() -> None:
        for owner, key, value in reversed(undo):
            if value is None:
                delattr(owner, key)
            else:
                setattr(owner, key, value)

    return uninstall


# ---------------------------------------------------------------------- #
def _pct_ms(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of per-call times, in milliseconds."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0] * 1e3, values[0] * 1e3
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4] * 1e3, q[8] * 1e3


def layer_metrics(
    spans, wall_s: float, untraced_wall_s: float, coverage: dict | None
) -> dict[str, float | None]:
    """Fold a traced run's spans into the per-layer metrics.

    ``wall_s`` is the traced run's wall time and ``untraced_wall_s`` the
    same pass with tracing off; ``coverage`` is the delta of the
    program's ``replay_coverage()`` counters over the traced pass, or
    ``None`` when the program has no such counters.
    """
    selfs = self_times(spans)
    self_by: dict[str, list[float]] = defaultdict(list)
    attrs_by: dict[str, list[dict]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        self_by[span[NAME]].append(own)
        attrs_by[span[NAME]].append(span[ATTRS])

    def total(name: str) -> float:
        return sum(self_by.get(name, ()))

    def calls(name: str) -> int:
        return len(self_by.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum(a.get(key, 0) for a in attrs_by.get(name, ()))

    m: dict[str, float | None] = {}
    replays = self_by.get("disksim.whole", []) + self_by.get("disksim.streamed", [])
    replay_s = sum(replays)
    requests = attr_sum("disksim.whole", "requests") + attr_sum(
        "disksim.streamed", "requests"
    )
    m["disksim.calls"] = len(replays)
    m["disksim.self_s"] = replay_s + total("disksim.plan")
    m["disksim.requests"] = requests
    m["disksim.requests_per_s"] = requests / replay_s if replay_s else 0.0
    m["disksim.call_p50_ms"], m["disksim.call_p90_ms"] = _pct_ms(replays)
    m["disksim.whole.self_s"] = total("disksim.whole")
    m["disksim.streamed.self_s"] = total("disksim.streamed")
    m["disksim.plan.self_s"] = total("disksim.plan")
    for key in ("subrequests_scalar", "subrequests_vector"):
        m[f"disksim.{key}"] = coverage.get(key) if coverage is not None else None

    m["power.calls"] = calls("power")
    m["power.self_s"] = total("power")
    m["power.placements"] = attr_sum("power", "placements")
    m["power.call_p50_ms"], m["power.call_p90_ms"] = _pct_ms(self_by.get("power", []))

    for exp_id in PAPER_IDS:
        m[f"experiments.{exp_id}.self_s"] = total(f"experiments.{exp_id}")
    m["experiments.self_s"] = sum(
        m[f"experiments.{exp_id}.self_s"] for exp_id in PAPER_IDS
    )

    m["trace.generate.calls"] = calls("trace.generate")
    m["trace.generate.self_s"] = total("trace.generate")
    m["trace.generate.requests"] = attr_sum("trace.generate", "requests")
    m["trace.directives.self_s"] = total("trace.directives")
    ingest_s = total("trace.ingest")
    records = attr_sum("trace.ingest", "records")
    m["trace.ingest.self_s"] = ingest_s
    m["trace.ingest.records"] = records
    m["trace.ingest.records_per_s"] = records / ingest_s if ingest_s else 0.0
    m["trace.synth.self_s"] = total("trace.synth")

    m["controllers.oracle.calls"] = calls("controllers.oracle")
    m["controllers.oracle.self_s"] = total("controllers.oracle")

    loads = calls("cache.load")
    m["cache.loads"] = loads
    m["cache.stores"] = calls("cache.store")
    m["cache.hit_ratio"] = attr_sum("cache.load", "hit") / loads if loads else 0.0
    m["cache.load_s"] = total("cache.load")
    m["cache.store_s"] = total("cache.store")
    m["cache.bytes_read"] = attr_sum("cache.load", "bytes")
    m["cache.bytes_written"] = attr_sum("cache.store", "bytes")

    for layer in ("analysis", "workloads", "transform"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = total(layer)

    m["untraced_s"] = wall_s - sum(selfs)
    m["tracing_overhead_ratio"] = wall_s / untraced_wall_s
    return m


#: The disjoint self-time metrics that, with ``untraced_s``, add up to the
#: traced wall time.
LAYER_SELF_KEYS: tuple[str, ...] = (
    "disksim.self_s", "power.self_s", "experiments.self_s",
    "trace.generate.self_s", "trace.directives.self_s",
    "trace.ingest.self_s", "trace.synth.self_s",
    "controllers.oracle.self_s", "cache.load_s", "cache.store_s",
    "analysis.self_s", "workloads.self_s", "transform.self_s",
)
