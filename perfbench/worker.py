"""One benchmark pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object it
prints on stdout.  A pass:

1. set-up: imports ``repro`` and builds an ``ExperimentContext`` (serial,
   ``repro.obs`` off); ``setup_s`` is this process's CPU time up to here,
   normalized (:class:`Speed`) by reference-loop samples taken meanwhile;
2. the timed window: from the first pipeline call until the last report
   is rendered, optionally under the outside-in tracer.  ``cpu_s`` and
   ``wall_s`` are its CPU and host seconds; ``norm_cpu_s`` is ``cpu_s``
   normalized the same way;
3. the correctness gate, then ``peak_rss_mib`` (this process's
   high-water mark).

Modes: ``measure`` (one pass), ``trace`` (one pass with spans),
``setup`` (stop after set-up).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
from tracing import PAPER_IDS, Tracer, install, layer_metrics  # noqa: E402


def _coverage():
    """The program's replay-engine counters, or ``None`` if it has none."""
    from repro.disksim import simulator

    snapshot = getattr(simulator, "replay_coverage", None)
    return snapshot() if snapshot is not None else None


#: The reference loop's size, the CPU seconds it is taken to cost on the
#: reference host, and the host-time interval between samples of it.
#: ``norm_cpu_s`` is a pass's CPU time scaled by ``REF_SECONDS`` over what
#: the loop cost while the pass ran.
REF_ITERATIONS = 20_000
REF_SECONDS = 0.0025
SAMPLE_EVERY_S = 0.05
#: Set-up is too short for the timer alone to sample the host well (a
#: sample costs 2 ms or, when a 4 ms scheduler tick lands in it, 6 ms),
#: so this many more samples follow it.
SETUP_EXTRA_SAMPLES = 40


def ref_loop(table: dict) -> int:
    """Fixed interpreter work: the kind the pipeline spends most of its
    time on (dict lookups and stores, integer arithmetic, a loop).

    It runs in the middle of the program, so it allocates nothing that
    outlives it: ``table`` is made once, and its values stay small.
    """
    acc = 0
    for i in range(REF_ITERATIONS):
        k = i % 997
        table[k] = (table.get(k, 0) + (i & 7)) & 0xFF
        acc ^= k
    return acc


class Speed:
    """How fast this host runs the reference loop while a stretch of the
    program runs.

    The host's CPU throughput drifts by up to 2x over minutes and by
    +-15% from one second to the next (other tenants), and CPU time
    follows it.  Between :meth:`start` and :meth:`stop` a ``SIGALRM``
    timer runs the reference loop every ``SAMPLE_EVERY_S`` host seconds,
    so the samples see the same drift as the program around them; CPU
    time over the samples' cost keeps the program's share and drops most
    of the host's.  (A ``SIGPROF`` CPU-time timer would be the natural
    choice, but while one is armed Linux reads process CPU time only to
    the scheduler tick, 4 ms here, as coarse as a sample.)
    """

    def __init__(self):
        self.table = dict.fromkeys(range(997), 0)
        self.samples = 0
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def sample(self, *_signal) -> None:
        w0, t0 = time.perf_counter(), time.process_time()
        ref_loop(self.table)
        self.cpu_s += time.process_time() - t0
        self.wall_s += time.perf_counter() - w0
        self.samples += 1

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, cpu_s: float) -> float:
        return cpu_s * self.samples * REF_SECONDS / self.cpu_s


class Window:
    """The timed window of a pass: host (wall) seconds and this process's
    CPU seconds, user plus system, from construction to :meth:`close`.

    With ``calibrate`` the window samples the reference loop
    (:class:`Speed`; the samples are left out of ``cpu_s`` and
    ``wall_s``) and :meth:`close` adds ``norm_cpu_s``.  The traced pass
    does not calibrate, so no sample lands in a span.
    """

    def __init__(self, calibrate: bool):
        self.speed = Speed() if calibrate else None
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        if self.speed is not None:
            self.speed.start()

    def close(self) -> dict:
        if self.speed is not None:
            self.speed.stop()
        wall = time.perf_counter() - self.wall0
        cpu = time.process_time() - self.cpu0
        if self.speed is None:
            return {"cpu_s": cpu, "wall_s": wall}
        cpu -= self.speed.cpu_s
        wall -= self.speed.wall_s
        return {"cpu_s": cpu, "wall_s": wall, "norm_cpu_s": self.speed.normalize(cpu)}


def paper_pass(ctx, cli, window: Window) -> tuple[dict, gate.Tally, dict]:
    if tuple(cli.EXPERIMENT_IDS) != PAPER_IDS:
        raise SystemExit(
            f"repro-experiments ids changed: {cli.EXPERIMENT_IDS}; "
            "update PAPER_IDS and reference.json"
        )
    reports: dict = {}
    rendered: dict = {}
    for exp_id in PAPER_IDS:
        reps = cli.run_experiment(exp_id, ctx)
        rendered[exp_id] = "".join(r.render() + "\n" for r in reps)
        reports[exp_id] = reps
    times = window.close()
    tally = gate.check_paper(
        reports, rendered, ROOT / "artifacts", gate.load_reference()["paper"]
    )
    digests = {
        f"{exp_id}/{i}": gate.report_digest(rep)
        for exp_id, reps in reports.items()
        for i, rep in enumerate(reps)
    }
    return times, tally, digests


def external_sources(trace_replay, trace_file: str, config, recorded_requests: int):
    """The two ``TraceSource``s, a map from each replayed trace's name to
    its source label, and each source's input request count."""
    # The streamed source replays first.  Peak RSS comes from the
    # whole-trace replays and depends on what earlier replays left in the
    # heap: over seeds 201-210 it read 406-506 MiB (median 430) this way
    # round and 446-507 MiB (median 484) with the whole trace first.
    recorded = trace_replay.TraceSource.from_file(trace_file)
    synth = trace_replay.TraceSource.from_synth(config)
    sources = (synth, recorded)
    label_of = {Path(trace_file).stem: recorded.label,
                f"synth-{config.model}": synth.label}
    requests = {recorded.label: recorded_requests, synth.label: config.num_requests}
    return sources, label_of, requests


def external_pass(ctx, trace_replay, sources, label_of, window: Window):
    """Run the suite; returns (window times, report, per-replay results)."""
    from repro.trace.stream import TraceStream

    # Replay results are only held during the timed window and reduced to
    # digests after it: allocating between replays changes the heap
    # layout, and digesting there raised one seed's peak RSS by 25 MiB.
    # The suite holds each source's results until the source ends anyway,
    # and the streamed source (replayed first) has small results.
    held: list = []
    simulate = trace_replay.simulate

    def capture(trace, params, controller=None, *args, **kwargs):
        result = simulate(trace, params, controller, *args, **kwargs)
        held.append((trace, controller, result))
        return result

    trace_replay.simulate = capture
    try:
        report = trace_replay.run_trace_replay(ctx, sources)
        report.render()
        times = window.close()
    finally:
        trace_replay.simulate = simulate
    results = [
        (label_of[trace.program_name], controller.name,
         gate.result_digest(result, isinstance(trace, TraceStream)), result.num_requests)
        for trace, controller, result in held
    ]
    return times, report, results


def external_digests(report, results) -> dict:
    return {"report": gate.report_digest(report),
            "results": {f"{s}/{k}": d for s, k, d, _ in results}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper_cold", "paper_warm", "external_traces"))
    ap.add_argument("--mode", choices=("measure", "trace", "setup"), default="measure")
    ap.add_argument("--cache-dir", default=None)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--seed", type=int, default=inputs.PINNED_SEED)
    ap.add_argument("--untraced-wall", type=float, default=None,
                    help="wall_s of the untraced pass (trace mode)")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    speed = Speed()
    speed.start()
    from repro.cache import ResultCache
    from repro.experiments import cli, trace_replay
    from repro.experiments.runner import ExperimentContext

    cache = ResultCache(args.cache_dir) if args.cache_dir else False
    ctx = ExperimentContext(jobs=1, cache=cache)
    speed.stop()
    setup_cpu = time.process_time() - speed.cpu_s
    for _ in range(SETUP_EXTRA_SAMPLES):
        speed.sample()
    out: dict = {"setup_s": speed.normalize(setup_cpu), "setup_cpu_s": setup_cpu}

    if args.mode != "setup":
        tracer = cov0 = None
        if args.mode == "trace":
            tracer = Tracer()
            install(tracer)
            cov0 = _coverage()
        calibrate = tracer is None
        if args.workload == "external_traces":
            sources, label_of, requests = external_sources(
                trace_replay, args.trace_file, inputs.synth_config(args.seed),
                inputs.RECORDED_REQUESTS,
            )
            times, report, results = external_pass(
                ctx, trace_replay, sources, label_of, Window(calibrate)
            )
            pinned = (gate.load_reference()["external"]
                      if args.seed == inputs.PINNED_SEED else None)
            tally = gate.check_external(report, results, requests, pinned)
            digests = external_digests(report, results)
        else:
            times, tally, digests = paper_pass(ctx, cli, Window(calibrate))
        wall = times["wall_s"]
        out.update(times, checked=tally.checked, failed=tally.failed,
                   failures=tally.failures[:20], digests=digests)
        if tracer is not None:
            cov1 = _coverage()
            coverage = (
                {k: cov1[k] - cov0.get(k, 0) for k in cov1} if cov1 is not None else None
            )
            out["layers"] = layer_metrics(
                tracer.spans, wall, args.untraced_wall or wall, coverage
            )
            if args.spans_out:
                tracer.write(args.spans_out)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
