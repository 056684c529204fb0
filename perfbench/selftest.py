"""Self-tests of the benchmark's own machinery, on tiny inputs (seconds).

Run from the repository root::

    python3 perfbench/selftest.py

* the gate counts failures when fed a perturbed reference (artifact text,
  pinned digests, request counts) and passes on the true one;
* the tracer's self-time arithmetic is exact on hand-built spans, every
  span of a real traced pipeline lands in a layer metric (layer self times
  plus ``untraced_s`` add up to the traced wall time), and uninstalling
  restores the program;
* the seed alone fixes the recorded trace file, byte for byte.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from run import WORK_ROOT  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_external(work: Path):
    """A 3000-record recorded file plus a 2000-request synthetic source."""
    from repro.trace.ingest import write_binary_records
    from repro.trace.synth import SynthConfig

    path = work / "tiny.bin"
    records = [(0.01 * i + (30.0 if i > 1500 else 0.0), i % 3, 8 * i, 4096, i % 4 == 0)
               for i in range(3000)]
    write_binary_records(path, records)
    config = SynthConfig(num_requests=2000, model="onoff", off_s=40.0, seed=3)
    return path, config, len(records)


def test_gate(work: Path) -> None:
    from repro.experiments import cli, trace_replay
    from repro.experiments.runner import ExperimentContext

    ctx = ExperimentContext(jobs=1, cache=False)
    reps = cli.run_experiment("table1", ctx)
    reports = {"table1": reps}
    rendered = {"table1": "".join(r.render() + "\n" for r in reps)}
    pinned = gate.load_reference()["paper"]
    artifacts = BENCH_DIR.parent / "artifacts"

    tally = gate.check_paper(reports, rendered, artifacts, pinned)
    expect(tally.checked == 2 and tally.failed == 0,
           f"paper gate passes table1 against the true reference ({tally.failures})")
    bad_dir = work / "artifacts"
    bad_dir.mkdir()
    text = (artifacts / "table1.txt").read_text(encoding="utf-8")
    (bad_dir / "table1.txt").write_text(text.replace("1", "2", 1), encoding="utf-8")
    tally = gate.check_paper(reports, rendered, bad_dir, pinned)
    expect(tally.failed == 1, "paper gate counts a perturbed artifact text")
    tally = gate.check_paper(reports, rendered, artifacts, {**pinned, "table1/0": "0" * 64})
    expect(tally.failed == 1, "paper gate counts a perturbed pinned digest")

    path, config, n = tiny_external(work)
    sources, label_of, requests = worker.external_sources(trace_replay, str(path), config, n)
    times, report, results = worker.external_pass(
        ctx, trace_replay, sources, label_of, worker.Window(calibrate=True)
    )
    expect(0 < times["cpu_s"] and 0 < times["norm_cpu_s"] < float("inf"),
           f"a calibrated window reports CPU time and its normalized value ({times})")
    expect(len(results) == 14, f"tiny external suite replays 14 results ({len(results)})")
    tally = gate.check_external(report, results, requests, None)
    expect(tally.failed == 0 and tally.checked == 4 + 14 + 4,
           f"external invariants pass ({tally.checked} checked, {tally.failures})")
    wrong_counts = {label: count + 1 for label, count in requests.items()}
    tally = gate.check_external(report, results, wrong_counts, None)
    expect(tally.failed == 14, f"external gate counts wrong request counts ({tally.failed})")
    pinned_ext = worker.external_digests(report, results)
    tally = gate.check_external(report, results, requests, pinned_ext)
    expect(tally.failed == 0, "external gate passes against its own digests")
    perturbed = {**pinned_ext, "results": {**pinned_ext["results"]}}
    perturbed["results"]["tiny/DRPM"] = "0" * 64
    perturbed["report"] = "0" * 64
    tally = gate.check_external(report, results, requests, perturbed)
    expect(tally.failed == 2, f"external gate counts perturbed digests ({tally.failed})")
    swapped = [(s, k, "x" if (s, k) == ("tiny", "CMDRPM") else d, r)
               for s, k, d, r in results]
    tally = gate.check_external(report, swapped, requests, None)
    expect(tally.failed == 1, "external gate counts a CM result that differs from Base")


def test_tracer(work: Path) -> None:
    ticks = iter([0.0, 1.0, 1.5, 2.0, 2.5, 4.0, 4.5, 5.0, 5.25, 5.75, 6.0, 7.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    a = tr.begin("a")                   # a: 0.0-7.0 holds b, e, f
    b = tr.begin("b")                   # b: 1.0-4.5 holds c, d
    tr.end(tr.begin("c"))               # c: 1.5-2.0
    tr.end(tr.begin("d"))               # d: 2.5-4.0
    tr.end(b)
    tr.end(tr.begin("e"))               # e: 5.0-5.25
    tr.end(tr.begin("f"))               # f: 5.75-6.0
    tr.end(a)
    selfs = tracing.self_times(tr.spans)
    expect(selfs == [3.0, 1.5, 0.5, 1.5, 0.25, 0.25],
           f"self times of hand-built spans are exact ({selfs})")

    from repro.cache import ResultCache
    from repro.disksim import simulator
    from repro.experiments import cli, trace_replay
    from repro.experiments.runner import ExperimentContext

    original = simulator.simulate
    ctx = ExperimentContext(jobs=1, cache=ResultCache(work / "cache"))
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        expect(trace_replay.simulate is not original and cli.run_experiment.__wrapped__,
               "consumer namespaces hold the wrappers")
        path, config, _ = tiny_external(work)
        sources = (trace_replay.TraceSource.from_file(path),
                   trace_replay.TraceSource(label="streamed", synth=config, streamed=True))
        t0 = time.perf_counter()
        for exp_id in ("fig2", "table1"):
            cli.run_experiment(exp_id, ctx)
        trace_replay.run_trace_replay(ctx, sources)
        wall = time.perf_counter() - t0
    finally:
        uninstall()
    expect(simulator.simulate is original and trace_replay.simulate is original,
           "uninstall restores the program")
    m = tracing.layer_metrics(tr.spans, wall, wall, None)
    layers = sum(m[k] for k in tracing.LAYER_SELF_KEYS)
    expect(abs(layers + m["untraced_s"] - wall) <= 1e-9 * wall and m["untraced_s"] >= 0,
           f"layer self times {layers:.6f} s + untraced {m['untraced_s']:.6f} s "
           f"= traced wall {wall:.6f} s")
    named = {s[tracing.NAME] for s in tr.spans}
    expect({"power", "analysis", "trace.generate", "disksim.whole", "disksim.streamed",
            "disksim.plan", "trace.ingest",
            "trace.synth", "controllers.oracle", "cache.load", "cache.store",
            "experiments.fig2"} <= named, f"every layer recorded spans ({sorted(named)})")


def test_inputs(work: Path) -> None:
    def digest(seed: int, name: str) -> str:
        path = work / name
        inputs.write_recorded_trace(path, seed)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    first, again, other = digest(5, "a.bin"), digest(5, "b.bin"), digest(6, "c.bin")
    expect(first == again, "the same seed writes a byte-identical trace file")
    expect(first != other, "another seed writes another trace file")
    expect(inputs.synth_config(5) == inputs.synth_config(5)
           and inputs.synth_config(5) != inputs.synth_config(6),
           "the synthetic config is a function of the seed")


def main() -> int:
    work = WORK_ROOT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        test_gate(work)
        test_tracer(work)
        test_inputs(work)
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
