"""The repository's benchmark: the paper pipeline as people run it.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see ``BENCHMARK.json`` and ``NOTES.md``):

* ``paper_cold`` — every artifact of ``repro-experiments all``, serially,
  against a fresh, empty result cache (one per pass);
* ``paper_warm`` — the same artifacts against the cache that one untimed
  ``paper_cold`` pass filled;
* ``external_traces`` — the ``trace_replay`` suite, uncached and
  open-loop, over a recorded binary trace and a streamed synthetic on/off
  stream, both built from ``--seed``.

Each pass runs in its own interpreter (``worker.py``).  With ``--trace 0``
passes repeat while the next one is expected to end within ``--seconds``,
and the end-to-end metrics are medians over them: ``norm_cpu_s`` and
``setup_s`` are CPU seconds normalized by the speed at which the host ran
a fixed reference loop next to them (see ``NOTES.md``), and more
set-up-only interpreters are started until ``setup_s`` has at least
``SETUP_SAMPLES`` samples.  With ``--trace 1`` one
untraced and one traced pass run, and the per-layer metrics come from the
traced one.  Every pass runs the correctness gate (``gate.py``); the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench-work/``
and are removed on exit, except the traced run's spans
(``.perfbench-work/<workload>.spans.jsonl``, one JSON object per span).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import inputs  # noqa: E402

WORKLOADS = ("paper_cold", "paper_warm", "external_traces")
SETUP_SAMPLES = 7
WORK_ROOT = Path(".perfbench-work")


def _child_env() -> dict:
    """The environment of a pass: no ``REPRO_*`` knob (jobs, cache, obs)
    leaks in from the caller's shell, and every pass hashes strings alike,
    so set and dict layouts do not vary from one pass to the next."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, mode: str = "measure", **options) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", workload, "--mode", mode]
    for key, value in options.items():
        if value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, env=_child_env(), timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} pass exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    options: dict = {"seed": seed}
    if workload == "external_traces":
        options["trace_file"] = work / inputs.RECORDED_NAME
        inputs.write_recorded_trace(options["trace_file"], seed)
    elif workload == "paper_warm":
        options["cache_dir"] = work / "cache"
        run_worker("paper_cold", **options)  # untimed: fills the cache

    def one_pass(i: int, mode: str = "measure", **extra) -> dict:
        if workload == "paper_cold":
            options["cache_dir"] = work / f"cache-{i}"
        result = run_worker(workload, mode, **options, **extra)
        if workload == "paper_cold":
            shutil.rmtree(options["cache_dir"], ignore_errors=True)
        return result

    if trace:
        plain = one_pass(0)
        traced = one_pass(1, "trace", untraced_wall=plain["wall_s"],
                          spans_out=WORK_ROOT / f"{workload}.spans.jsonl")
        return {"passes": [plain, traced], "layers": traced["layers"]}

    # Start another pass only while it is expected to end within
    # ``seconds``, so a run's length stays near ``seconds`` on any host.
    passes: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.monotonic()
        passes.append(one_pass(len(passes)))
        durations.append(time.monotonic() - t0)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, "setup", **options)["setup_s"])
    return {"passes": passes, "setups": setups}


def summarize(workload: str, run: dict, trace: bool) -> dict:
    passes = run["passes"]
    attempted = sum(p["checked"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for what in p["failures"]:
            print(f"{workload}: FAILED {what}")
    print(f"{workload}: ops_failed_ratio {failed / attempted:.6f} "
          f"({failed} of {attempted} outputs checked)")
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        layers = run["layers"]
        names = [m["name"] for m in declared["per_layer"]]
        if set(names) != set(layers):
            raise RuntimeError(
                f"traced metrics {sorted(set(layers) ^ set(names))} are "
                "measured but not declared in BENCHMARK.json, or the reverse"
            )
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in declared["per_layer"]}
        for name, m in metrics.items():
            shown = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{workload}: {name} {shown} {m['unit']}")
    else:
        samples = {
            "norm_cpu_s": [p["norm_cpu_s"] for p in passes],
            "setup_s": run["setups"],
            "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
            # Shown, not metrics: what the host gave this run.
            "cpu_s": [p["cpu_s"] for p in passes],
            "wall_s": [p["wall_s"] for p in passes],
        }
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                               "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        for name, values in samples.items():
            shown = ", ".join(f"{v:.4g}" for v in values)
            print(f"{workload}: {name} median {statistics.median(values):.4f} "
                  f"(n={len(values)}: {shown})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the paper pipeline.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path("src") / "repro").is_dir() or not Path("artifacts").is_dir():
        print("perfbench: run from the repository root (src/repro and "
              "artifacts/ are missing here)", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
            results[workload] = summarize(workload, run, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if args.workload == "all":
        for workload, result in results.items():
            print(json.dumps({"workload": workload, **result}))
        return 0
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
