"""Record ``baseline.json``: every workload's metrics on this commit,
stamped with the machine, and a check of the zero predictions.

Run from the repository root (about three minutes)::

    python3 perfbench/record_baseline.py

For each workload it runs ``run.py`` once untraced and once traced with
the pinned seed, then checks every ``zero_on`` prediction of
``predictions.json`` against the traced metrics.
"""

from __future__ import annotations

import json
from fnmatch import fnmatch
import multiprocessing
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from inputs import PINNED_SEED  # noqa: E402
from run import WORKLOADS  # noqa: E402

SECONDS = 36


def _burn(n: int) -> int:
    total = 0
    for i in range(n):
        total += i
    return total


def effective_cores(workers: int, n: int = 20_000_000) -> float:
    """Throughput of ``workers`` parallel CPU burns over one burn alone."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        pool.map(_burn, [1000] * workers)  # start every worker first
        t0 = time.perf_counter()
        pool.apply(_burn, (n,))
        alone = time.perf_counter() - t0
        t0 = time.perf_counter()
        pool.map(_burn, [n] * workers, chunksize=1)
        together = time.perf_counter() - t0
    return workers * alone / together


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(PINNED_SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def zero_checks(predictions: dict, traced: dict) -> list[dict]:
    out = []
    for layer, spec in predictions["layers"].items():
        for workload in spec["zero_on"]:
            metrics = traced[workload]["metrics"]
            names = [n for n in metrics
                     if any(fnmatch(n, pattern) for pattern in spec["metrics"])]
            nonzero = [n for n in names if metrics[n]["value"] != 0]
            out.append({"layer": layer, "workload": workload, "metrics": len(names),
                        "holds": bool(names) and not nonzero, "nonzero": nonzero})
    return out


def main() -> int:
    from repro.experiments.parallel import available_cpus

    untraced = {w: bench(w, 0) for w in WORKLOADS}
    traced = {w: bench(w, 1) for w in WORKLOADS}
    # The core test runs last: after its two-process burn, set-up took
    # ~20% more CPU for minutes on the baseline host.
    cpus = available_cpus()
    machine = {
        "available_cpus": cpus,
        "effective_cores": round(effective_cores(cpus), 2),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "processor": platform.machine(),
    }
    predictions = json.loads((BENCH_DIR / "predictions.json").read_text())
    checks = zero_checks(predictions, traced)
    baseline = {
        "machine": machine,
        "seed": PINNED_SEED,
        "run_seconds": SECONDS,
        "end_to_end": untraced,
        "per_layer": traced,
        "zero_predictions": checks,
    }
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    held = sum(c["holds"] for c in checks)
    print(f"wrote {path}: {held} of {len(checks)} zero predictions hold")
    return 0 if held == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
