"""Write ``reference.json``: the digests the correctness gate pins.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/pin_reference.py

Only a change that is meant to alter the simulated results (a model
change) re-pins; the diff of ``reference.json`` then shows which reports
and replays moved.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import inputs
from run import WORK_ROOT, run_worker


def main() -> int:
    work = WORK_ROOT / "pin"
    work.mkdir(parents=True, exist_ok=True)
    previous = gate.REFERENCE_PATH.read_text()
    # The passes run the gate against an empty reference; only their
    # digests are used.
    gate.REFERENCE_PATH.write_text('{"paper": {}, "external": null}\n')
    try:
        trace_file = work / inputs.RECORDED_NAME
        inputs.write_recorded_trace(trace_file, inputs.PINNED_SEED)
        paper = run_worker("paper_cold", cache_dir=work / "cache")
        external = run_worker("external_traces", trace_file=trace_file,
                              seed=inputs.PINNED_SEED)
    except BaseException:
        gate.REFERENCE_PATH.write_text(previous)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {"paper": paper["digests"], "external": external["digests"]}
    gate.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(reference['paper'])} reports and "
          f"{len(reference['external']['results'])} replays in {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
