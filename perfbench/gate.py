"""Correctness gate behind ``ops_failed_ratio``.

Every check is one *output checked*; a wrong one is one *failed*.

``paper_*``: each artifact's rendered text must equal the committed
``artifacts/<id>.txt`` byte for byte (the CLI prints ``render()`` plus a
newline), and each report's full-precision row values must hash to the
digest pinned in ``reference.json``.

``external_traces``: each (source, scheme) replay result hashes to a
digest of its simulated statistics.  For the pinned seed those digests
and the report's are compared with ``reference.json``; for every seed the
invariants hold: the Base row is exactly 1.0, CMTPM/CMDRPM are
bit-identical to Base, and every replay served exactly the input's
request count.  Streamed results carry a ``0.0`` p95 sentinel, so their
digest leaves p95 out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Tally:
    checked: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report) -> str:
    """Hash of a report's id, columns and full-precision row values."""
    rows = [(label, [repr(v) for v in values]) for label, values in report.rows.items()]
    return _sha(repr((report.experiment_id, report.columns, rows)))


def result_digest(result, streamed: bool) -> str:
    """Hash of one replay's simulated statistics (scheme name excluded, so
    a degraded scheme can be compared with Base)."""
    resp = result.responses
    summary = [resp.count, resp.mean_s, resp.max_s, resp.total_s]
    if not streamed:
        summary.append(resp.p95_s)
    disks = [
        (sorted(ds.time_s.items()), sorted(ds.energy_j.items()), ds.num_requests,
         ds.bytes_served, ds.num_spin_downs, ds.num_spin_ups, ds.num_rpm_shifts)
        for ds in result.disk_stats
    ]
    responses = hashlib.sha256()
    values = result.request_responses
    for i in range(0, len(values), 4096):
        responses.update(np.asarray(values[i:i + 4096], dtype="<f8"))
    return _sha(repr((
        result.execution_time_s, result.num_requests, result.num_directives,
        summary, disks, responses.hexdigest(),
    )))


# ---------------------------------------------------------------------- #
def check_paper(
    reports: dict, rendered: dict, artifact_dir: Path, pinned: dict
) -> Tally:
    """``reports`` maps each artifact id to its list of reports and
    ``rendered`` to the text the CLI would print for it."""
    tally = Tally()
    for exp_id, reps in reports.items():
        artifact = artifact_dir / f"{exp_id}.txt"
        if artifact.exists():
            tally.check(
                rendered[exp_id] == artifact.read_text(encoding="utf-8"),
                f"{exp_id}: rendered text differs from {artifact.name}",
            )
        for i, rep in enumerate(reps):
            tally.check(
                report_digest(rep) == pinned.get(f"{exp_id}/{i}"),
                f"{exp_id}: row values differ from the pinned digest",
            )
    return tally


def check_external(
    report, results: list, inputs: dict[str, int], pinned: dict | None
) -> Tally:
    """``results`` holds ``(source, scheme, digest, requests)`` per replay;
    ``inputs`` maps each source label to its request count; ``pinned`` is
    the reference for this seed, or ``None``."""
    tally = Tally()
    for label in inputs:
        for kind in ("E", "T"):
            base = report.value(f"{label} ({kind})", "Base")
            tally.check(base == 1.0, f"{label} ({kind}): Base row is {base!r}")
    digests = {(src, scheme): d for src, scheme, d, _ in results}
    for src, scheme, digest, requests in results:
        tally.check(
            requests == inputs[src],
            f"{src}/{scheme}: {requests} requests replayed, input has {inputs[src]}",
        )
        if scheme in ("CMTPM", "CMDRPM"):
            tally.check(
                digest == digests.get((src, "Base")),
                f"{src}/{scheme}: not bit-identical to Base",
            )
        if pinned is not None:
            tally.check(
                digest == pinned["results"].get(f"{src}/{scheme}"),
                f"{src}/{scheme}: result differs from the pinned digest",
            )
    if pinned is not None:
        tally.check(
            len(results) == len(pinned["results"]),
            f"{len(results)} replays, reference has {len(pinned['results'])}",
        )
        tally.check(
            report_digest(report) == pinned["report"],
            "trace_replay report differs from the pinned digest",
        )
    return tally
