"""Bit-identity of two replay results, shared by the equivalence suites.

A plain module rather than a ``conftest`` attribute: ``tests/obs`` has a
``conftest.py`` of its own, so ``from conftest import ...`` resolves to
whichever one was collected first when both directories run together.
"""

from __future__ import annotations


def _assert_results_identical(a, b) -> None:
    """Field-by-field equality of two SimulationResults (no tolerance —
    the cache and the parallel engine must be *bit*-identical to the
    serial uncached path)."""
    assert a.scheme == b.scheme
    assert a.program_name == b.program_name
    assert a.execution_time_s == b.execution_time_s
    assert a.num_requests == b.num_requests
    assert a.num_directives == b.num_directives
    assert a.responses == b.responses
    assert a.request_responses == b.request_responses
    assert a.busy_intervals == b.busy_intervals
    assert len(a.disk_stats) == len(b.disk_stats)
    for da, db in zip(a.disk_stats, b.disk_stats):
        assert da == db  # DiskStats is a dataclass: compares every field
