"""Parallel engine: jobs resolution, CPU clamp, serial equivalence.

The equivalence tests force real worker processes (``clamp_to_cpus=False``)
so they exercise the pool machinery even on a single-core machine.
"""

import re

import pytest

from repro.analysis.cycles import EstimationModel
from repro.disksim.params import SubsystemParams
from repro.experiments.parallel import (
    ReplayTask,
    SuiteExecutor,
    SuiteSpec,
    _cgroup_quota_cpus,
    available_cpus,
    resolve_jobs,
)
from repro.experiments.schemes import SCHEME_NAMES, run_schemes, run_workload
from repro.util.errors import ReproError
from repro.workloads.registry import build_workload

#: Two benchmarks is enough to cover the suite grain without making the
#: unit suite crawl (each suite is 7 full replays).
WORKLOADS = ("wupwise", "mgrid")


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert resolve_jobs() >= 1
        assert resolve_jobs(0) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ReproError):
            resolve_jobs()

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestExecutorShape:
    def test_serial_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert SuiteExecutor().serial

    def test_clamped_to_available_cpus(self):
        ex = SuiteExecutor(jobs=10_000)
        assert ex.requested_jobs == 10_000
        assert ex.jobs == available_cpus()

    def test_clamp_opt_out(self):
        ex = SuiteExecutor(jobs=4, clamp_to_cpus=False)
        assert ex.jobs == 4
        assert not ex.serial


class TestCgroupQuota:
    """cgroup v2 ``cpu.max`` parsing: the container's CPU quota must cap
    ``available_cpus`` even when the scheduler affinity mask is wider."""

    @pytest.mark.parametrize(
        ("content", "expected"),
        [
            ("150000 100000\n", 2),   # fractional quotas round up
            ("200000 100000\n", 2),
            ("100000 100000\n", 1),
            ("50000 100000\n", 1),    # sub-core quotas floor at one CPU
            ("max 100000\n", None),   # unlimited
            ("garbage\n", None),
            ("", None),
        ],
    )
    def test_quota_parsing(self, tmp_path, content, expected):
        path = tmp_path / "cpu.max"
        path.write_text(content)
        assert _cgroup_quota_cpus(path) == expected

    def test_missing_file_means_no_quota(self, tmp_path):
        assert _cgroup_quota_cpus(tmp_path / "absent") is None

    def test_available_cpus_at_least_one(self):
        assert available_cpus() >= 1


class TestEquivalence:
    def test_suite_grain_matches_serial(self, assert_results_identical):
        """Fanning whole (workload, config) suites out over worker
        processes yields results identical to the serial loop."""
        serial = [
            run_workload(build_workload(name), schemes=SCHEME_NAMES)
            for name in WORKLOADS
        ]
        ex = SuiteExecutor(jobs=2, clamp_to_cpus=False)
        parallel = ex.run_suites([SuiteSpec(name) for name in WORKLOADS])
        for ser, par in zip(serial, parallel):
            assert ser.program_name == par.program_name
            assert set(ser.results) == set(par.results)
            for scheme in SCHEME_NAMES:
                assert_results_identical(ser.results[scheme], par.results[scheme])

    def test_replay_grain_matches_serial(
        self, phase_program, phase_layout, small_trace_options,
        assert_results_identical,
    ):
        """Within one suite, parallel non-Base replays equal serial ones."""
        params = SubsystemParams(num_disks=4)
        est = EstimationModel(relative_error=0.05)
        serial = run_schemes(
            phase_program, phase_layout, params, small_trace_options, est
        )
        ex = SuiteExecutor(jobs=2, clamp_to_cpus=False)
        parallel = run_schemes(
            phase_program,
            phase_layout,
            params,
            small_trace_options,
            est,
            executor=ex,
        )
        for scheme in SCHEME_NAMES:
            assert_results_identical(
                serial.results[scheme], parallel.results[scheme]
            )

    def test_results_keep_submission_order(self):
        ex = SuiteExecutor(jobs=2, clamp_to_cpus=False)
        tasks = [
            ReplayTask(
                scheme="DRPM",
                trace=trace,
                params=SubsystemParams(num_disks=trace.layout.num_disks),
            )
            for trace in self._two_traces()
        ]
        out = ex.run_replays(tasks)
        assert [r.program_name for r in out] == [
            t.trace.program_name for t in tasks
        ]

    @staticmethod
    def _two_traces():
        from repro.trace.generator import generate_trace

        for name in WORKLOADS:
            wl = build_workload(name)
            from repro.layout.files import default_layout

            layout = default_layout(
                wl.program.arrays, num_disks=SubsystemParams().num_disks
            )
            yield generate_trace(wl.program, layout, wl.trace_options)


class TestCacheCounts:
    def test_warm_run_counts_match_across_worker_counts(
        self, tmp_path, monkeypatch, capsys
    ):
        """A pooled run's cache summary counts its workers' lookups, so a
        warm ``fig5`` reports the same hits and misses at ``-j 1`` and
        ``-j 2``."""
        from repro.experiments import cli, parallel

        # Two workers even on a one-CPU host, so the pool really runs.
        monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
        cache_dir = str(tmp_path / "cache")
        assert cli.main(["--cache-dir", cache_dir, "fig5"]) == 0
        capsys.readouterr()
        counts = {}
        for jobs in ("1", "2"):
            assert cli.main(["-j", jobs, "--cache-dir", cache_dir, "fig5"]) == 0
            err = capsys.readouterr().err
            hits, misses = re.search(r"(\d+) hits, (\d+) misses", err).groups()
            counts[jobs] = (int(hits), int(misses))
        assert counts["1"] == counts["2"]
        assert counts["1"][0] > 0 and counts["1"][1] == 0
