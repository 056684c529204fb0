"""Shared experiment context: builds workloads and caches scheme suites.

Several artifacts consume the same runs (Table 2, Figures 3/4 and Table 3
all derive from the default-parameter suite), so the context memoizes
:class:`~repro.experiments.schemes.SchemeSuite` per (workload, layout
variant) — each benchmark is simulated once per configuration no matter how
many reports are generated.

Two further layers sit behind the in-memory memo:

* a **persistent result cache** (:class:`~repro.cache.ResultCache`, on by
  default under ``.repro-cache/``; disable with ``REPRO_CACHE=0`` or
  ``cache=False``) that survives across processes.  Every artifact's
  replays go through it — memoized suites, :meth:`ExperimentContext.
  run_suite` for transformed or re-laid-out programs, and
  :meth:`ExperimentContext.derived` for runs derived from a suite — so
  re-rendering artifacts after an unrelated edit replays nothing;
* a **process pool** (:class:`~repro.experiments.parallel.SuiteExecutor`,
  worker count from ``jobs=`` or ``$REPRO_JOBS``) that fans independent
  suite configurations — and the independent scheme replays inside a
  suite — out across cores.  With one worker (the default) everything runs
  serially in-process and behaviour is bit-identical to the serial engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..analysis.access import NestAccess, analyze_program
from ..analysis.cycles import ProgramTiming, compute_timing
from ..cache import ResultCache
from ..disksim.params import SubsystemParams
from ..faults import FaultConfig
from ..ir.program import Program
from ..layout.files import SubsystemLayout, default_layout
from ..workloads.base import Workload
from ..workloads.registry import WORKLOAD_NAMES, build_workload
from .parallel import SuiteExecutor, SuiteSpec
from .schemes import SCHEME_NAMES, SchemeSuite, run_schemes

__all__ = ["ExperimentContext"]

T = TypeVar("T")


@dataclass
class ExperimentContext:
    """Memoizing runner for the experiment modules."""

    params: SubsystemParams = field(default_factory=SubsystemParams)
    #: Worker processes; ``None`` resolves ``$REPRO_JOBS`` (default 1).
    jobs: int | None = None
    #: ``None`` resolves the environment (on by default), ``False`` (or any
    #: falsy value) disables, or pass a :class:`ResultCache` directly.
    cache: "ResultCache | bool | None" = None
    #: Optional fault regime (:class:`~repro.faults.FaultConfig`) applied to
    #: every suite this context runs; per-call ``faults`` overrides win.
    faults: FaultConfig | None = None
    #: Workloads for the ``trace_replay`` suite (``--trace-in``/``--synth``
    #: on the CLI); ``None`` lets the suite fall back to its defaults.
    trace_sources: "tuple | None" = None
    _workloads: dict[str, Workload] = field(default_factory=dict)
    _suites: dict[tuple, SchemeSuite] = field(default_factory=dict)
    _analyses: dict[str, tuple] = field(default_factory=dict, repr=False)
    _executor: SuiteExecutor | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.cache is None:
            self.cache = ResultCache.from_env()
        elif isinstance(self.cache, bool):
            self.cache = ResultCache() if self.cache else None

    # ------------------------------------------------------------------ #
    @property
    def result_cache(self) -> ResultCache | None:
        return self.cache if isinstance(self.cache, ResultCache) else None

    @property
    def executor(self) -> SuiteExecutor:
        if self._executor is None:
            self._executor = SuiteExecutor(
                jobs=self.jobs, cache=self.result_cache
            )
        return self._executor

    # ------------------------------------------------------------------ #
    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = build_workload(name)
        return self._workloads[name]

    def analysis(self, name: str) -> "tuple[tuple[NestAccess, ...], ProgramTiming]":
        """Layout-independent analysis of one benchmark, computed once.

        ``analyze_program`` and ``compute_timing`` depend only on the
        program IR, so a sweep over layouts/parameters (fig5–8 stripe or
        disk-count sweeps) reuses one result per program instead of
        re-analyzing at every sweep point.
        """
        memo = self._analyses.get(name)
        if memo is None:
            program = self.workload(name).program
            memo = self._analyses[name] = (
                tuple(analyze_program(program)),
                compute_timing(program),
            )
        return memo

    def default_layout_for(
        self, workload: Workload, params: SubsystemParams | None = None
    ) -> SubsystemLayout:
        p = params or self.params
        return default_layout(workload.program.arrays, num_disks=p.num_disks)

    def suite(
        self,
        name: str,
        params: SubsystemParams | None = None,
        layout: SubsystemLayout | None = None,
        key: tuple = (),
        faults: FaultConfig | None = None,
    ) -> SchemeSuite:
        """Scheme suite for one benchmark under one configuration.

        ``key`` must uniquely tag any non-default ``params``/``layout``/
        ``faults`` combination (sweep modules pass e.g.
        ``("stripe_size", 32768)`` or ``("fault_severity", 0.1)``).
        """
        cache_key = (name, key)
        if cache_key not in self._suites:
            wl = self.workload(name)
            p = params or self.params
            lay = layout or self.default_layout_for(wl, p)
            executor = self.executor
            accesses, timing = self.analysis(name)
            self._suites[cache_key] = run_schemes(
                wl.program,
                lay,
                p,
                wl.trace_options,
                wl.estimation,
                schemes=SCHEME_NAMES,
                accesses=accesses,
                timing=timing,
                cache=self.result_cache,
                executor=None if executor.serial else executor,
                faults=faults if faults is not None else self.faults,
            )
        return self._suites[cache_key]

    def run_suite(
        self,
        name: str,
        program: Program,
        layout: SubsystemLayout,
        schemes: Sequence[str],
        accesses: Sequence[NestAccess] | None = None,
        timing: ProgramTiming | None = None,
    ) -> SchemeSuite:
        """An unmemoized scheme suite of a variant of benchmark ``name``
        (a transformed program and/or a re-laid-out array set), under the
        context's params, fault regime and result cache."""
        wl = self.workload(name)
        return run_schemes(
            program,
            layout,
            self.params,
            wl.trace_options,
            wl.estimation,
            schemes=schemes,
            accesses=accesses,
            timing=timing,
            cache=self.result_cache,
            faults=self.faults,
        )

    def derived(self, suite: SchemeSuite, tag: str, compute: Callable[[], T]) -> T:
        """A run derived from ``suite`` that is not one of its schemes,
        served from the result cache under ``scheme_key(suite.fingerprint,
        tag)``.  ``tag`` must name everything the output adds beyond the
        suite's configuration; without a cache, ``compute()`` just runs."""
        cache = self.result_cache
        if cache is None or suite.fingerprint is None:
            return compute()
        return cache.load_or_compute(
            cache.scheme_key(suite.fingerprint, tag), compute
        )

    # ------------------------------------------------------------------ #
    def prefetch(self, specs: Sequence[SuiteSpec]) -> None:
        """Compute any not-yet-memoized suites, in parallel when ``jobs>1``.

        Each spec's ``key`` must match the ``key`` later passed to
        :meth:`suite` for the same configuration.  With one worker this is
        a no-op: :meth:`suite` computes lazily.
        """
        missing = [s for s in specs if (s.workload, s.key) not in self._suites]
        if not missing:
            return
        executor = self.executor
        if executor.serial:
            return
        for spec, suite in zip(missing, executor.run_suites(missing)):
            self._suites[(spec.workload, spec.key)] = suite

    def prefetch_defaults(self, names: Sequence[str] | None = None) -> None:
        """Prefetch the default-configuration suite of each benchmark."""
        self.prefetch(
            [
                SuiteSpec(name, params=self.params, faults=self.faults)
                for name in names or WORKLOAD_NAMES
            ]
        )

    def all_suites(self) -> dict[str, SchemeSuite]:
        """Default-configuration suites for the whole Table 2 benchmark set."""
        self.prefetch_defaults()
        return {name: self.suite(name) for name in WORKLOAD_NAMES}

    # ------------------------------------------------------------------ #
    def cache_stats(self) -> dict | None:
        """Persistent-cache hit/miss stats for reports and run manifests.

        Pool workers' lookups are included: :class:`SuiteExecutor` adds
        each worker's counts to this cache when its result comes back.
        """
        cache = self.result_cache
        return cache.stats() if cache is not None else None
