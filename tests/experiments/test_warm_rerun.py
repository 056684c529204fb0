"""Every artifact goes through the result cache and the context's faults.

A second pass of the cache-backed artifacts against the cache the first
pass filled must replay nothing, plan nothing, and render the same text;
with a fault regime on the context, every replay those artifacts run must
carry it.
"""

import sys

import pytest

from repro.cache import ResultCache
from repro.disksim import simulator
from repro.disksim.replay import ReplayPlan
from repro.experiments import (
    ablations,
    extensions,
    fig2,
    fig5_6,
    fig7_8,
    fig13,
    pdc_experiment,
)
from repro.experiments.runner import ExperimentContext
from repro.faults import FaultConfig, FaultRates


def _artifacts(ctx):
    """Small benchmark subsets of the artifacts that used to bypass the
    cache (fig2 is its own fixed example)."""
    return {
        "fig2": lambda: fig2.run(ctx),
        "fig13": lambda: fig13.run(ctx, versions=("LF", "TL+DL"), benchmarks=("swim",)),
        "ext_multitiling": lambda: extensions.multi_nest_tiling(ctx, benchmarks=("mesa",)),
        "ext_pdc": lambda: pdc_experiment.run(ctx, benchmarks=("swim",)),
        "ablation_preactivation": lambda: ablations.preactivation_ablation(
            ctx, benchmarks=("swim",)
        ),
        "ablation_estimation_error": lambda: ablations.estimation_error_sweep(
            ctx, benchmark="swim", errors=(0.0, 0.2)
        ),
    }


def _replace_everywhere(monkeypatch, orig, replacement) -> None:
    """Patch ``orig`` in every ``repro`` namespace that imported it."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, replacement)


def test_warm_rerun_replays_and_plans_nothing(tmp_path, monkeypatch):
    """Second pass: no replay, no replay plan, no planner call, and the
    same rendered text."""
    cold_ctx = ExperimentContext(cache=ResultCache(tmp_path))
    first = {exp_id: run().render() for exp_id, run in _artifacts(cold_ctx).items()}

    from repro.power import insertion

    def _no_planning(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("a warm pass planned power calls")

    def _no_replay_setup(cls, *args, **kwargs):  # pragma: no cover
        raise AssertionError("a warm pass built a replay plan")

    _replace_everywhere(monkeypatch, insertion.plan_power_calls, _no_planning)
    monkeypatch.setattr(ReplayPlan, "for_trace", classmethod(_no_replay_setup))
    warm_ctx = ExperimentContext(cache=ResultCache(tmp_path))
    for exp_id, run in _artifacts(warm_ctx).items():
        before = simulator.replay_coverage()
        text = run().render()
        after = simulator.replay_coverage()
        assert {k: after[k] - before.get(k, 0) for k in after} == dict.fromkeys(
            after, 0
        ), exp_id
        assert text == first[exp_id], exp_id
    assert warm_ctx.result_cache.misses == 0


REGIME = FaultConfig(seed=5, rates=FaultRates.from_severity(0.1))


@pytest.mark.parametrize(
    "artifact",
    [
        lambda ctx: fig13.run(ctx, versions=("LF",), benchmarks=("swim",)),
        lambda ctx: extensions.multi_nest_tiling(ctx, benchmarks=("mesa",)),
        lambda ctx: pdc_experiment.run(ctx, benchmarks=("swim",)),
        lambda ctx: ablations.preactivation_ablation(ctx, benchmarks=("swim",)),
        lambda ctx: ablations.estimation_error_sweep(ctx, errors=(0.1,)),
        lambda ctx: ablations.transition_speed_ablation(ctx, per_step_s=(0.2,)),
    ],
    ids=[
        "fig13", "ext_multitiling", "ext_pdc", "ablation_preactivation",
        "ablation_estimation_error", "ablation_transition_speed",
    ],
)
def test_fault_regime_reaches_every_replay(artifact, monkeypatch):
    _controllers_under_regime(artifact, monkeypatch)


def test_fault_regime_reaches_pdc_atpm(monkeypatch):
    controllers = _controllers_under_regime(
        lambda ctx: pdc_experiment.run(ctx, benchmarks=("swim",)), monkeypatch
    )
    assert "AdaptiveTPM" in controllers


@pytest.mark.parametrize("sweep", [fig5_6.run, fig7_8.run], ids=["fig5_6", "fig7_8"])
def test_fault_regime_reaches_prefetched_sweeps(sweep, monkeypatch, tmp_path):
    """Sweep configurations prefetched through the process pool carry the
    regime too: the pool's replays run in workers, so check the specs."""
    specs = []
    orig = ExperimentContext.prefetch

    def spy(self, batch):
        specs.extend(batch)
        return orig(self, batch)

    monkeypatch.setattr(ExperimentContext, "prefetch", spy)
    sweep(ExperimentContext(cache=ResultCache(tmp_path), faults=REGIME, jobs=2))
    assert specs
    assert [spec.faults for spec in specs] == [REGIME] * len(specs), specs


def _controllers_under_regime(artifact, monkeypatch, ctx=None) -> set[str]:
    """Run ``artifact`` with :data:`REGIME` on the context; assert every
    replay carried it and return the controller types replayed."""
    seen = []
    orig = simulator.simulate

    def spy(trace, params, controller=None, *args, **kwargs):
        seen.append((type(controller).__name__, kwargs.get("faults")))
        return orig(trace, params, controller, *args, **kwargs)

    _replace_everywhere(monkeypatch, orig, spy)
    artifact(ctx or ExperimentContext(cache=False, faults=REGIME))
    assert seen
    assert [faults for _, faults in seen] == [REGIME] * len(seen), seen
    return {name for name, _ in seen}
