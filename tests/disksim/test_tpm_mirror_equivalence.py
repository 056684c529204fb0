"""Reactive TPM in the segmented mirror ⇔ the stepwise state machine.

The segmented engine runs reactive TPM's autonomous spin-down fires and
the standby wake-ups that follow them as mirror edits: ``Disk.advance``'s
fire rule and ``Disk.serve``'s wait/spin-up arithmetic applied to the
per-disk mirror, with no escape to the exact state machine.  Only a
spin-up that draws a fault, a fault-flagged sub-request, and a queued
deferred call still escape.  These cases pin that down on on/off
synthetic workloads, whose off-periods outlast the idleness threshold:

* whole and streamed replays (several chunk sizes), open- and
  closed-loop, bit-identical to the stepwise whole-trace replay, with
  every ``fallback_*`` escape counter at zero;
* timeline recording: identical segment streams, including the
  ``tpm-auto`` and ``standby-wake`` transition causes;
* spin-up fault injection: still bit-identical, with the faulted wake-ups
  counted as ``fallback_spinup_fault`` escapes;
* trace directives on auto-spin-down disks (boundary-adjacent placements),
  whose edits run the fire check in mirror.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from result_equality import _assert_results_identical  # noqa: E402
from strategies import boundary_adjacent_traces, fault_configs  # noqa: E402

from repro.controllers.tpm import ReactiveTPM
from repro.disksim.params import SubsystemParams
from repro.disksim.replay import ReplayPlan
from repro.disksim.simulator import (
    replay_coverage,
    reset_replay_coverage,
    simulate,
)
from repro.disksim.timeline import (
    CAUSE_STANDBY_WAKE,
    CAUSE_TPM_AUTO,
    TimelineRecorder,
)
from repro.faults import FaultConfig, FaultRates
from repro.trace.synth import SynthConfig, synth_stream, synth_trace
from repro.util.errors import SimulationError

NUM_DISKS = 4
NUM_REQUESTS = 9000
THRESHOLDS = (0.3, 1.0, 1e9)

#: On/off shapes: ``sparse`` — 400 req/s in bursts of ~16 with ~1.5 s
#: off-periods, so most gaps outlast the threshold (fires on nearly every
#: burst, open- and closed-loop); ``dense`` — 2000 req/s in bursts of ~64
#: with ~0.2 s off-periods, so closed-loop replays mix fires with
#: long runs of plain serves.
SHAPES = {
    "sparse": dict(rate_hz=400.0, burst_len=16.0, off_s=1.5),
    "dense": dict(rate_hz=2000.0, burst_len=64.0, off_s=0.2),
}

_SLOW_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _config(shape: str = "sparse", chunk_requests: int = 65536) -> SynthConfig:
    return SynthConfig(
        num_requests=NUM_REQUESTS, num_disks=NUM_DISKS, model="onoff",
        seed=11, chunk_requests=chunk_requests, **SHAPES[shape],
    )


@pytest.fixture(scope="module")
def onoff_trace():
    return synth_trace(_config())


def _replay(trace, threshold, engine, open_loop, **kwargs):
    reset_replay_coverage()
    result = simulate(
        trace, SubsystemParams(num_disks=NUM_DISKS), ReactiveTPM(threshold),
        engine=engine, open_loop=open_loop, **kwargs,
    )
    return result, replay_coverage()


def _assert_no_tpm_escapes(cov, *allowed) -> None:
    """No sub-request or call escaped to the state machine except for the
    ``allowed`` reasons: fires and wake-ups have no escape of their own."""
    escapes = {
        k: v for k, v in cov.items() if k.startswith("fallback_") and k not in allowed
    }
    assert escapes == dict.fromkeys(escapes, 0), escapes


def _assert_stream_matches(streamed, whole) -> None:
    """Streamed == whole modulo the response fold (sequential total, p95
    sentinel) — the streamed path's documented differences."""
    assert streamed.execution_time_s == whole.execution_time_s
    assert streamed.num_requests == whole.num_requests
    assert streamed.disk_stats == whole.disk_stats
    assert streamed.responses.count == whole.responses.count
    assert streamed.responses.max_s == whole.responses.max_s
    assert streamed.responses.total_s == pytest.approx(
        whole.responses.total_s, rel=1e-12, abs=1e-15
    )


@pytest.mark.parametrize("open_loop", [True, False], ids=["open", "closed"])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_whole_onoff_tpm_bit_identical(shape, threshold, open_loop):
    trace = synth_trace(_config(shape))
    ref, _ = _replay(trace, threshold, "stepwise", open_loop)
    seg, cov = _replay(trace, threshold, "segmented", open_loop)
    _assert_results_identical(seg, ref)
    _assert_no_tpm_escapes(cov)
    assert cov["subrequests_stepwise"] == 0
    if shape == "sparse" and threshold < 1e9:
        assert ref.total_spin_downs > 0
        assert ref.total_spin_ups > 0


@pytest.mark.parametrize("open_loop", [True, False], ids=["open", "closed"])
@pytest.mark.parametrize("chunk", [997, 4096, 65536])
@pytest.mark.parametrize("threshold", (0.3, 1.0))
def test_streamed_onoff_tpm_bit_identical(threshold, chunk, open_loop):
    cfg = _config(chunk_requests=chunk)
    ref, _ = _replay(synth_trace(cfg), threshold, "stepwise", open_loop)
    for engine in ("stepwise", "segmented"):
        res, cov = _replay(synth_stream(cfg), threshold, engine, open_loop)
        _assert_stream_matches(res, ref)
        if engine == "segmented":
            _assert_no_tpm_escapes(cov)
            assert cov["subrequests_stepwise"] == 0


@pytest.mark.parametrize("open_loop", [True, False], ids=["open", "closed"])
def test_timeline_causes_identical(onoff_trace, open_loop):
    streams = {}
    for engine in ("stepwise", "segmented"):
        rec = TimelineRecorder()
        res, cov = _replay(
            onoff_trace, 0.3, engine, open_loop, recorder=rec
        )
        streams[engine] = (res, {d: rec.segments(d) for d in rec.disks})
        if engine == "segmented":
            _assert_no_tpm_escapes(cov)
    _assert_results_identical(streams["segmented"][0], streams["stepwise"][0])
    assert streams["segmented"][1] == streams["stepwise"][1]
    causes = {
        seg.cause for segs in streams["segmented"][1].values() for seg in segs
    }
    assert {CAUSE_TPM_AUTO, CAUSE_STANDBY_WAKE} <= causes


@pytest.mark.parametrize("open_loop", [True, False], ids=["open", "closed"])
@pytest.mark.parametrize("recording", [False, True], ids=["plain", "timeline"])
def test_spinup_faults_fall_back_and_match(onoff_trace, open_loop, recording):
    faults = FaultConfig(
        seed=3,
        rates=FaultRates(spinup_fail_p=0.3, spinup_jitter_p=0.5),
    )
    out = {}
    for engine in ("stepwise", "segmented"):
        rec = TimelineRecorder() if recording else None
        res, cov = _replay(
            onoff_trace, 0.3, engine, open_loop, faults=faults, recorder=rec
        )
        out[engine] = (res, cov, rec)
    ref, _, ref_rec = out["stepwise"]
    seg, cov, seg_rec = out["segmented"]
    _assert_results_identical(seg, ref)
    assert sum(s.num_spinup_failures for s in ref.disk_stats) > 0
    assert cov["fallback_spinup_fault"] > 0
    assert cov["subrequests_stepwise"] >= cov["fallback_spinup_fault"]
    _assert_no_tpm_escapes(cov, "fallback_spinup_fault")
    if recording:
        assert {d: seg_rec.segments(d) for d in seg_rec.disks} == {
            d: ref_rec.segments(d) for d in ref_rec.disks
        }


def test_closed_loop_vector_windows_engage():
    """Reactive TPM and open-loop replays run on the scalar mirror
    kernel; a plain closed-loop replay of the same trace takes the vector
    kernel."""
    trace = synth_trace(_config("dense"))
    ref, _ = _replay(trace, 1.0, "stepwise", False)
    seg, cov = _replay(trace, 1.0, "segmented", False)
    _assert_results_identical(seg, ref)
    assert ref.total_spin_downs > 0
    assert cov["subrequests_vector"] == 0
    _assert_no_tpm_escapes(cov)
    params = SubsystemParams(num_disks=NUM_DISKS)
    for open_loop in (True, False):
        reset_replay_coverage()
        simulate(trace, params, engine="segmented", open_loop=open_loop)
        vector = replay_coverage()["subrequests_vector"]
        assert vector == 0 if open_loop else vector > 0


def _run_or_error(trace, params, controller, **kwargs):
    try:
        return simulate(trace, params, controller, **kwargs), None
    except SimulationError as exc:
        return None, str(exc)


@_SLOW_SETTINGS
@given(data=st.data())
def test_directives_on_auto_disks_bit_identical(data):
    """Trace directives hugging issue/completion/transition edges on disks
    that also run an auto spin-down policy: the edit runs ``advance``'s
    fire check in mirror first, and must match the state machine."""
    trace, params = data.draw(boundary_adjacent_traces())
    faults = data.draw(st.none() | fault_configs())
    threshold = data.draw(st.sampled_from([0.04, 0.3, 1.0]))
    plan = ReplayPlan.for_trace(trace)
    out = {}
    for engine in ("stepwise", "segmented"):
        reset_replay_coverage()
        out[engine] = _run_or_error(
            trace, params, ReactiveTPM(threshold), collect_busy_intervals=True,
            plan=plan, engine=engine, faults=faults,
        ) + (replay_coverage(),)
    (ref, ref_err, _), (seg, seg_err, cov) = out["stepwise"], out["segmented"]
    # set_RPM on a disk the policy spun down is invalid in both engines.
    assert (seg_err is None) == (ref_err is None)
    if ref_err is None:
        _assert_results_identical(seg, ref)
        # A directive landing mid-transition still escapes; faults add the
        # spin-up and fault-flagged escapes.
        allowed = ["fallback_transition_entangled"]
        if faults is not None:
            allowed += ["fallback_spinup_fault", "fallback_fault_flagged"]
        _assert_no_tpm_escapes(cov, *allowed)


def test_streamed_and_whole_share_chunk_state():
    """A stream whose chunks end with disks in standby carries the standby
    state across the chunk boundary through the mirror refresh."""
    cfg = replace(_config(chunk_requests=64), num_requests=2000)
    whole, _ = _replay(synth_trace(cfg), 0.3, "stepwise", True)
    res, cov = _replay(synth_stream(cfg), 0.3, "segmented", True)
    _assert_stream_matches(res, whole)
    _assert_no_tpm_escapes(cov)
