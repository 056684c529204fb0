"""Result-cache payload encoding and the loader's GC handling.

``SimulationResult`` pickles each disk's busy intervals as one ``(n, 2)``
float64 column array and rebuilds the same ``BusyInterval`` tuples on
load; ``ResultCache.load`` unpickles with the cyclic GC paused and must
always put the collector back the way it found it.
"""

import gc
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.analysis.cycles import EstimationModel
from repro.cache import CACHE_VERSION, ResultCache, fingerprint
from repro.controllers.base import Controller
from repro.disksim.params import SubsystemParams
from repro.disksim.simulator import simulate
from repro.disksim.stats import BusyInterval
from repro.experiments.schemes import run_schemes
from repro.trace.synth import SynthConfig, synth_stream

PARAMS = SubsystemParams(num_disks=4)


@pytest.fixture(scope="module")
def base_result():
    from repro.ir.builder import ProgramBuilder
    from repro.layout.files import default_layout
    from repro.trace.generator import TraceOptions
    from repro.util.units import KB

    b = ProgramBuilder("payload")
    a = b.array("A", (64 * 1024,))
    with b.nest("i", 0, 64 * 1024) as i:
        b.stmt(reads=[a[i]], cycles=2.0e3)
    program = b.build()
    layout = default_layout(program.arrays, num_disks=4, stripe_factor=4)
    options = TraceOptions(
        buffer_cache_bytes=512 * KB, cache_line_bytes=8 * KB,
        max_request_bytes=8 * KB,
    )
    suite = run_schemes(
        program, layout, PARAMS, options, EstimationModel(0.0),
        schemes=("Base",),
    )
    return suite.base


def _streamed_result():
    stream = synth_stream(
        SynthConfig(num_requests=3000, num_disks=4, seed=3, chunk_requests=1024)
    )
    return simulate(stream, PARAMS, Controller(), open_loop=True)


def _variants(base):
    """Base with intervals, one disk emptied, none at all, and streamed."""
    busy = base.busy_intervals
    one_empty = replace(base, busy_intervals=busy[:-1] + ((),))
    return {
        "base": base,
        "empty-disk": one_empty,
        "no-intervals": replace(base, busy_intervals=()),
        "streamed": _streamed_result(),
    }


def _assert_field_identical(a, b) -> None:
    """Every dataclass field equal, including ``compare=False`` metadata,
    and the intervals rebuilt as the same types (ints and floats)."""
    for f in fields(a):
        assert getattr(a, f.name) == getattr(b, f.name), f.name
    for disk_a, disk_b in zip(a.busy_intervals, b.busy_intervals, strict=True):
        assert isinstance(disk_b, tuple)
        for iv_a, iv_b in zip(disk_a, disk_b, strict=True):
            assert type(iv_b) is BusyInterval
            assert [type(v) for v in iv_b] == [type(v) for v in iv_a]


def test_base_has_intervals_on_every_disk(base_result):
    assert len(base_result.busy_intervals) == PARAMS.num_disks
    assert all(base_result.busy_intervals)


@pytest.mark.parametrize(
    "variant", ["base", "empty-disk", "no-intervals", "streamed"]
)
def test_round_trips_are_field_identical(base_result, variant, tmp_path):
    result = _variants(base_result)[variant]
    via_pickle = pickle.loads(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    _assert_field_identical(result, via_pickle)

    cache = ResultCache(tmp_path)
    key = fingerprint("payload", variant)
    cache.store(key, result)
    _assert_field_identical(result, ResultCache(tmp_path).load(key))


def test_intervals_pickle_as_columns(base_result):
    state = base_result.__getstate__()
    for disk, columns in enumerate(state["busy_intervals"]):
        assert isinstance(columns, np.ndarray)
        assert columns.dtype == np.float64
        assert columns.shape == (len(base_result.busy_intervals[disk]), 2)
    # The in-memory object is untouched by pickling.
    assert isinstance(base_result.busy_intervals[0][0], BusyInterval)


def test_interval_naming_another_disk_survives(base_result):
    """The columns drop the disk index, so a disk whose intervals name
    another disk keeps its tuples verbatim."""
    odd = replace(
        base_result,
        busy_intervals=((BusyInterval(1, 0.0, 1.0),),) + base_result.busy_intervals[1:],
    )
    _assert_field_identical(odd, pickle.loads(pickle.dumps(odd)))


def test_previous_version_entry_misses(base_result, tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("payload", "v2")
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({"version": 2, "payload": base_result}))
    assert CACHE_VERSION == 3
    assert cache.load(key) is None
    assert cache.misses == 1


class _Explodes:
    def __reduce__(self):
        return (_raise, ())


def _raise():
    raise RuntimeError("unpickle failed")


@pytest.fixture()
def gc_restored():
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:  # pragma: no cover - pytest runs with the GC on
        gc.disable()


@pytest.mark.parametrize("entry", ["hit", "corrupt", "raising", "absent"])
@pytest.mark.parametrize("enabled_before", [True, False])
def test_load_restores_gc_state(tmp_path, gc_restored, entry, enabled_before):
    cache = ResultCache(tmp_path)
    key = fingerprint("gc", entry)
    if entry == "hit":
        cache.store(key, {"answer": 42})
    elif entry == "corrupt":
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x80not a pickle")
    elif entry == "raising":
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            pickle.dumps({"version": CACHE_VERSION, "payload": _Explodes()})
        )
    if enabled_before:
        gc.enable()
    else:
        gc.disable()
    loaded = cache.load(key)
    assert gc.isenabled() is enabled_before
    assert loaded == ({"answer": 42} if entry == "hit" else None)


def test_load_or_compute_stores_once(tmp_path):
    cache = ResultCache(tmp_path)
    key = fingerprint("memo")
    calls = []

    def compute():
        calls.append(1)
        return ("value", len(calls))

    assert cache.load_or_compute(key, compute) == ("value", 1)
    assert cache.load_or_compute(key, compute) == ("value", 1)
    assert ResultCache(tmp_path).load_or_compute(key, compute) == ("value", 1)
    assert len(calls) == 1
