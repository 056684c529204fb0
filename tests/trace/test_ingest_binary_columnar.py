"""Columnar binary ingest ⇔ the record-at-a-time reader it replaced.

The binary readers decode whole blocks with one ``np.frombuffer`` and
validate with array ops.  The reference below is the previous reader —
one ``struct.unpack`` and one validation call per record, with the
scan/ingest/chunk consumers checking time order record by record.  On
valid files every entry point must produce identical records, scans and
columns; on malformed ones it must raise a :class:`TraceError` with the
identical text — the same first bad record, the same check winning when
one record fails several, and time-order errors on earlier records
winning over a later record's corruption or a truncation.
"""

import struct
import sys
import tempfile
from math import isfinite
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from strategies import ingest_records  # noqa: E402

from repro.trace import ingest
from repro.trace.ingest import (
    BINARY_MAGIC,
    IngestScan,
    device_layout,
    ingest_trace,
    read_records,
    scan_trace,
    stream_ingest,
)
from repro.util.errors import TraceError
from repro.util.units import SECTOR_BYTES

_RECORD = struct.Struct("<dIqqB")
_COUNT = struct.Struct("<Q")

_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------- #
# Reference: the record-at-a-time reader and its consumers.
# --------------------------------------------------------------------- #
def _ref_check(where, arrival, lba, nbytes):
    if not isfinite(arrival) or arrival < 0:
        raise TraceError(f"{where}: bad arrival time {arrival!r}")
    if lba < 0:
        raise TraceError(f"{where}: negative LBA {lba}")
    if nbytes <= 0:
        raise TraceError(f"{where}: request size must be positive, got {nbytes}")


def _ref_records(path):
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
        if head != BINARY_MAGIC:
            raise TraceError(
                f"bad binary trace magic {head!r} (expected {BINARY_MAGIC!r})"
            )
        count_raw = fh.read(_COUNT.size)
        if len(count_raw) != _COUNT.size:
            raise TraceError("truncated binary trace header")
        (count,) = _COUNT.unpack(count_raw)
        for recno in range(count):
            raw = fh.read(_RECORD.size)
            if len(raw) != _RECORD.size:
                raise TraceError(
                    f"truncated binary trace: record {recno} of {count} "
                    f"is incomplete"
                )
            arrival, device, lba, nbytes, kind = _RECORD.unpack(raw)
            if kind not in (0, 1):
                raise TraceError(
                    f"record {recno}: bad request kind byte {kind} "
                    "(expected 0=read or 1=write)"
                )
            _ref_check(f"record {recno}", arrival, lba, nbytes)
            yield arrival, device, lba, nbytes, bool(kind)
        if fh.read(1):
            raise TraceError(
                f"binary trace has trailing bytes after {count} records"
            )


def _ref_order(n, arrival, prev, hint="(trace must be time-ordered)"):
    if arrival < prev:
        raise TraceError(
            f"record {n}: arrival {arrival} precedes previous {prev} {hint}"
        )


def _ref_scan(path, strict=True):
    n, max_dev, last, max_extent, prev = 0, -1, 0.0, 0, -1.0
    for arrival, device, lba, nbytes, _ in _ref_records(path):
        if strict:
            _ref_order(n, arrival, prev)
        prev = arrival
        n += 1
        max_dev = max(max_dev, device)
        if arrival > last:
            last = arrival
        max_extent = max(max_extent, lba * SECTOR_BYTES + nbytes)
    return IngestScan(n, max_dev + 1, last, max_extent)


def _ref_rows(path, strict, hint):
    rows = []
    prev = -1.0
    for rec in _ref_records(path):
        if strict:
            _ref_order(len(rows), rec[0], prev, hint)
        prev = rec[0]
        rows.append(rec)
    return rows


def _ref_build(build, rows, base):
    return build(
        [r[0] for r in rows], [r[1] for r in rows],
        [r[2] * SECTOR_BYTES for r in rows], [r[3] for r in rows],
        [r[4] for r in rows], base,
    )


def _ref_ingest(path, num_disks, sort):
    scan = _ref_scan(path, strict=not sort)
    if scan.num_records == 0:
        raise TraceError(f"trace {path.name!r} contains no requests")
    layout = device_layout(scan.num_devices, num_disks, "modulo", scan.max_extent_bytes)
    build = ingest._columns_factory(layout, scan.num_devices)
    rows = _ref_rows(
        path, not sort,
        "(trace must be time-ordered; pass sort=True to reorder a "
        "whole-file ingest)",
    )
    if sort:
        order = np.argsort(np.array([r[0] for r in rows]), kind="stable")
        rows = [rows[i] for i in order]
    return _ref_build(build, rows, 0)


def _ref_chunks(
    path, num_disks, chunk, num_devices=None, capacity=None, scan=True
):
    # ``stream_ingest`` scans up front (the stream's nominal span); a file
    # rewritten after the stream was opened is only read chunk by chunk.
    if scan:
        scan = _ref_scan(path)
    if num_devices is None:
        if scan.num_records == 0:
            raise TraceError(f"trace {path.name!r} contains no requests")
        num_devices, capacity = scan.num_devices, scan.max_extent_bytes
    layout = device_layout(num_devices, num_disks, "modulo", capacity)
    build = ingest._columns_factory(layout, num_devices)
    rows, base, prev = [], 0, -1.0
    for rec in _ref_records(path):
        _ref_order(base + len(rows), rec[0], prev)
        prev = rec[0]
        rows.append(rec)
        if len(rows) >= chunk:
            yield _ref_build(build, rows, base)
            base += len(rows)
            rows = []
    if rows:
        yield _ref_build(build, rows, base)


# --------------------------------------------------------------------- #
# Comparison helpers
# --------------------------------------------------------------------- #
def _outcome(fn):
    try:
        return "ok", fn()
    except TraceError as exc:
        return "error", str(exc)


_COLUMNS = ("nominal_time_s", "array_id", "offset", "nbytes", "is_write",
            "nest", "iteration")


def _same_columns(a, b):
    for name in _COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
        assert x.flags.c_contiguous and x.flags.writeable, name
    assert a.array_names == b.array_names


def _assert_same(new, ref, compare=None):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "error" or compare is None:
        assert new == ref
    else:
        compare(new[1], ref[1])


# --------------------------------------------------------------------- #
# Inputs: valid records, then stacked corruptions.
# --------------------------------------------------------------------- #
_BAD_FIELD = st.one_of(
    st.tuples(st.just("kind"), st.integers(2, 255)),
    st.tuples(
        st.just("arrival"),
        st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, -1e-300]),
    ),
    st.tuples(st.just("lba"), st.integers(-(1 << 63), -1)),
    st.tuples(st.just("nbytes"), st.integers(-(1 << 63), 0)),
    st.tuples(st.just("back"), st.floats(0.0, 5.0)),
    st.tuples(st.just("huge_lba"), st.integers(1 << 53, (1 << 63) - 1)),
)
_FIELD_INDEX = {"arrival": 0, "lba": 2, "nbytes": 3, "kind": 4}


@st.composite
def _binary_files(draw):
    records = draw(ingest_records(min_size=1, max_size=40))
    rows = [[a, d, lba, nb, int(w)] for a, d, lba, nb, w in records]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        field, value = draw(_BAD_FIELD)
        if field == "back":
            # Time goes backwards: a valid record earlier than its
            # predecessor.
            rows[i][0] = max(0.0, rows[i - 1][0] - value - 1e-3) if i else rows[i][0]
        elif field == "huge_lba":
            rows[i][2] = value
        else:
            rows[i][_FIELD_INDEX[field]] = value
    blob = bytearray(BINARY_MAGIC + _COUNT.pack(len(rows)))
    for row in rows:
        blob += _RECORD.pack(*row)
    tail = draw(st.sampled_from(["none", "truncate", "append", "count", "flip"]))
    if tail == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif tail == "append":
        blob += bytes(draw(st.integers(1, 40)))
    elif tail == "count":
        blob[8:16] = _COUNT.pack(draw(st.integers(0, len(rows) + 3)))
    elif tail == "flip":
        j = draw(st.integers(0, len(blob) - 1))
        blob[j] ^= 1 << draw(st.integers(0, 7))
    return bytes(blob)


def _huge_geometry(path):
    """A flipped device byte can claim billions of devices, and building
    that layout is slow and memory-hungry in either reader; such inputs
    are skipped by the layout-building tests."""
    try:
        return _ref_scan(path, strict=False).num_devices > 64
    except (TraceError, OverflowError):
        return False


def _write(blob, d):
    path = Path(d) / "t.btrace"
    path.write_bytes(blob)
    return path


@_SETTINGS
@given(blob=_binary_files())
def test_records_and_scans_match_reference(blob):
    with tempfile.TemporaryDirectory() as d:
        path = _write(blob, d)
        _assert_same(
            _outcome(lambda: list(read_records(path, "binary"))),
            _outcome(lambda: list(_ref_records(path))),
        )
        for strict in (True, False):
            _assert_same(
                _outcome(lambda: scan_trace(path, "binary", strict=strict)),
                _outcome(lambda: _ref_scan(path, strict)),
            )


@_SETTINGS
@given(blob=_binary_files(), sort=st.booleans())
def test_whole_ingest_matches_reference(blob, sort):
    with tempfile.TemporaryDirectory() as d:
        path = _write(blob, d)
        assume(not _huge_geometry(path))
        try:
            ref = _outcome(lambda: _ref_ingest(path, 4, sort))
        except OverflowError:
            # Byte offsets past int64 are not a TraceError in either reader.
            try:
                ingest_trace(path, 4, "binary", sort=sort)
            except OverflowError:
                return
            raise AssertionError("expected OverflowError")
        new = _outcome(lambda: ingest_trace(path, 4, "binary", sort=sort).columns)
        _assert_same(new, ref, _same_columns)


def _drain(chunks):
    """Chunks yielded up to the end or the first TraceError, and that
    error's text (a consumer sees every chunk before the error)."""
    out = []
    try:
        for cols in chunks:
            out.append(cols)
    except TraceError as exc:
        return out, str(exc)
    return out, None


@_SETTINGS
@given(
    blob=_binary_files(),
    chunk=st.sampled_from([1, 3, 7, 64]),
    geometry=st.none() | st.tuples(
        st.integers(1, 3), st.sampled_from([4096, 1 << 20, 1 << 40])
    ),
    rewrite=st.booleans(),
)
def test_chunked_ingest_matches_reference(blob, chunk, geometry, rewrite):
    """Same chunks, in the same sizes, up to the same error — including
    device-range and capacity errors under explicit geometry.  With
    ``rewrite`` the stream is opened on a valid file that is then
    replaced by the mutated one, so the chunk reader meets the errors
    the up-front scan would otherwise catch."""
    if rewrite and geometry is None:
        geometry = (3, 1 << 40)
    num_devices, capacity = geometry or (None, None)
    with tempfile.TemporaryDirectory() as d:
        path = _write(blob, d)
        assume(geometry is not None or not _huge_geometry(path))
        try:
            ref = _drain(
                _ref_chunks(
                    path, 4, chunk, num_devices, capacity, scan=not rewrite
                )
            )
        except OverflowError:
            return
        if rewrite:
            _write(BINARY_MAGIC + _COUNT.pack(1) + _RECORD.pack(0.0, 0, 0, 1, 0), d)
        try:
            stream = stream_ingest(
                path, 4, "binary", chunk_requests=chunk,
                num_devices=num_devices, device_capacity_bytes=capacity,
            )
        except TraceError as exc:
            assert ref == ([], str(exc))
            return
        if rewrite:
            _write(blob, d)
        new = _drain(stream.iter_chunks())
        assert new[1] == ref[1]
        assert [len(c) for c in new[0]] == [len(c) for c in ref[0]]
        for a, b in zip(new[0], ref[0]):
            _same_columns(a, b)


def test_error_precedence_within_one_record(tmp_path):
    """A record failing every check reports its kind byte first, then
    arrival, LBA and size — the record reader's order."""
    path = tmp_path / "bad.btrace"
    good = _RECORD.pack(0.5, 0, 8, 512, 0)
    cases = [
        (_RECORD.pack(float("nan"), 0, -1, 0, 7), "record 1: bad request kind byte 7"),
        (_RECORD.pack(float("nan"), 0, -1, 0, 1), "record 1: bad arrival time nan"),
        (_RECORD.pack(1.0, 0, -1, 0, 1), "record 1: negative LBA -1"),
        (_RECORD.pack(1.0, 0, 1, 0, 1), "record 1: request size must be positive, got 0"),
    ]
    for rec, msg in cases:
        path.write_bytes(BINARY_MAGIC + _COUNT.pack(2) + good + rec)
        try:
            list(read_records(path))
        except TraceError as exc:
            assert str(exc).startswith(msg), str(exc)
        else:
            raise AssertionError("expected TraceError")


def test_time_order_error_wins_over_later_corruption(tmp_path):
    path = tmp_path / "order.btrace"
    recs = [
        _RECORD.pack(2.0, 0, 8, 512, 0),
        _RECORD.pack(1.0, 0, 8, 512, 0),
        _RECORD.pack(3.0, 0, 8, 512, 9),
    ]
    path.write_bytes(BINARY_MAGIC + _COUNT.pack(4) + b"".join(recs))
    for fn in (
        lambda: scan_trace(path),
        lambda: list(stream_ingest(path, 2, num_devices=1,
                                   device_capacity_bytes=1 << 20).iter_chunks()),
    ):
        try:
            fn()
        except TraceError as exc:
            assert str(exc) == (
                "record 1: arrival 1.0 precedes previous 2.0 "
                "(trace must be time-ordered)"
            )
        else:
            raise AssertionError("expected TraceError")
