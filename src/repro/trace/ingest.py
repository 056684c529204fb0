"""External block-I/O trace ingestion.

The repro traces are *generated* from the paper's loop nests; this module
ingests *recorded* traces instead — the bursty, irregular request streams a
real desktop/server disk produces — and normalizes them into the exact
columnar representation (:class:`~repro.trace.request.RequestColumns` /
:class:`~repro.trace.request.Trace`) the replay engines already consume, so
every downstream path (both engines, the streamed bounded-memory replay,
caching, observability) works unchanged.

Two on-disk formats are supported:

* **text** — one request per line, blkparse/CSV style, five
  whitespace- or comma-separated fields::

      # arrival_s device lba nbytes kind
      0.000000 0 2048 8192 R
      0.004210 1 7340032 4096 W

  ``arrival_s`` is the recorded arrival time in seconds, ``device`` the
  originating block device index, ``lba`` the 512-byte logical block
  address, ``nbytes`` the request size, and ``kind`` is ``R`` or ``W``.
  Blank lines and ``#`` comments are skipped.

* **binary** — a packed little-endian stream: the 8-byte magic
  ``RBLKIO1\\n``, a ``<Q`` record count, then one 29-byte ``<dIqqB``
  record per request ``(arrival_s, device, lba, nbytes, kind)`` with
  ``kind`` 0 for read, 1 for write.  The up-front count makes truncation
  detectable: fewer records than promised — or trailing bytes past the
  last record — is a hard :class:`~repro.util.errors.TraceError`.

Every malformed input raises :class:`~repro.util.errors.TraceError` with
the offending line/record number; nothing is ever silently skipped or
truncated.  Arrival times must be finite, non-negative, and
non-decreasing (whole-file ingestion can ``sort=True`` instead; the
streamed reader is always strict, since sorting needs the whole file).

Device numbers map onto the simulated subsystem through a *mapping
policy* (:func:`device_layout`): each device becomes one single-disk file
(``dev0``, ``dev1``, ...) preserving its LBA space, and the policy picks
the disk —

* ``"modulo"`` — device ``d`` lives on disk ``d % num_disks``; rescales
  any device count onto any subsystem, round-robin.
* ``"range"`` — contiguous device ranges per disk
  (``d * num_disks // num_devices``); preserves device locality.
* ``"lba"`` — identity (device ``d`` on disk ``d``); requires
  ``num_devices <= num_disks`` and preserves the recorded placement
  exactly.

Ingested requests carry no loop-nest provenance: their
``nest``/``iteration`` columns hold
:data:`~repro.trace.request.UNKNOWN_POSITION`, the same documented
sentinel streamed repro-trace reads use.  Replay of ingested traces is
normally **open-loop** (``simulate(..., open_loop=True)``): issue times
come from the recording, not from the closed-loop compute/IO feedback
chain — see :mod:`repro.disksim.simulator`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..obs import metrics as _metrics
from ..layout.files import DEFAULT_STRIPE_SIZE, FileEntry, SubsystemLayout
from ..layout.striping import Striping
from ..util.errors import TraceError
from ..util.units import SECTOR_BYTES, bytes_to_sectors
from .request import RequestColumns, Trace, UNKNOWN_POSITION
from .stream import TraceStream

__all__ = [
    "BINARY_MAGIC",
    "IngestScan",
    "MAPPING_POLICIES",
    "device_layout",
    "ingest_fingerprint",
    "ingest_trace",
    "read_records",
    "scan_trace",
    "stream_ingest",
    "write_binary_records",
    "write_text_records",
]

#: Leading magic of the binary format (8 bytes).
BINARY_MAGIC = b"RBLKIO1\n"
_BIN_COUNT = struct.Struct("<Q")
_BIN_RECORD = struct.Struct("<dIqqB")

#: Recognized device→disk mapping policies (see :func:`device_layout`).
MAPPING_POLICIES = ("modulo", "range", "lba")

#: Version folded into :func:`ingest_fingerprint` — bump when parsing or
#: normalization semantics change, so stale cached replays cannot be
#: mistaken for current ones.
INGEST_VERSION = 1


# ---------------------------------------------------------------------- #
# Record-level parsing
# ---------------------------------------------------------------------- #
def _detect_format(path: Path) -> str:
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
    return "binary" if head == BINARY_MAGIC else "text"


def _check_record(
    where: str, arrival: float, lba: int, nbytes: int
) -> None:
    if not isfinite(arrival) or arrival < 0:
        raise TraceError(f"{where}: bad arrival time {arrival!r}")
    if lba < 0:
        raise TraceError(f"{where}: negative LBA {lba}")
    if nbytes <= 0:
        raise TraceError(f"{where}: request size must be positive, got {nbytes}")


def _iter_text(path: Path) -> Iterator[tuple[float, int, int, int, bool]]:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 5:
                raise TraceError(
                    f"line {lineno}: expected 5 fields "
                    f"(arrival device lba nbytes R|W), got {len(parts)}"
                )
            try:
                arrival = float(parts[0])
                device = int(parts[1])
                lba = int(parts[2])
                nbytes = int(parts[3])
            except ValueError as exc:
                raise TraceError(f"line {lineno}: {exc}") from exc
            if parts[4] not in ("R", "W"):
                raise TraceError(
                    f"line {lineno}: bad request kind {parts[4]!r} "
                    "(expected R or W)"
                )
            if device < 0:
                raise TraceError(f"line {lineno}: negative device {device}")
            _check_record(f"line {lineno}", arrival, lba, nbytes)
            yield arrival, device, lba, nbytes, parts[4] == "W"


#: ``_BIN_RECORD`` as a packed NumPy record dtype: one ``np.frombuffer``
#: decodes a whole block of records.
_BIN_DTYPE = np.dtype(
    [
        ("arrival", "<f8"),
        ("device", "<u4"),
        ("lba", "<i8"),
        ("nbytes", "<i8"),
        ("kind", "u1"),
    ]
)
assert _BIN_DTYPE.itemsize == _BIN_RECORD.size

#: Records per block of the whole-file binary readers.
_BIN_BLOCK = 1 << 16

#: LBAs at or above this overflow int64 once scaled to bytes.
_LBA_INT64_LIMIT = (1 << 63) // SECTOR_BYTES

_ORDER_HINT = "(trace must be time-ordered)"
_SORT_HINT = (
    "(trace must be time-ordered; pass sort=True to reorder a whole-file "
    "ingest)"
)


def _binary_error(recs: np.ndarray, base: int) -> tuple[int, TraceError] | None:
    """The first invalid record of a decoded block and its error, checked
    in the record reader's order: kind byte, arrival, LBA, size."""
    kind = recs["kind"]
    arrival = recs["arrival"]
    bad_kind = kind > 1
    bad_arrival = ~np.isfinite(arrival) | (arrival < 0)
    bad_lba = recs["lba"] < 0
    bad_size = recs["nbytes"] <= 0
    bad = bad_kind | bad_arrival | bad_lba | bad_size
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    where = f"record {base + i}"
    if bad_kind[i]:
        return i, TraceError(
            f"{where}: bad request kind byte {int(kind[i])} "
            "(expected 0=read or 1=write)"
        )
    if bad_arrival[i]:
        return i, TraceError(f"{where}: bad arrival time {float(arrival[i])!r}")
    if bad_lba[i]:
        return i, TraceError(f"{where}: negative LBA {int(recs['lba'][i])}")
    return i, TraceError(
        f"{where}: request size must be positive, got {int(recs['nbytes'][i])}"
    )


def _binary_blocks(path: Path, block: int) -> Iterator[np.ndarray]:
    """Validated blocks of up to ``block`` binary records, in file order.

    Errors surface exactly where a record-at-a-time reader raises them:
    the valid records ahead of the first bad one (or of a truncation) are
    yielded first, as a short block, and the :class:`TraceError` follows
    — so a consumer's own checks on those records (time order) still win.
    A short block is therefore always the last one before the end of the
    file or an error.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(BINARY_MAGIC))
        if head != BINARY_MAGIC:
            raise TraceError(
                f"bad binary trace magic {head!r} (expected {BINARY_MAGIC!r})"
            )
        count_raw = fh.read(_BIN_COUNT.size)
        if len(count_raw) != _BIN_COUNT.size:
            raise TraceError("truncated binary trace header")
        (count,) = _BIN_COUNT.unpack(count_raw)
        size = _BIN_DTYPE.itemsize
        done = 0
        while done < count:
            want = min(block, count - done)
            raw = fh.read(want * size)
            got = len(raw) // size
            recs = np.frombuffer(raw, dtype=_BIN_DTYPE, count=got)
            err = _binary_error(recs, done)
            if err is not None:
                if err[0]:
                    yield recs[: err[0]]
                raise err[1]
            if got:
                yield recs
            if got < want:
                raise TraceError(
                    f"truncated binary trace: record {done + got} of {count} "
                    f"is incomplete"
                )
            done += got
        if fh.read(1):
            raise TraceError(
                f"binary trace has trailing bytes after {count} records"
            )


def _iter_binary(path: Path) -> Iterator[tuple[float, int, int, int, bool]]:
    for recs in _binary_blocks(path, _BIN_BLOCK):
        yield from zip(
            recs["arrival"].tolist(),
            recs["device"].tolist(),
            recs["lba"].tolist(),
            recs["nbytes"].tolist(),
            (recs["kind"] == 1).tolist(),
        )


def _check_order(arrival: np.ndarray, prev: float, base: int, hint: str) -> None:
    """Raise at the first record of a block whose arrival precedes the
    previous record's (``prev`` is the arrival ahead of the block)."""
    prevs = np.empty_like(arrival)
    prevs[0] = prev
    prevs[1:] = arrival[:-1]
    back = arrival < prevs
    if back.any():
        i = int(np.argmax(back))
        raise TraceError(
            f"record {base + i}: arrival {float(arrival[i])} precedes "
            f"previous {float(prevs[i])} {hint}"
        )


def _byte_offsets(lba: np.ndarray):
    """``lba * SECTOR_BYTES`` per record; exact Python ints when the
    product would overflow int64 (as the record reader computes it)."""
    if int(lba.max()) >= _LBA_INT64_LIMIT:
        return [v * SECTOR_BYTES for v in lba.tolist()]
    return lba * SECTOR_BYTES


def _max_extent(recs: np.ndarray) -> int:
    """Largest ``lba * SECTOR_BYTES + nbytes`` of a block, exactly."""
    lba = recs["lba"]
    nbytes = recs["nbytes"]
    if int(lba.max()) < 1 << 53 and int(nbytes.max()) < 1 << 62:
        return int((lba * SECTOR_BYTES + nbytes).max())
    return max(
        v * SECTOR_BYTES + b for v, b in zip(lba.tolist(), nbytes.tolist())
    )


def read_records(
    path: str | Path, fmt: str = "auto"
) -> Iterator[tuple[float, int, int, int, bool]]:
    """Iterate validated ``(arrival_s, device, lba, nbytes, is_write)``
    records of one trace file; ``fmt`` is ``"text"``, ``"binary"``, or
    ``"auto"`` (sniff the binary magic)."""
    path = Path(path)
    if fmt == "auto":
        fmt = _detect_format(path)
    if fmt == "text":
        return _iter_text(path)
    if fmt == "binary":
        return _iter_binary(path)
    raise TraceError(f"unknown trace format {fmt!r}")


# ---------------------------------------------------------------------- #
# Serializers (round-trips, fixtures, tests)
# ---------------------------------------------------------------------- #
def write_text_records(path: str | Path, records) -> int:
    """Write ``(arrival_s, device, lba, nbytes, is_write)`` records in the
    text format; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# arrival_s device lba nbytes kind\n")
        for arrival, device, lba, nbytes, is_write in records:
            kind = "W" if is_write else "R"
            # repr() is the shortest exact decimal: arrivals survive a
            # text round-trip bit for bit, like the binary format.
            fh.write(f"{arrival!r} {device} {lba} {nbytes} {kind}\n")
            n += 1
    return n


def write_binary_records(path: str | Path, records) -> int:
    """Write records in the binary format; returns the record count."""
    recs = list(records)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(_BIN_COUNT.pack(len(recs)))
        for arrival, device, lba, nbytes, is_write in recs:
            fh.write(
                _BIN_RECORD.pack(arrival, device, lba, nbytes, int(is_write))
            )
    return len(recs)


# ---------------------------------------------------------------------- #
# Device → disk mapping
# ---------------------------------------------------------------------- #
def _disk_of(mapping: str, device: int, num_devices: int, num_disks: int) -> int:
    if mapping == "modulo":
        return device % num_disks
    if mapping == "range":
        return device * num_disks // num_devices
    if mapping == "lba":
        return device
    raise TraceError(
        f"unknown mapping policy {mapping!r} (expected one of "
        f"{', '.join(MAPPING_POLICIES)})"
    )


def device_layout(
    num_devices: int,
    num_disks: int,
    mapping: str = "modulo",
    device_capacity_bytes: int = 0,
) -> SubsystemLayout:
    """Layout mapping ``num_devices`` recorded devices onto ``num_disks``
    simulated disks under one mapping policy.

    Each device becomes one un-striped file ``dev{d}`` of
    ``device_capacity_bytes`` placed whole on the policy's disk, and the
    devices pack consecutively in the global block space — so a record's
    ``(device, lba)`` resolves to byte ``lba * 512`` of file ``dev{d}``
    and the recorded intra-device seek distances are preserved exactly.
    """
    if num_devices < 1:
        raise TraceError(f"num_devices must be >= 1, got {num_devices}")
    if device_capacity_bytes <= 0:
        raise TraceError(
            f"device_capacity_bytes must be positive, got {device_capacity_bytes}"
        )
    if mapping not in MAPPING_POLICIES:
        raise TraceError(
            f"unknown mapping policy {mapping!r} (expected one of "
            f"{', '.join(MAPPING_POLICIES)})"
        )
    if mapping == "lba" and num_devices > num_disks:
        raise TraceError(
            f"mapping 'lba' preserves device placement and needs "
            f"num_devices <= num_disks, got {num_devices} > {num_disks}"
        )
    blocks = bytes_to_sectors(device_capacity_bytes)
    entries = tuple(
        FileEntry(
            array_name=f"dev{d}",
            size_bytes=device_capacity_bytes,
            striping=Striping(
                _disk_of(mapping, d, num_devices, num_disks),
                1,
                DEFAULT_STRIPE_SIZE,
            ),
            base_block=d * blocks,
        )
        for d in range(num_devices)
    )
    return SubsystemLayout(num_disks=num_disks, entries=entries)


# ---------------------------------------------------------------------- #
# Scanning (bounded-memory pre-pass)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class IngestScan:
    """Summary of one validated pass over a trace file."""

    num_records: int
    num_devices: int
    last_arrival_s: float
    max_extent_bytes: int


def scan_trace(path: str | Path, fmt: str = "auto", strict: bool = True) -> IngestScan:
    """One streaming validation pass: record count, device-id span, last
    arrival, and the largest ``lba * 512 + nbytes`` end-of-extent (the
    minimum per-device capacity).  O(1) memory; the streamed reader runs
    this up front so it can build the layout without materializing the
    trace.  ``strict=False`` tolerates out-of-order arrivals (geometry is
    order-independent) and reports the *latest* arrival, for callers that
    will sort the records themselves."""
    n = 0
    max_dev = -1
    last = 0.0
    max_extent = 0
    prev = -1.0
    path = Path(path)
    if fmt == "auto":
        fmt = _detect_format(path)
    if fmt == "binary":
        for recs in _binary_blocks(path, _BIN_BLOCK):
            arrival = recs["arrival"]
            if strict:
                _check_order(arrival, prev, n, _ORDER_HINT)
            prev = float(arrival[-1])
            n += len(recs)
            max_dev = max(max_dev, int(recs["device"].max()))
            last = max(last, float(arrival.max()))
            max_extent = max(max_extent, _max_extent(recs))
        return IngestScan(
            num_records=n,
            num_devices=max_dev + 1,
            last_arrival_s=last,
            max_extent_bytes=max_extent,
        )
    for arrival, device, lba, nbytes, _ in read_records(path, fmt):
        if strict and arrival < prev:
            raise TraceError(
                f"record {n}: arrival {arrival} precedes previous {prev} "
                f"{_ORDER_HINT}"
            )
        prev = arrival
        n += 1
        if device > max_dev:
            max_dev = device
        if arrival > last:
            last = arrival
        end = lba * SECTOR_BYTES + nbytes
        if end > max_extent:
            max_extent = end
    return IngestScan(
        num_records=n,
        num_devices=max_dev + 1,
        last_arrival_s=last,
        max_extent_bytes=max_extent,
    )


def _resolve_geometry(
    path: Path,
    fmt: str,
    num_devices: int | None,
    device_capacity_bytes: int | None,
    strict: bool = True,
) -> tuple[int, int, IngestScan | None]:
    """Fill in unspecified device count / capacity from a scan pass."""
    scan = None
    if num_devices is None or device_capacity_bytes is None:
        scan = scan_trace(path, fmt, strict=strict)
        if scan.num_records == 0:
            raise TraceError(f"trace {path.name!r} contains no requests")
        if num_devices is None:
            num_devices = scan.num_devices
        if device_capacity_bytes is None:
            device_capacity_bytes = scan.max_extent_bytes
    return num_devices, device_capacity_bytes, scan


def _columns_factory(layout: SubsystemLayout, num_devices: int):
    names = tuple(e.array_name for e in layout.entries)
    capacity = layout.entries[0].size_bytes

    def build(
        times: list, devs: list, offs: list, sizes: list, writes: list,
        base: int,
    ) -> RequestColumns:
        n = len(times)
        dev_arr = np.array(devs, dtype=np.int64)
        if dev_arr.size and int(dev_arr.max()) >= num_devices:
            bad = int(np.argmax(dev_arr >= num_devices))
            raise TraceError(
                f"record {base + bad}: device {int(dev_arr[bad])} out of "
                f"range (trace has {num_devices} devices)"
            )
        off_arr = np.array(offs, dtype=np.int64)
        size_arr = np.array(sizes, dtype=np.int64)
        over = off_arr + size_arr > capacity
        if over.any():
            bad = int(np.argmax(over))
            raise TraceError(
                f"record {base + bad}: LBA extent "
                f"[{int(off_arr[bad])}, {int(off_arr[bad] + size_arr[bad])}) "
                f"overflows the device capacity of {capacity} bytes"
            )
        return RequestColumns(
            nominal_time_s=np.array(times, dtype=np.float64),
            array_id=dev_arr,
            offset=off_arr,
            nbytes=size_arr,
            is_write=np.array(writes, dtype=bool),
            nest=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            iteration=np.full(n, UNKNOWN_POSITION, dtype=np.int64),
            array_names=names,
        )

    return build


def _build_records(build, recs: np.ndarray, base: int) -> RequestColumns:
    """Columns of a block of decoded binary records."""
    return build(
        recs["arrival"], recs["device"], _byte_offsets(recs["lba"]),
        recs["nbytes"], recs["kind"] == 1, base,
    )


def _iter_binary_chunks(
    path: Path, build, chunk_requests: int
) -> Iterator[RequestColumns]:
    base = 0
    prev = -1.0
    tail = None
    for recs in _binary_blocks(path, chunk_requests):
        arrival = recs["arrival"]
        _check_order(arrival, prev, base, _ORDER_HINT)
        prev = float(arrival[-1])
        if len(recs) < chunk_requests:
            # The last block, or the records ahead of an error: only the
            # end of the file may yield a short chunk.
            tail = recs
            continue
        cols = _build_records(build, recs, base)
        base += len(cols)
        _metrics.inc("ingest.requests", len(cols), format="binary")
        _metrics.inc("ingest.chunks", format="binary")
        yield cols
    if tail is not None:
        cols = _build_records(build, tail, base)
        _metrics.inc("ingest.requests", len(cols), format="binary")
        _metrics.inc("ingest.chunks", format="binary")
        yield cols


def _iter_chunks(
    path: Path,
    fmt: str,
    layout: SubsystemLayout,
    num_devices: int,
    chunk_requests: int,
) -> Iterator[RequestColumns]:
    build = _columns_factory(layout, num_devices)
    if fmt == "binary":
        yield from _iter_binary_chunks(path, build, chunk_requests)
        return
    times: list[float] = []
    devs: list[int] = []
    offs: list[int] = []
    sizes: list[int] = []
    writes: list[bool] = []
    base = 0
    prev = -1.0
    n = 0
    for arrival, device, lba, nbytes, is_write in read_records(path, fmt):
        if arrival < prev:
            raise TraceError(
                f"record {n}: arrival {arrival} precedes previous {prev} "
                f"{_ORDER_HINT}"
            )
        prev = arrival
        n += 1
        times.append(arrival)
        devs.append(device)
        offs.append(lba * SECTOR_BYTES)
        sizes.append(nbytes)
        writes.append(is_write)
        if len(times) >= chunk_requests:
            cols = build(times, devs, offs, sizes, writes, base)
            base += len(cols)
            times, devs, offs, sizes, writes = [], [], [], [], []
            _metrics.inc("ingest.requests", len(cols), format=fmt)
            _metrics.inc("ingest.chunks", format=fmt)
            yield cols
    if times:
        cols = build(times, devs, offs, sizes, writes, base)
        _metrics.inc("ingest.requests", len(cols), format=fmt)
        _metrics.inc("ingest.chunks", format=fmt)
        yield cols


# ---------------------------------------------------------------------- #
# Public ingestion entry points
# ---------------------------------------------------------------------- #
def ingest_trace(
    path: str | Path,
    num_disks: int,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
    sort: bool = False,
    program_name: str | None = None,
) -> Trace:
    """Ingest one recorded trace file whole into a :class:`Trace`.

    ``num_devices``/``device_capacity_bytes`` default to the values a
    validation scan infers (highest device id + 1; largest end-of-extent).
    ``sort=True`` stably reorders out-of-order arrivals instead of
    rejecting them (whole-file only — the streamed reader cannot sort).
    ``total_compute_s`` is the last arrival time, so open-loop replay's
    nominal span covers the recording.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = _detect_format(path)
    num_devices, device_capacity_bytes, _ = _resolve_geometry(
        path, fmt, num_devices, device_capacity_bytes, strict=not sort
    )
    layout = device_layout(num_devices, num_disks, mapping, device_capacity_bytes)
    build = _columns_factory(layout, num_devices)
    if fmt == "binary":
        cols = _ingest_binary(path, build, sort)
        _metrics.inc("ingest.requests", len(cols), format=fmt)
        _metrics.inc("ingest.traces", format=fmt)
        return Trace(
            program_name=program_name or path.stem,
            layout=layout,
            total_compute_s=float(cols.nominal_time_s[-1]),
            columns=cols,
        )
    times: list[float] = []
    devs: list[int] = []
    offs: list[int] = []
    sizes: list[int] = []
    writes: list[bool] = []
    prev = -1.0
    for arrival, device, lba, nbytes, is_write in read_records(path, fmt):
        if not sort and arrival < prev:
            raise TraceError(
                f"record {len(times)}: arrival {arrival} precedes previous "
                f"{prev} {_SORT_HINT}"
            )
        prev = arrival
        times.append(arrival)
        devs.append(device)
        offs.append(lba * SECTOR_BYTES)
        sizes.append(nbytes)
        writes.append(is_write)
    if not times:
        raise TraceError(f"trace {path.name!r} contains no requests")
    if sort:
        order = np.argsort(np.asarray(times, dtype=np.float64), kind="stable")
        times = [times[i] for i in order]
        devs = [devs[i] for i in order]
        offs = [offs[i] for i in order]
        sizes = [sizes[i] for i in order]
        writes = [writes[i] for i in order]
    cols = build(times, devs, offs, sizes, writes, 0)
    _metrics.inc("ingest.requests", len(cols), format=fmt)
    _metrics.inc("ingest.traces", format=fmt)
    return Trace(
        program_name=program_name or path.stem,
        layout=layout,
        total_compute_s=float(times[-1]),
        columns=cols,
    )


def _ingest_binary(path: Path, build, sort: bool) -> RequestColumns:
    """Whole-file binary ingest: the record blocks, time-order checked
    (or stably sorted) and built into one column set."""
    blocks = []
    n = 0
    prev = -1.0
    for recs in _binary_blocks(path, _BIN_BLOCK):
        arrival = recs["arrival"]
        if not sort:
            _check_order(arrival, prev, n, _SORT_HINT)
        prev = float(arrival[-1])
        n += len(recs)
        blocks.append(recs)
    if not blocks:
        raise TraceError(f"trace {path.name!r} contains no requests")
    recs = np.concatenate(blocks)
    if sort:
        recs = recs[np.argsort(recs["arrival"], kind="stable")]
    return _build_records(build, recs, 0)


def stream_ingest(
    path: str | Path,
    num_disks: int,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
    chunk_requests: int = 65536,
    program_name: str | None = None,
) -> TraceStream:
    """Open a recorded trace as a re-iterable bounded-memory
    :class:`~repro.trace.stream.TraceStream`.

    A cheap validation scan fixes the device geometry up front (unless
    given explicitly); each :meth:`~repro.trace.stream.TraceStream.iter_chunks`
    pass then re-parses the file in ``chunk_requests``-row column chunks,
    so peak memory stays bounded regardless of trace size.  The
    chunked and whole-file readers produce identical request columns for
    any valid input (enforced by the ingest property tests).
    """
    path = Path(path)
    if chunk_requests <= 0:
        raise TraceError("chunk_requests must be positive")
    if fmt == "auto":
        fmt = _detect_format(path)
    num_devices, device_capacity_bytes, scan = _resolve_geometry(
        path, fmt, num_devices, device_capacity_bytes
    )
    layout = device_layout(num_devices, num_disks, mapping, device_capacity_bytes)
    if scan is not None:
        total = scan.last_arrival_s
    else:
        total = scan_trace(path, fmt).last_arrival_s
    _metrics.inc("ingest.streams", format=fmt)
    return TraceStream(
        program_name=program_name or path.stem,
        layout=layout,
        total_compute_s=total,
        chunks=lambda: _iter_chunks(
            path, fmt, layout, num_devices, chunk_requests
        ),
        directives=(),
    )


# ---------------------------------------------------------------------- #
def ingest_fingerprint(
    path: str | Path,
    fmt: str = "auto",
    mapping: str = "modulo",
    num_disks: int = 0,
    num_devices: int | None = None,
    device_capacity_bytes: int | None = None,
) -> str:
    """Content digest of one ingest source + its normalization parameters.

    Hashes the file *bytes* (not the path or mtime) together with every
    parameter that shapes the normalized columns, so a cached replay is
    reused exactly when the same recorded data would normalize the same
    way — feed this into
    :func:`repro.cache.trace_fingerprint`'s ``source`` argument.
    """
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    descriptor = "\x1f".join(
        (
            f"ingest-v{INGEST_VERSION}",
            h.hexdigest(),
            fmt,
            mapping,
            str(num_disks),
            str(num_devices),
            str(device_capacity_bytes),
        )
    )
    return hashlib.sha256(descriptor.encode()).hexdigest()
