"""Inputs of the ``external_traces`` workload, built only from the seed.

Source 1 is a recorded block-I/O trace in the binary format, written
with ``repro.trace.ingest.write_binary_records``: six devices, bursts of
requests at about 1500/s, and a 1-in-256 chance per request of an
off-period with a 25 s mean, longer than the ~15.2 s TPM break-even, so
the reactive and oracle schemes all act.  Source 2 is a synthetic on/off
``SynthConfig`` with a 40 s mean off-period, for the same reason (the
default ``off_s`` leaves TPM at exactly 1.000).

The program sees only the file and the ``SynthConfig``.  The same seed
gives a byte-identical file.  The ``paper_*`` workloads have fixed inputs
(the bundled programs), so the seed does not apply to them.
"""

from __future__ import annotations

import numpy as np

#: The seed whose ``external_traces`` digests ``reference.json`` pins.
PINNED_SEED = 1
RECORDED_REQUESTS = 250_000
SYNTH_REQUESTS = 250_000
RECORDED_NAME = "recorded.bin"


def write_recorded_trace(path, seed: int) -> int:
    """Write source 1 for ``seed``; returns its request count."""
    from repro.trace.ingest import write_binary_records

    n = RECORDED_REQUESTS
    rng = np.random.default_rng([seed, 1])
    gaps = rng.exponential(1 / 1500, n)
    off = rng.random(n) < 1 / 256
    gaps[off] += rng.exponential(25.0, int(off.sum()))
    records = zip(
        np.cumsum(gaps).tolist(),
        rng.integers(0, 6, n).tolist(),
        (rng.integers(0, 1 << 22, n) * 8).tolist(),
        rng.choice(np.array([4096, 8192, 16384, 65536]), n).tolist(),
        (rng.random(n) < 0.3).tolist(),
    )
    return write_binary_records(path, records)


def synth_config(seed: int):
    """Source 2 for ``seed`` (streamed: at least 200 000 requests)."""
    from repro.trace.synth import SynthConfig

    return SynthConfig(
        num_requests=SYNTH_REQUESTS, model="onoff", off_s=40.0,
        lba_skew=0.6, seed=seed,
    )
