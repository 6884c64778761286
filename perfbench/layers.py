"""Which library calls are traced, and under which layer names.

Each target names a public function or method of one ``repro`` module;
the span names follow the module layout (``core.chunked``,
``ingest.buffer``, ``durable.wal`` ...), so a per-layer metric reads as
the module that did the work.  Module-level functions are patched where
their caller looks them up: ``scan_chunk`` in ``repro.core.chunked``,
``write_snapshot``/``scan_wal``/``load_latest_snapshot`` in
``repro.durable.ingestor``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np
import repro.core.chunked as chunked_mod
import repro.durable.fsio as fsio_mod
import repro.durable.ingestor as durable_ingestor_mod
from repro.core.aggregates import (
    MaxWindowEngine,
    SumWindowEngine,
    WindowEngine,
)
from repro.core.chunked import ChunkedDetector
from repro.core.search import BestFirstSearch
from repro.durable import DurableStreamIngestor, WriteAheadLog
from repro.ingest import OutOfOrderBuffer
from repro.runtime import (
    ParallelMultiStreamDetector,
    SharedChunkRing,
    WorkerPool,
)

from tracer import Target, Tracer


def _states_expanded(tracer: Tracer, args: Any, result: Any) -> None:
    tracer.counts["core.search.states_expanded"] += result.states_expanded


def _shm_bytes(tracer: Tracer, args: Any, result: Any) -> None:
    tracer.counts["runtime.shm.bytes"] += np.asarray(args[1]).nbytes


def _buffer_peak(tracer: Tracer, args: Any, result: Any) -> None:
    buf = args[0]
    peaks = tracer.peaks
    peaks["ingest.buffer.peak_records"] = max(
        peaks["ingest.buffer.peak_records"], buf.n_records
    )


def _snapshot_bytes(tracer: Tracer, args: Any, result: Any) -> None:
    size = Path(result).stat().st_size
    counts = tracer.counts
    if not counts["durable.snapshot.count"]:
        counts["durable.snapshot.bytes_first"] = size
    counts["durable.snapshot.bytes_last"] = size
    counts["durable.snapshot.count"] += 1


#: Spans whose nested spans are tallied apart from the data path.
SCOPES = ("durable.ingestor.recover",)

SEARCH: list[Target] = [
    (BestFirstSearch, "run", "core.search.run", _states_expanded),
]

DETECTOR: list[Target] = [
    (ChunkedDetector, "process", "core.chunked.process", None),
    (chunked_mod, "scan_chunk", "core.kernel.scan", None),
    (WindowEngine, "append", "core.aggregates.append", None),
    (SumWindowEngine, "values_grid", "core.aggregates.values_grid", None),
    (MaxWindowEngine, "values_grid", "core.aggregates.values_grid", None),
]

RUNTIME: list[Target] = [
    (ParallelMultiStreamDetector, "process", "runtime.parallel.round", None),
    (WorkerPool, "send", "runtime.pool.send", None),
    (WorkerPool, "recv", "runtime.pool.recv", None),
    (SharedChunkRing, "put", "runtime.shm.put", _shm_bytes),
]

INGEST: list[Target] = [
    (DurableStreamIngestor, "push_batch", "durable.ingestor.push_batch",
     None),
    (DurableStreamIngestor, "finish", "durable.ingestor.finish", None),
    (DurableStreamIngestor, "recover", "durable.ingestor.recover", None),
    (DurableStreamIngestor, "snapshot_now", "durable.snapshot.now", None),
    (durable_ingestor_mod, "write_snapshot", "durable.snapshot.write",
     _snapshot_bytes),
    (durable_ingestor_mod, "scan_wal", "durable.ingestor.recover_scan",
     None),
    (durable_ingestor_mod, "load_latest_snapshot",
     "durable.ingestor.recover_load", None),
    (WriteAheadLog, "append", "durable.wal.append", None),
    (fsio_mod, "fsync_file", "durable.fsio.fsync", None),
    (fsio_mod, "fsync_dir", "durable.fsio.fsync", None),
    (OutOfOrderBuffer, "bulk_insert", "ingest.buffer.bulk_insert",
     _buffer_peak),
    (OutOfOrderBuffer, "evict_below", "ingest.buffer.evict_below", None),
]
