"""Repo benchmark: end-to-end metrics, or a traced per-layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-exp --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric.  Text lines describe the
run; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and their populations are explained in ``RATIONALE.md``.

The library under test is imported from ``src/`` of the checkout; the
benchmark exits non-zero when it is missing.  Durable directories go
to ``.perfbench-work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np
from tracer import Tracer, null_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Reps per run at the least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Traced runs alternate untraced and traced reps, at least this many
#: of each.
MIN_TRACE_REPS = 2
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with >= 10 of ``samples`` beyond it.

    ``samples`` is the calls of one rep, fixed by the input sizes, so
    the percentile never changes with how many reps a run fits in.
    """
    for p in TAIL_LADDER:
        if samples * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError(f"{samples} samples support no tail percentile")


class Tally:
    """Attempted and failed data-path calls and result checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, failures: list[str], label: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages += [f"{label}: {m}" for m in failures]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def run_setups(w: Any, tracer: Any) -> tuple[Any, list, list, Tally]:
    from layers import SEARCH

    times, per_layer, first = [], [], None
    tally = Tally()
    for _ in range(w.setup_repeats):
        if tracer is None:
            t0 = perf_counter()
            state = w.setup(null_span)
            times.append(perf_counter() - t0)
        else:
            tracer.reset()
            with tracer.patch(SEARCH):
                t0 = perf_counter()
                state = w.setup(tracer.span)
                times.append(perf_counter() - t0)
            per_layer.append(
                {
                    "core.thresholds.fit_s": tracer.total[
                        "core.thresholds.fit"
                    ],
                    "core.search.train_s": tracer.total["core.search.run"],
                    "core.search.states_expanded": tracer.counts[
                        "core.search.states_expanded"
                    ],
                }
            )
        w.after_setup()
        if first is None:
            first = state
        tally.check(
            [] if w.same_setup(first, state) else
            ["repeated set-up built a different detector"],
            "set-up",
        )
    return first, times, per_layer, tally


def run_rep(w: Any, state: Any, tracer: Any) -> Any:
    # Same collector state at every rep start, so collections fall on the
    # same calls in every rep and the per-call minimum keeps their cost.
    gc.collect()
    if tracer is None:
        return w.rep(state, null_span)
    tracer.reset()
    with tracer.patch(w.targets):
        return w.rep(state, tracer.span)


def measure(w: Any, args: argparse.Namespace) -> dict:
    from layers import SCOPES

    tracer = Tracer(SCOPES) if args.trace else None
    state, setup_times, setup_layers, tally = run_setups(w, tracer)
    w.warm(state)
    w.prepare_checks(state)
    # The harness's own long-lived objects (inputs, references) are
    # moved out of the collector's view so that collections during the
    # data path cost what the library's allocations cost.
    gc.collect()
    gc.freeze()

    plain: list = []
    traced: list = []
    traced_layers: list[dict] = []
    need_plain = MIN_TRACE_REPS if args.trace else MIN_REPS
    need_traced = MIN_TRACE_REPS if args.trace else 0
    deadline = perf_counter() + args.seconds
    while (
        len(plain) < need_plain
        or len(traced) < need_traced
        or perf_counter() < deadline
    ):
        use_tracer = (
            tracer if args.trace and len(traced) < len(plain) else None
        )
        try:
            rep = run_rep(w, state, use_tracer)
        except Exception as exc:  # a data-path call raised
            tally.attempted += 1
            tally.failed += 1
            tally.messages.append(f"rep raised {exc!r}")
            break
        tally.attempted += len(rep.latencies)
        if len(rep.latencies) != w.calls_per_rep:
            tally.check(
                [f"{len(rep.latencies)} data-path calls, expected "
                 f"{w.calls_per_rep}"],
                "rep shape",
            )
            continue
        tally.check(w.check(state, rep), f"rep {len(plain) + len(traced)}")
        reference = (plain + traced or [rep])[0]
        tally.check(
            [] if rep.counts == reference.counts else
            ["deterministic counts differ from the first rep"],
            "repeatability" if use_tracer is None else "tracing",
        )
        if use_tracer is None:
            plain.append(rep)
        else:
            traced.append(rep)
            traced_layers.append(layer_metrics(tracer, rep))
    if not plain:
        raise RuntimeError("no rep completed: " + "; ".join(tally.messages))

    result = {
        "setup_times": setup_times,
        "setup_layers": setup_layers,
        "plain": plain,
        "traced": traced,
        "traced_layers": traced_layers,
        "tally": tally,
    }
    if args.trace:
        result["refs"] = w.references(state)
        result["detector_pass"] = detector_pass(w, state)
    return result


def detector_pass(w: Any, state: Any) -> tuple[dict, float] | None:
    """Detector spans for workloads whose detectors run in workers."""
    import layers

    if not hasattr(w, "serial_run"):
        return None
    tracer = Tracer()
    with tracer.patch(layers.DETECTOR):
        latencies = w.serial_run(state)[0]
    return detector_metrics(tracer), float(sum(latencies))


def detector_metrics(tracer: Any) -> dict[str, float]:
    return {
        "core.chunked.process_s": tracer.total["core.chunked.process"],
        "core.chunked.refine_self_s": tracer.self_time(
            "core.chunked.process"
        ),
        "core.aggregates.values_grid_s": tracer.total[
            "core.aggregates.values_grid"
        ],
        "core.aggregates.append_s": tracer.total["core.aggregates.append"],
        "core.kernel.scan_s": tracer.total["core.kernel.scan"],
    }


def layer_metrics(tracer: Any, rep: Any) -> dict[str, float]:
    """Per-layer values of one traced rep."""
    t, c = tracer.total, tracer.counts
    out = detector_metrics(tracer)
    out.update(
        {
            "runtime.parallel.round_s": t["runtime.parallel.round"],
            "runtime.pool.send_s": t["runtime.pool.send"],
            "runtime.pool.recv_wait_s": t["runtime.pool.recv"],
            "runtime.shm.put_s": t["runtime.shm.put"],
            "runtime.shm.bytes": c["runtime.shm.bytes"],
            "runtime.worker_cpu_s": rep.extra.get("worker_cpu_s", 0.0),
            "runtime.parent_cpu_s": rep.extra.get("parent_cpu_s", 0.0),
            "ingest.buffer.bulk_insert_s": t["ingest.buffer.bulk_insert"],
            "ingest.buffer.evict_below_s": t["ingest.buffer.evict_below"],
            "ingest.buffer.peak_records": tracer.peaks[
                "ingest.buffer.peak_records"
            ],
            "ingest.ingestor.self_s": (
                tracer.self_time("durable.ingestor.push_batch")
                + tracer.self_time("durable.ingestor.finish")
            ),
            "durable.wal.append_s": t["durable.wal.append"],
            "durable.fsio.fsync_count": tracer.calls["durable.fsio.fsync"],
            "durable.fsio.fsync_s": t["durable.fsio.fsync"],
            "durable.snapshot.write_s": t["durable.snapshot.write"],
            "durable.snapshot.capture_s": tracer.self_time(
                "durable.snapshot.now"
            ),
            "durable.snapshot.count": c["durable.snapshot.count"],
            "durable.snapshot.bytes_first": c["durable.snapshot.bytes_first"],
            "durable.snapshot.bytes_last": c["durable.snapshot.bytes_last"],
            "durable.ingestor.recover_scan_s": t[
                "durable.ingestor.recover>durable.ingestor.recover_scan"
            ],
            "durable.ingestor.recover_load_s": t[
                "durable.ingestor.recover>durable.ingestor.recover_load"
            ],
            "durable.ingestor.recover_replay_s": (
                t["durable.ingestor.recover"]
                - t["durable.ingestor.recover>durable.ingestor.recover_scan"]
                - t["durable.ingestor.recover>durable.ingestor.recover_load"]
            ),
            "datapath_s": rep.datapath_s,
        }
    )
    return out


def count_metrics(rep: Any) -> dict[str, float]:
    """Per-layer values read off a rep's deterministic counts."""
    counts = rep.counts
    alarms = sum(counts["alarms"])
    out = {
        "core.opcount.updates_per_pt": sum(counts["updates"]) / rep.points,
        "core.opcount.filter_comparisons_per_pt": (
            sum(counts["filter_comparisons"]) / rep.points
        ),
        "core.opcount.alarms_per_pt": alarms / rep.points,
        "core.opcount.search_cells_per_pt": (
            sum(counts["search_cells"]) / rep.points
        ),
        "core.chunked.bursts": counts["bursts"],
        "core.chunked.burst_yield": counts["bursts"] / alarms if alarms
        else 0.0,
    }
    ledger = counts.get("ledger", (0,) * 9)
    out.update(
        {
            "ingest.ledger.late_amended": ledger[5],
            "ingest.ledger.windows_reevaluated": ledger[6],
            "ingest.ledger.amendments": ledger[7],
            "ingest.ledger.retractions": ledger[8],
            "durable.wal.entries": counts.get("wal_entries", 0),
            "durable.wal.bytes": counts.get("wal_bytes", 0),
            "durable.ingestor.recover_replayed_entries": counts.get(
                "recovery", (0, 0)
            )[1],
            "durable.disk_mb": counts.get("disk_bytes", 0) / 1e6,
        }
    )
    return out


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json declares of a kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def select(kind: str, values: dict[str, float]) -> dict:
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared(kind)
    }


#: Reference rates only some workloads have; the rest read 0.
REFERENCES = (
    "core.naive.detect_pts_per_s",
    "ref.sweep_pts_per_s",
    "runtime.serial_pts_per_s",
    "runtime.parallel_speedup",
)


def call_times(reps: list) -> Any:
    """Each data-path call's time: its minimum over the run's reps.

    Every rep repeats the same calls on the same input, and on a shared
    machine contention only ever adds time, so the per-call minimum is
    the steadiest estimate of what the code costs.
    """
    return np.min([r.latencies for r in reps], axis=0)


def rate(reps: list) -> float:
    return reps[0].points / float(call_times(reps).sum())


def end_to_end(w: Any, res: dict) -> tuple[dict, list[str]]:
    plain = res["plain"]
    lat_ms = call_times(plain) * 1e3
    p = tail_percentile(lat_ms.size)
    tail = float(np.percentile(lat_ms, p))
    beyond = int(np.count_nonzero(lat_ms > tail))
    values = {
        "setup_s": _median(res["setup_times"]),
        "throughput_pts_per_s": rate(plain),
        "latency_ms_p50": float(np.percentile(lat_ms, 50)),
        "latency_ms_tail": tail,
    }
    lines = [
        f"  data-path calls are timed in each of {len(plain)} reps; a "
        "call's latency is its minimum over the reps",
        f"  setup_s               {values['setup_s']:.4f} s"
        f"  (median of {w.setup_repeats} set-ups)",
        f"  throughput_pts_per_s  {values['throughput_pts_per_s']:.1f} "
        f"pts/s  ({plain[0].points} points over the summed call "
        "latencies)",
        f"  latency_ms_p50        {values['latency_ms_p50']:.4f}"
        f" ms  ({lat_ms.size} calls)",
        f"  latency_ms_tail       {tail:.4f} ms  (p{p:g} of {lat_ms.size} "
        f"calls, {beyond} beyond; population: {w.tail_population})",
    ]
    recover = [r.extra["recover_s"] for r in plain if "recover_s" in r.extra]
    if recover:
        lines += [
            f"  recover_s             {_median(recover):.4f} s  (median of "
            f"{len(recover)} recoveries, "
            f"{plain[0].counts['recovery'][1]} WAL entries replayed)",
            f"  disk_mb               "
            f"{plain[0].counts['disk_bytes'] / 1e6:.4f} MB",
        ]
    return select("end_to_end", values), lines


def per_layer(w: Any, res: dict) -> tuple[dict, list[str]]:
    traced_layers = res["traced_layers"]
    values: dict[str, float] = dict.fromkeys(REFERENCES, 0.0)
    for name in traced_layers[0]:
        values[name] = _median([d[name] for d in traced_layers])
    if res["setup_layers"]:
        for name in res["setup_layers"][0]:
            values[name] = _median([d[name] for d in res["setup_layers"]])
    detector_datapath = values["datapath_s"]
    if res["detector_pass"] is not None:
        detector_values, detector_datapath = res["detector_pass"]
        values.update(detector_values)
    values.update(count_metrics(res["plain"][0]))
    values.update(res["refs"])
    plain = res["plain"]
    recover = [r.extra["recover_s"] for r in plain if "recover_s" in r.extra]
    values["durable.ingestor.recover_s"] = (
        _median(recover) if recover else 0.0
    )
    untraced_rate = rate(plain)
    traced_rate = rate(res["traced"])
    values["trace.overhead"] = traced_rate / untraced_rate
    if values["runtime.serial_pts_per_s"]:
        values["runtime.parallel_speedup"] = (
            untraced_rate / values["runtime.serial_pts_per_s"]
        )
    datapath = values["datapath_s"]
    lines = [
        f"  traced reps {len(res['traced'])}, untraced reps {len(plain)}; "
        "layer times are seconds per rep (median over traced reps); "
        "layers a workload does not exercise read 0"
    ]
    # Shares of data-path time, for spans inside the data path.
    spans = {
        name for name in traced_layers[0]
        if name.endswith("_s") and "cpu" not in name
        and not name.startswith(("durable.ingestor.recover", "datapath"))
    }
    for name, unit in declared("per_layer"):
        note = ""
        if name in spans:
            base = detector_datapath if name.startswith("core.") else datapath
            note = f"  ({100 * values[name] / base:.1f}%)"
        lines.append(f"  {name:44s} {values[name]:.6g} {unit}{note}")
    lines.append(
        f"  (percentages: share of the data-path time, {datapath:.3f} s"
        + (
            f"; core.* of the serial fleet's {detector_datapath:.3f} s"
            if res["detector_pass"] is not None else ""
        )
        + ")"
    )
    lines += _ratio_lines(values, untraced_rate)
    return select("per_layer", values), lines


def _ratio_lines(values: dict, untraced: float) -> list[str]:
    lines = [
        f"  trace.overhead = traced "
        f"{values['trace.overhead'] * untraced:.1f} / untraced "
        f"{untraced:.1f} pts/s = {values['trace.overhead']:.4f}"
    ]
    for ref in ("ref.sweep_pts_per_s", "core.naive.detect_pts_per_s"):
        if values[ref]:
            lines.append(
                f"  detector / {ref} = {untraced:.1f} / "
                f"{values[ref]:.1f} = {untraced / values[ref]:.3f}"
            )
    if values["runtime.serial_pts_per_s"]:
        lines.append(
            f"  runtime.parallel_speedup = fleet {untraced:.1f} / serial "
            f"{values['runtime.serial_pts_per_s']:.1f} pts/s = "
            f"{values['runtime.parallel_speedup']:.3f}"
        )
    return lines


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Creating a shared-memory segment (fleet-max's chunk ring) starts the
    tracker as a child process that is meant to outlive its parent, so
    without this it would still run, or wait unreaped, after the
    benchmark exits.  The ring has unlinked its segments by now, so the
    tracker has nothing left to clean up.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        stop_resource_tracker()


def run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no library source at {SRC}; run from a checkout "
            "of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings(
        "ignore", message="numba is not installed", category=RuntimeWarning
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)}"
        )
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, workdir)
    try:
        res = measure(w, args)
    finally:
        w.close()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    tally = res["tally"]
    if args.trace:
        metrics, lines = per_layer(w, res)
    else:
        metrics, lines = end_to_end(w, res)
    share = tally.failed / tally.attempted
    print(
        f"workload {w.name} seed {args.seed} trace {args.trace} "
        f"({args.seconds:g} s measured)"
    )
    for line in lines:
        print(line)
    print(
        f"  failed_share          {share:g}  ({tally.failed} failed of "
        f"{tally.attempted} data-path calls and result checks)"
    )
    for message in tally.messages[:20]:
        print(f"  FAILED {message}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
