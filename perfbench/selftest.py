"""Self-test of the benchmark's output checks.

Runs each workload at a reduced size, confirms its checks pass on the
library's real output, then moves one burst and confirms the same
checks count the rep as failed.  Usage, from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
warnings.filterwarnings(
    "ignore", message="numba is not installed", category=RuntimeWarning
)

import checks  # noqa: E402
import workloads  # noqa: E402
from run import Tally, stop_resource_tracker  # noqa: E402
from tracer import null_span  # noqa: E402


class SmallPaperExp(workloads.PaperExp):
    POINTS = 200_000


class SmallFleetMax(workloads.FleetMax):
    STREAMS = 3
    POINTS = 100_000
    TRAIN = 50_000


class SmallIngestDurable(workloads.IngestDurable):
    RECORDS = 60_000
    N_BATCHES = -(-RECORDS // workloads.IngestDurable.BATCH)
    SNAPSHOT_EVERY = 8


def _perturb(outputs):
    if isinstance(outputs, checks.BurstTable):
        return checks.perturbed(outputs)
    if isinstance(outputs, dict):  # fleet: one table per stream
        name = next(n for n, t in outputs.items() if len(t))
        return {**outputs, name: checks.perturbed(outputs[name])}
    bursts, series = outputs  # ingest: final bursts and sealed series
    return checks.perturbed(bursts), series


def selftest(cls: type, workdir: Path) -> list[str]:
    w = cls(7, workdir / cls.name)
    problems = []
    try:
        state = w.setup(null_span)
        w.after_setup()
        w.prepare_checks(state)
        rep = w.rep(state, null_span)
        tally = Tally()
        tally.check(w.check(state, rep), "unmodified")
        if tally.failed:
            problems.append(f"{cls.name}: real output failed its check: "
                            + "; ".join(tally.messages))
        bad = dataclasses.replace(rep, outputs=_perturb(rep.outputs))
        tally.check(w.check(state, bad), "perturbed")
        if tally.failed != 1 or tally.attempted != 2:
            problems.append(
                f"{cls.name}: a perturbed burst set was not counted as "
                "a failure"
            )
        else:
            print(f"{cls.name}: ok ({tally.messages[0]})")
    finally:
        w.close()
    return problems


def main() -> int:
    problems = []
    try:
        with tempfile.TemporaryDirectory(
            dir=ROOT, prefix=".perfbench-selftest-"
        ) as tmp:
            for cls in (SmallPaperExp, SmallFleetMax, SmallIngestDurable):
                problems += selftest(cls, Path(tmp))
    finally:
        stop_resource_tracker()
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
