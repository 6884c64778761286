"""Output checks: burst tables, the cumsum sweep, and comparisons.

A burst table is a pair of arrays in canonical (size, end) order:
``keys[:, 0]`` window end, ``keys[:, 1]`` window size, and the window
aggregate in ``values``.

Floating-point tolerance.  ``ChunkedDetector`` sums windows from prefix
sums that it accumulates chunk by chunk, while the sweep takes one
``np.cumsum`` over the whole stream; on non-dyadic data (exp values)
the two round differently, by a relative amount that grows with the
stream's running sum (at most 2.1e-11 on one million exp(1) points,
seeds 1 to 10).  So on
paper-exp the (end, size) sets must match exactly except for windows
whose sweep value lies within ``TIE_RTOL`` of the threshold -- there
rounding may decide either way; such windows are counted and printed --
and values must agree within ``VALUE_RTOL``.  Integer-valued streams
(ingest-durable) and detector-versus-detector comparisons (fleet-max)
are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable

import numpy as np

VALUE_RTOL = 1e-9
TIE_RTOL = 1e-9

#: Window ends stay below this, so ``size * KEY_BASE + end`` is unique.
KEY_BASE = 1 << 40


@dataclass
class BurstTable:
    keys: np.ndarray  # int64 (n, 2): end, size
    values: np.ndarray  # float64 (n,)

    def __len__(self) -> int:
        return int(self.values.size)

    def codes(self) -> np.ndarray:
        return self.keys[:, 1] * KEY_BASE + self.keys[:, 0]


def _table(ends: Any, sizes: Any, values: Any) -> BurstTable:
    ends = np.asarray(ends, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    order = np.lexsort((ends, sizes))
    return BurstTable(
        np.stack([ends[order], sizes[order]], axis=1),
        np.asarray(values, dtype=np.float64)[order],
    )


def burst_table(bursts: Iterable[Any]) -> BurstTable:
    """Table of ``Burst`` objects (``end``, ``size``, ``value``)."""
    bursts = list(bursts)
    return _table(
        [b.end for b in bursts],
        [b.size for b in bursts],
        [b.value for b in bursts],
    )


def concat(tables: list[BurstTable]) -> BurstTable:
    keys = np.concatenate([t.keys for t in tables]).reshape(-1, 2)
    values = np.concatenate([t.values for t in tables])
    return _table(keys[:, 0], keys[:, 1], values)


def perturbed(table: BurstTable) -> BurstTable:
    """The table with its last burst's end moved by one position."""
    keys = table.keys.copy()
    keys[-1, 0] += 1
    return _table(keys[:, 0], keys[:, 1], table.values)


@dataclass
class Sweep:
    """Every window over its threshold, by a whole-stream cumsum."""

    table: BurstTable
    #: Codes of windows within TIE_RTOL of their threshold.
    ties: np.ndarray


def cumsum_sweep(
    data: np.ndarray, thresholds: Any, band: bool = True
) -> Sweep:
    """The benchmark's own naive sweep over every window size.

    ``band=False`` skips collecting near-threshold windows (the timed
    reference path).
    """
    prefix = np.concatenate(([0.0], np.cumsum(data, dtype=np.float64)))
    ends, sizes, values, ties = [], [], [], []
    for w, f in zip(
        thresholds.window_sizes.tolist(), thresholds.values.tolist()
    ):
        v = prefix[w:] - prefix[:-w]  # v[i]: window data[i : i + w]
        hit = np.flatnonzero(v >= f)
        ends.append(hit + (w - 1))
        sizes.append(np.full(hit.size, w, dtype=np.int64))
        values.append(v[hit])
        if band:
            near = np.flatnonzero(np.abs(v - f) <= TIE_RTOL * f)
            ties.append(w * KEY_BASE + near + (w - 1))
    table = _table(
        np.concatenate(ends), np.concatenate(sizes), np.concatenate(values)
    )
    tie_codes = (
        np.concatenate(ties) if ties else np.empty(0, dtype=np.int64)
    )
    return Sweep(table, tie_codes)


def compare_to_sweep(table: BurstTable, sweep: Sweep) -> list[str]:
    """Exact (end, size) match outside the tie band; values to rtol."""
    got, want = table.codes(), sweep.table.codes()
    extra = np.setdiff1d(got, want)
    missing = np.setdiff1d(want, got)
    failures = []
    for label, codes in (("extra", extra), ("missing", missing)):
        unexplained = np.setdiff1d(codes, sweep.ties)
        if unexplained.size:
            code = int(unexplained[0])
            failures.append(
                f"{unexplained.size} {label} burst(s) vs the cumsum sweep, "
                f"e.g. end {code % KEY_BASE} size {code // KEY_BASE}"
            )
    common, gi, wi = np.intersect1d(got, want, return_indices=True)
    if common.size:
        a, b = table.values[gi], sweep.table.values[wi]
        rel = np.abs(a - b) / np.maximum(np.abs(b), 1.0)
        worst = float(rel.max())
        if worst > VALUE_RTOL:
            failures.append(
                f"burst value off the sweep by {worst:.3g} relative "
                f"(tolerance {VALUE_RTOL:g})"
            )
    return failures


def compare_exact(got: BurstTable, want: BurstTable, label: str) -> list:
    """Identical (end, size, value) sets."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} bursts, expected {len(want)}"]
    if not np.array_equal(got.keys, want.keys):
        return [f"{label}: burst (end, size) sets differ"]
    if not np.array_equal(got.values, want.values):
        return [f"{label}: burst values differ"]
    return []


def time_call(call: Callable[[], Any]) -> float:
    t0 = perf_counter()
    call()
    return perf_counter() - t0
