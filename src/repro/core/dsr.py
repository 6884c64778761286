"""Detection plans and detailed-search-region (DSR) search.

This module holds the geometry shared by both detectors:

* :class:`LevelPlan` — everything the detection loop needs per SAT level,
  precomputed once per ``(structure, thresholds)`` pair: the responsibility
  range, the window sizes of interest inside it, their thresholds, and the
  minimum (trigger) threshold.

* :func:`find_triggered` — the filter refinement of paper §3.2: given a
  node's aggregate, find which responsible sizes could hold a burst.  For
  monotone thresholds this is a binary search for the largest size ``h``
  with ``f(h) <= value`` (all smaller responsible sizes are then searched);
  for non-monotone thresholds it degrades to a linear scan.

* :func:`search_dsr` — the detailed search itself: examine every candidate
  cell ``(t', w)`` in the node's detailed search region, i.e. window end
  times in ``(t - shift, t]`` and triggered sizes, reporting real bursts.
  It and the chunked detector's batched search both evaluate regions
  through :func:`search_region`, over the plan's size *hull* with
  ``+inf`` thresholds at sizes not searched.

Filter-comparison accounting follows the paper's cost model (§4.2): one
comparison per node against the trigger threshold, plus ``log2(range) + 1``
comparisons (we use ``len(range).bit_length()``) when the node alarms and
the refinement binary search runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregates import WindowEngine
from .events import Burst
from .opcount import OpCounters
from .structure import SATStructure
from .thresholds import ThresholdModel

__all__ = [
    "LevelPlan",
    "build_plans",
    "clipped_cells",
    "find_triggered",
    "search_dsr",
    "search_region",
]


@dataclass(frozen=True)
class LevelPlan:
    """Per-level detection plan (see module docstring)."""

    level: int
    size: int
    shift: int
    lo: int  # smallest responsible window size
    hi: int  # largest responsible window size
    sizes: np.ndarray  # window sizes of interest in [lo, hi]
    thresholds: np.ndarray  # f(w) aligned with `sizes`
    min_threshold: float  # trigger threshold (inf if `sizes` empty)
    monotone: bool  # thresholds nondecreasing within this level
    # The DSR *hull*: sizes from sizes[-1] down to sizes[0] in steps of
    # gcd(diff(sizes)), so every size of interest is a hull size.
    # Derived once from `sizes`/`thresholds` in __post_init__.
    hull_step: int = field(init=False, compare=False)
    # f(w) over the hull, largest size first; +inf at hull sizes that
    # are not sizes of interest, so they meet no threshold.
    hull_thresholds: np.ndarray = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        sizes = self.sizes
        step = int(np.gcd.reduce(np.diff(sizes))) if sizes.size > 1 else 1
        pos = (sizes - sizes[0]) // step if sizes.size else sizes
        hull = int(pos[-1]) + 1 if sizes.size else 0
        thresholds = np.full(hull, np.inf, dtype=np.float64)
        thresholds[hull - 1 - pos] = self.thresholds
        object.__setattr__(self, "hull_step", step)
        object.__setattr__(self, "hull_thresholds", thresholds)

    @property
    def active(self) -> bool:
        """Whether this level can ever trigger a detailed search."""
        return self.sizes.size > 0

    @property
    def dsr_cells(self) -> int:
        """Cells in one node's detailed search region: shift x |sizes|."""
        return self.shift * int(self.sizes.size)


def build_plans(
    structure: SATStructure, thresholds: ThresholdModel
) -> list[LevelPlan]:
    """Precompute a :class:`LevelPlan` for every level above 0.

    Raises ``ValueError`` if the structure cannot cover the largest window
    size of interest (it would silently miss bursts otherwise).
    """
    if not structure.covers(thresholds.max_window):
        raise ValueError(
            f"structure coverage {structure.coverage} < max window of "
            f"interest {thresholds.max_window}; bursts would be missed"
        )
    plans = []
    for i in range(1, len(structure.levels)):
        lv = structure.levels[i]
        lo, hi = structure.responsibility_range(i)
        ws = thresholds.sizes_in(lo, hi) if lo <= hi else np.empty(0, np.int64)
        fs = np.array([thresholds.threshold(int(w)) for w in ws])
        mono = bool(np.all(np.diff(fs) >= 0)) if fs.size else True
        plans.append(
            LevelPlan(
                level=i,
                size=lv.size,
                shift=lv.shift,
                lo=lo,
                hi=hi,
                sizes=np.asarray(ws, dtype=np.int64),
                thresholds=fs,
                min_threshold=float(fs.min()) if fs.size else float("inf"),
                monotone=mono,
            )
        )
    return plans


def find_triggered(
    plan: LevelPlan, value: float, counters: OpCounters
) -> tuple[np.ndarray, np.ndarray]:
    """Sizes within the level's plan whose thresholds the node value meets.

    Assumes the caller already spent (and counted) the one trigger
    comparison ``value >= plan.min_threshold`` and found it true.  Returns
    the window sizes to search with their thresholds, and charges the
    refinement comparisons to ``counters``.
    """
    if plan.monotone:
        counters.filter_comparisons[plan.level] += int(
            plan.sizes.size
        ).bit_length()
        cut = int(np.searchsorted(plan.thresholds, value, side="right"))
        return plan.sizes[:cut], plan.thresholds[:cut]
    counters.filter_comparisons[plan.level] += int(plan.sizes.size)
    mask = plan.thresholds <= value
    return plan.sizes[mask], plan.thresholds[mask]


def clipped_cells(first_end: int, sizes: np.ndarray, span: int) -> int:
    """DSR cells whose window would start before stream index 0.

    Counts, over window ``sizes``, the ends in ``[first_end, first_end +
    span)`` lower than ``size - 1``: cells that are not searched (and
    not charged) because the window is not yet full.
    """
    return int(np.clip(sizes - 1 - first_end, 0, span).sum())


def search_region(
    engine: WindowEngine,
    plan: LevelPlan,
    node_ends: np.ndarray,
    span: int,
    skip: int,
    thresholds: np.ndarray,
    counters: OpCounters,
    out: list[Burst],
) -> None:
    """Report the bursts in the detailed search regions of ``node_ends``.

    Evaluates the windows of hull sizes ``plan.hull_thresholds[skip:]``
    ending in ``(t - span, t]`` for every node end ``t`` in one
    :meth:`~repro.core.aggregates.WindowEngine.dsr_values` call.
    ``thresholds`` is aligned with that hull slice and ``+inf`` at every
    size not searched.  Bursts are appended by size, then node, then
    end; charging search cells is the caller's job.
    """
    count = thresholds.size
    step = plan.hull_step
    top = int(plan.sizes[-1]) - step * skip
    values = engine.dsr_values(node_ends, span, top, step, count)
    hits = values >= thresholds
    if not hits.any():
        return
    # The hull axis runs largest size first; walk it smallest first.
    rev, ks, js = np.nonzero(hits.transpose(2, 0, 1)[::-1])
    hs = count - 1 - rev
    sizes = top - step * hs
    ends = node_ends[ks] - (span - 1) + js
    for end, size, value in zip(
        ends.tolist(), sizes.tolist(), values[ks, js, hs].tolist()
    ):
        out.append(Burst(end, size, value))
    counters.bursts += int(rev.size)


def search_dsr(
    engine: WindowEngine,
    plan: LevelPlan,
    node_end: int,
    span: int,
    sizes: np.ndarray,
    size_thresholds: np.ndarray,
    counters: OpCounters,
    out: list[Burst],
) -> None:
    """Detailed search of one node's DSR.

    Examines windows of each size in ``sizes`` ending in
    ``(node_end - span, node_end]`` (restricted to full windows inside the
    stream) and appends real bursts to ``out``.  ``span`` is the level
    shift for regular nodes, or the shorter tail span for the flush node at
    end of stream.  ``sizes`` must be a subset of ``plan.sizes`` (what
    :func:`find_triggered` returns); the others get an infinite threshold
    row, and :func:`search_region` evaluates the region.
    """
    if sizes.size == 0:
        return
    step = plan.hull_step
    largest = int(sizes[-1])
    count = (largest - int(sizes[0])) // step + 1
    row = np.full(count, np.inf, dtype=np.float64)
    row[(largest - sizes) // step] = size_thresholds
    first = node_end - span + 1
    cells = span * int(sizes.size) - clipped_cells(first, sizes, span)
    counters.search_cells[plan.level] += cells
    search_region(
        engine,
        plan,
        np.array([node_end], dtype=np.int64),
        span,
        (int(plan.sizes[-1]) - largest) // step,
        row,
        counters,
        out,
    )
