"""Table 3 — percentage of mispredicted disk speeds (CMDRPM vs IDRPM).

The paper records, for each idleness period, the RPM level each scheme
chose, and reports the fraction where the compiler's choice differs from
the oracle's — the quantity that "explains the success of the
compiler-driven scheme" (its mispredictions are modest: 5-27 %).

Methodology here: the oracle's decisions over the *realized* gaps are the
reference.  Each oracle gap of exploitable length is matched to the
compiler's (estimated-gap) decision with the largest temporal overlap on
the same disk; the prediction is correct when both chose the same level
(counting "stay at full speed" as a level).  Oracle gaps the compiler never
saw count as mispredictions — invisibility is the severest form of
estimation error.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate

from ..controllers.oracle import oracle_decisions
from ..power.planner import GapDecision
from ..workloads.registry import WORKLOAD_NAMES
from .report import ExperimentReport
from .runner import ExperimentContext

__all__ = ["run", "misprediction_pct"]


def _overlap(a: GapDecision, b: GapDecision) -> float:
    lo = max(a.gap.start_s, b.gap.start_s)
    hi = min(a.gap.end_s, b.gap.end_s)
    return max(0.0, hi - lo)


def misprediction_pct(
    oracle: list[GapDecision], compiler: list[GapDecision]
) -> float:
    """Fraction (%) of oracle idleness periods where the compiler picked a
    different level (or none at all).

    Each oracle gap is matched to the first compiler decision (in list
    order) on its disk whose overlap with it is the largest positive one.
    Per disk, the decisions are sorted by start with a running maximum of
    their ends, so two bisects bound the only candidates that can overlap
    a gap: those starting before it ends, from the first whose running
    end passes its start.
    """
    groups: dict[int, list[tuple[float, int, GapDecision]]] = {}
    for i, d in enumerate(compiler):
        groups.setdefault(d.gap.disk, []).append((d.gap.start_s, i, d))
    index = {}
    for disk, items in groups.items():
        items.sort(key=lambda item: item[:2])
        starts = [item[0] for item in items]
        reach = list(accumulate((item[2].gap.end_s for item in items), max))
        index[disk] = (starts, reach, items)
    total = 0
    wrong = 0
    for od in oracle:
        total += 1
        best = None
        best_ov = 0.0
        best_i = -1
        entry = index.get(od.gap.disk)
        if entry is not None:
            starts, reach, items = entry
            lo = bisect_right(reach, od.gap.start_s)
            hi = bisect_left(starts, od.gap.end_s)
            for _, i, cd in items[lo:hi]:
                ov = _overlap(od, cd)
                if ov > best_ov or (best is not None and ov == best_ov and i < best_i):
                    best, best_ov, best_i = cd, ov, i
        if best is None:
            wrong += 1
            continue
        o_level = od.target_rpm if od.acts else None
        c_level = best.target_rpm if best.acts else None
        if o_level != c_level:
            wrong += 1
    return 100.0 * wrong / total if total else 0.0


def run(ctx: ExperimentContext | None = None) -> ExperimentReport:
    ctx = ctx or ExperimentContext()
    rep = ExperimentReport(
        experiment_id="table3",
        title="Percentage of mispredicted disk speeds, CMDRPM vs IDRPM (paper Table 3)",
        columns=("measured_%", "paper_%"),
        # paper row order
    )
    for name in WORKLOAD_NAMES:
        suite = ctx.suite(name)
        wl = ctx.workload(name)
        oracle = oracle_decisions(suite.base, ctx.params, "drpm")
        compiler = list(suite.plans["CMDRPM"].decisions)
        pct = misprediction_pct(oracle, compiler)
        rep.add_row(name, (pct, wl.paper.misprediction_pct))
    rep.notes.append(
        "a period counts as mispredicted when the compiler chose a different "
        "RPM level than the oracle for the (best-overlapping) idleness, or "
        "failed to see the idleness at all"
    )
    return rep
