"""Table 3's gap matching: the bisect-bounded scan ⇔ the quadratic scan.

``misprediction_pct`` matches every oracle gap to the compiler decision
on the same disk with the largest positive overlap, the first such
decision in list order winning ties.  The reference below is the
original all-pairs scan; the two must agree exactly on arbitrary
decision lists — unsorted, overlapping, nested, touching, zero-length,
and sharing endpoints (so overlap ties are common).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.idle import IdleGap
from repro.experiments.table3 import misprediction_pct
from repro.power.planner import GapDecision, GapMode


def _overlap(a, b):
    lo = max(a.gap.start_s, b.gap.start_s)
    hi = min(a.gap.end_s, b.gap.end_s)
    return max(0.0, hi - lo)


def _reference_pct(oracle, compiler):
    """The original quadratic matcher, kept as the reference."""
    by_disk = {}
    for d in compiler:
        by_disk.setdefault(d.gap.disk, []).append(d)
    total = 0
    wrong = 0
    for od in oracle:
        total += 1
        best = None
        best_ov = 0.0
        for cd in by_disk.get(od.gap.disk, []):
            ov = _overlap(od, cd)
            if ov > best_ov:
                best, best_ov = cd, ov
        if best is None:
            wrong += 1
            continue
        o_level = od.target_rpm if od.acts else None
        c_level = best.target_rpm if best.acts else None
        if o_level != c_level:
            wrong += 1
    return 100.0 * wrong / total if total else 0.0


#: Few distinct endpoints, so equal overlaps (the tie-break) are common.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 7.25, 10.0])


@st.composite
def _decisions(draw, max_size=25):
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        a = draw(_TIMES | st.floats(0.0, 12.0))
        b = draw(_TIMES | st.floats(0.0, 12.0))
        mode = draw(st.sampled_from([GapMode.NONE, GapMode.RPM, GapMode.STANDBY]))
        rpm = draw(st.sampled_from([3600, 6000, 9000])) if mode is GapMode.RPM else None
        gap = IdleGap(draw(st.integers(0, 2)), min(a, b), max(a, b))
        out.append(GapDecision(gap, mode, rpm, gap.start_s, None, 0.0))
    return out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(oracle=_decisions(), compiler=_decisions(40))
def test_matches_quadratic_reference(oracle, compiler):
    assert misprediction_pct(oracle, compiler) == _reference_pct(oracle, compiler)


def test_tie_goes_to_first_decision_in_list_order():
    """Two decisions overlap the oracle gap equally; the one listed first
    decides, even though it starts later."""
    gap = IdleGap(0, 1.0, 3.0)
    oracle = [GapDecision(gap, GapMode.RPM, 6000, 1.0, None, 0.0)]
    later_first = GapDecision(IdleGap(0, 2.0, 5.0), GapMode.RPM, 6000, 2.0, None, 0.0)
    earlier_second = GapDecision(IdleGap(0, 0.0, 2.0), GapMode.RPM, 3600, 0.0, None, 0.0)
    assert misprediction_pct(oracle, [later_first, earlier_second]) == 0.0
    assert misprediction_pct(oracle, [earlier_second, later_first]) == 100.0
