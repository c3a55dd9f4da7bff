import numpy as np
import pytest

from oracles import greedy_step, skew_lines
from satset import saturation
from satset.formulas import default_step_cap, theorem_bound
from satset.plane import canonical_plane
from satset.saturation import (SaturationState, greedy_construct, is_saturating,
                               minsat_bruteforce)


def random_state(plane, rng, size):
    state = SaturationState(plane)
    for p in rng.choice(plane.n, size=size, replace=False):
        state.add_point(int(p))
    return state


@pytest.mark.parametrize("q", [5, 7, 9, 13])
def test_benefit_sum_identity_on_random_states(q):
    """Sum of benefits over a skew line = |R ∩ l| + |S| * |R \\ l|."""
    pl = canonical_plane(q)
    rng = np.random.default_rng(q * 31)
    checked = 0
    while checked < 100:
        size = int(rng.integers(2, q + 2))
        state = random_state(pl, rng, size)
        if state.unsat_count == 0:
            continue
        skew = skew_lines(pl, state.current_set)
        if not skew:
            continue
        counts = {j: int(state.unsat_on_line[j]) for j in skew}
        l_star = min(skew, key=lambda j: (counts[j], j))
        cap = counts[l_star]
        total = sum(state.benefits([p])[0] for p in pl.line_points[l_star].tolist())
        assert total == cap + size * (state.unsat_count - cap)
        # min-intersection lemma, exact integer form of min <= |R|/q
        assert cap * q <= state.unsat_count
        checked += 1


def test_greedy_step_records_and_invariants():
    pl = canonical_plane(9)
    state = SaturationState(pl)
    state.add_point(0)
    state.add_point(1)
    records = []
    while state.unsat_count:
        records.append(greedy_step(state, "skew"))
    for rec in records:
        assert rec.r_after == rec.r_before - rec.benefit
        if rec.skew_line is not None:
            assert rec.min_skew_intersection * 9 <= rec.r_before
            if rec.step >= 2:
                assert rec.skew_benefit_sum == (
                    rec.min_skew_intersection
                    + rec.step * (rec.r_before - rec.min_skew_intersection))


def test_greedy_step_requires_unsaturated_points():
    pl = canonical_plane(2)
    state = SaturationState(pl)
    for p in range(7):
        state.add_point(p)
    with pytest.raises(ValueError):
        greedy_step(state)


def test_greedy_step_requires_two_seed_points():
    state = SaturationState(canonical_plane(3))
    state.add_point(0)
    with pytest.raises(ValueError, match="seed"):
        greedy_step(state)


def test_skew_variant_falls_back_to_global():
    # a full line leaves no skew lines (every line meets it), yet
    # unsaturated points remain off the line
    pl = canonical_plane(3)
    state = SaturationState(pl)
    for p in pl.line_points[0].tolist():
        state.add_point(p)
    assert not skew_lines(pl, state.current_set)
    assert state.unsat_count > 0
    rec = greedy_step(state, "skew")
    assert rec.skew_line is None and rec.min_skew_intersection is None
    assert rec.benefit >= 1


def count_vector_builds(monkeypatch):
    """Count `_select` calls and `benefit_vector` builds from here on."""
    calls = {"select": 0, "vector": 0}
    select, vector = saturation._select, SaturationState.benefit_vector

    def counted_select(state, variant):
        calls["select"] += 1
        return select(state, variant)

    def counted_vector(self):
        calls["vector"] += 1
        return vector(self)

    monkeypatch.setattr(saturation, "_select", counted_select)
    monkeypatch.setattr(SaturationState, "benefit_vector", counted_vector)
    return calls


def test_skew_greedy_scores_its_line_without_the_benefit_vector(monkeypatch):
    calls = count_vector_builds(monkeypatch)
    _, trace = greedy_construct(canonical_plane(16), "skew")
    assert all(rec.skew_line is not None for rec in trace[2:])
    assert calls["select"] >= len(trace) - 2 > 0
    assert calls["vector"] == 0
    # with no skew line left, the skew step falls back to the vector
    pl = canonical_plane(3)
    state = SaturationState(pl, pl.line_points[0].tolist())
    greedy_step(state, "skew")
    assert calls["vector"] == 1


def test_global_greedy_builds_one_vector_per_selection(monkeypatch):
    calls = count_vector_builds(monkeypatch)
    _, trace = greedy_construct(canonical_plane(16), "global")
    assert calls["select"] >= len(trace) - 2 > 0
    assert calls["vector"] == calls["select"]


def test_greedy_rejects_unknown_options():
    pl = canonical_plane(2)
    with pytest.raises(ValueError):
        greedy_construct(pl, variant="best")
    with pytest.raises(ValueError):
        greedy_construct(pl, stop_rule="never")


def test_greedy_q2_matches_bruteforce_minimum():
    pl = canonical_plane(2)
    minimum, _ = minsat_bruteforce(pl)
    for variant in ("skew", "global"):
        points, _ = greedy_construct(pl, variant)
        assert is_saturating(pl, points)
        assert len(points) == minimum == 4


def test_greedy_q9_beats_theorem_bound():
    pl = canonical_plane(9)
    for variant in ("skew", "global"):
        points, _ = greedy_construct(pl, variant)
        assert is_saturating(pl, points)
        assert len(points) <= theorem_bound(9) == 10


def test_greedy_deterministic():
    pl = canonical_plane(7)
    for variant in ("skew", "global"):
        for rule in ("benefit-floor", "step-cap", "exhaust"):
            a, tra = greedy_construct(pl, variant, rule)
            b, trb = greedy_construct(pl, variant, rule)
            assert a == b
            assert tra == trb


def test_greedy_trace_r_accounting():
    pl = canonical_plane(13)
    points, trace = greedy_construct(pl, "skew")
    assert trace[0].r_before == pl.n
    for rec in trace:
        assert rec.r_after == rec.r_before - rec.benefit
    for prev, cur in zip(trace, trace[1:]):
        assert cur.r_before == prev.r_after
        assert cur.step == prev.step + 1


def test_stop_rule_exhaust_needs_no_completion():
    pl = canonical_plane(5)
    points, trace = greedy_construct(pl, "skew", "exhaust")
    assert is_saturating(pl, points)
    # every member entered through the trace: no completion points
    assert {rec.point for rec in trace} == points
    assert trace[-1].r_after == 0


def test_stop_rule_step_cap():
    pl = canonical_plane(9)
    points, trace = greedy_construct(pl, "skew", "step-cap", step_cap=4)
    assert is_saturating(pl, points)
    assert len(trace) == 4                      # greedy stops at |S| = 4
    points_default, trace_default = greedy_construct(pl, "skew", "step-cap")
    assert is_saturating(pl, points_default)
    assert len(trace_default) <= default_step_cap(9)


def test_step_cap_is_refused_unless_it_can_be_honoured():
    pl = canonical_plane(7)
    for cap in (-5, 0, 1):
        with pytest.raises(ValueError, match="step_cap must be >= 2"):
            greedy_construct(pl, "skew", "step-cap", step_cap=cap)
    for rule in ("benefit-floor", "exhaust"):
        with pytest.raises(ValueError, match="step_cap only applies"):
            greedy_construct(pl, "skew", rule, step_cap=3)
    points, trace = greedy_construct(pl, "skew", "step-cap", step_cap=2)
    assert is_saturating(pl, points) and len(trace) == 2


def test_benefit_floor_stops_before_weak_picks():
    pl = canonical_plane(9)
    _, trace = greedy_construct(pl, "skew", "benefit-floor")
    # every committed non-seed step removed at least two points
    for rec in trace[2:]:
        assert rec.benefit >= 2


def test_greedy_startup_is_points_0_and_1():
    pl = canonical_plane(7)
    _, trace = greedy_construct(pl)
    assert (trace[0].point, trace[1].point) == (0, 1)
    assert trace[0].benefit == 1                # the seed point leaves R itself
    assert trace[1].benefit == 7                # one determined line of q+1 points


def test_greedy_on_loaded_plane(tmp_path):
    from satset.plane import load_plane, save_plane
    pl = canonical_plane(3)
    save_plane(pl, tmp_path / "p.txt")
    loaded = load_plane(tmp_path / "p.txt")
    points, _ = greedy_construct(loaded)
    assert is_saturating(loaded, points)
    same_canonical, _ = greedy_construct(pl)
    assert points == same_canonical             # identical incidence, identical run
