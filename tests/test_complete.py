import math

import numpy as np

from oracles import check_partition, greedy_step
from satset.plane import canonical_plane
from satset.saturation import SaturationState, complete, is_saturating, unsaturated


def complete_from(plane, points):
    """`complete` on a fresh state holding `points`."""
    state = SaturationState(plane)
    for p in sorted(points):
        state.add_point(p)
    return complete(state)


def test_complete_fano_example():
    pl = canonical_plane(2)
    assert complete_from(pl, {0, 4, 6}) == {0, 4, 5, 6}


def test_complete_keeps_saturating_sets():
    pl = canonical_plane(2)
    assert complete_from(pl, {0, 4, 5, 6}) == {0, 4, 5, 6}
    pl3 = canonical_plane(3)
    everything = set(range(pl3.n))
    assert complete_from(pl3, everything) == everything


def test_complete_from_empty_and_singleton():
    for q in (2, 3, 5):
        pl = canonical_plane(q)
        for start in (set(), {4}):
            result = complete_from(pl, start)
            assert start <= result
            assert is_saturating(pl, result)


def test_complete_respects_pairing_budget():
    """No more than ceil(|R|/2) additions beyond the two-point startup."""
    rng = np.random.default_rng(99)
    for q in (5, 7, 9, 11, 13):
        pl = canonical_plane(q)
        for _ in range(40):
            size = int(rng.integers(0, 3 * int(math.isqrt(q)) + 2))
            start = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            startup = max(0, 2 - len(start))
            seeded = set(start)
            p = 0
            for _ in range(startup):
                while p in seeded:
                    p += 1
                seeded.add(p)
            budget = math.ceil(len(unsaturated(pl, seeded)) / 2)
            result = complete_from(pl, start)
            assert start <= result
            assert is_saturating(pl, result)
            assert len(result) - len(seeded) <= budget


def test_complete_is_deterministic():
    pl = canonical_plane(7)
    start = {3, 11, 40}
    assert complete_from(pl, start) == complete_from(pl, start)


def test_complete_finishes_a_greedy_state_like_a_fresh_one():
    """Completing a greedy mid-run state in place matches a fresh state's result."""
    for q in (7, 9, 16):
        pl = canonical_plane(q)
        for variant in ("skew", "global"):
            for steps in range(4):
                state = SaturationState(pl)
                state.add_point(0)
                state.add_point(1)
                for _ in range(steps):
                    greedy_step(state, variant)
                chosen = state.current_set
                expected = complete_from(pl, chosen)
                assert complete(state) == expected
                assert state.current_set == expected and state.unsat_count == 0
                assert check_partition(state)
