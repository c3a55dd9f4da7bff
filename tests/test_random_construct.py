import math

import pytest

from satset import saturation
from satset.plane import canonical_plane
from satset.saturation import (SaturationState, is_saturating,
                               monte_carlo_expectation, random_construct,
                               unsaturated)
from satset.formulas import expected_unsaturated, sampling_probability
from satset.rng import generator_from_seed


def test_p_one_samples_everything():
    pl = canonical_plane(3)
    points, stats = random_construct(pl, seed=0, p_override=1.0)
    assert points == set(range(pl.n))
    assert stats.sample_size == pl.n
    assert stats.unsaturated_size == 0


def test_p_zero_exercises_startup():
    pl = canonical_plane(3)
    points, stats = random_construct(pl, seed=0, p_override=0.0)
    assert stats.sample_size == 0
    assert stats.unsaturated_size == pl.n
    assert is_saturating(pl, points)
    assert len(points) <= 2 + math.ceil(pl.n / 2)      # two startup points, then pairs


def test_p_out_of_range():
    pl = canonical_plane(3)
    with pytest.raises(ValueError):
        random_construct(pl, seed=0, p_override=1.5)
    with pytest.raises(ValueError):
        random_construct(pl, seed=0, p_override=-0.2)


def test_deterministic_per_seed():
    pl = canonical_plane(9)
    a, sa = random_construct(pl, seed=1)
    b, sb = random_construct(pl, seed=1)
    assert a == b and sa == sb
    c, _ = random_construct(pl, seed=2)
    assert a != c                       # seeds 1 and 2 differ for q=9


def test_stats_budget_invariant():
    for q in (5, 9, 13):
        pl = canonical_plane(q)
        for seed in range(25):
            points, st = random_construct(pl, seed)
            assert is_saturating(pl, points)
            assert len(points) <= (st.sample_size
                                   + math.ceil(st.unsaturated_size / 2)
                                   + max(0, 2 - st.sample_size))


def test_stats_y_is_the_samples_unsaturated_count():
    """Y read off the state equals a from-scratch recount of the sample."""
    for q, p in ((9, None), (16, None), (25, None), (9, 0.0), (9, 0.02), (3, 1.0)):
        pl = canonical_plane(q)
        prob = sampling_probability(q) if p is None else p
        for seed in range(12):
            sample = {int(v) for v, hit in
                      enumerate(generator_from_seed(seed).random(pl.n) < prob) if hit}
            points, st = random_construct(pl, seed, p)
            assert sample <= points
            assert st.sample_size == len(sample)
            assert st.unsaturated_size == len(unsaturated(pl, sample))


def test_sample_enters_the_state_in_bulk(monkeypatch):
    """Only startup and completion points go through add_point."""
    added = []
    add_point = SaturationState.add_point

    def counted(state, point):
        added.append(point)
        return add_point(state, point)

    monkeypatch.setattr(SaturationState, "add_point", counted)
    for q, p in ((16, None), (64, None), (16, 0.0), (16, 1 / 273), (16, 0.5), (7, 1.0)):
        pl = canonical_plane(q)
        for seed in range(5):
            added.clear()
            points, st = random_construct(pl, seed, p)
            assert len(added) == len(points) - st.sample_size
            assert len(added) <= (math.ceil(st.unsaturated_size / 2)
                                  + max(0, 2 - st.sample_size))


def test_monte_carlo_degenerate_and_agreement():
    pl = canonical_plane(2)
    mean, err = monte_carlo_expectation(pl, 0.0, 50, seed=3)
    assert (mean, err) == (7.0, 0.0)
    mean, err = monte_carlo_expectation(pl, 0.5, 4000, seed=3)
    assert abs(mean - expected_unsaturated(2, 0.5)) <= 5 * err
    with pytest.raises(ValueError):
        monte_carlo_expectation(pl, 0.5, 0, seed=3)
    with pytest.raises(ValueError):
        monte_carlo_expectation(pl, 1.2, 10, seed=3)


def test_monte_carlo_sample_ceiling(monkeypatch):
    pl = canonical_plane(2)
    expected = monte_carlo_expectation(pl, 0.5, 10, seed=3)
    monkeypatch.setattr(saturation, "SAMPLE_BYTES_CAP", 8 * 10)
    assert monte_carlo_expectation(pl, 0.5, 10, seed=3) == expected   # at the ceiling
    monkeypatch.setattr(saturation, "SAMPLE_BYTES_CAP", 8 * 10 - 1)

    def unreachable(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(saturation, "_covered_mask", unreachable)
    with pytest.raises(ValueError, match="ceiling"):
        monte_carlo_expectation(pl, 0.5, 10, seed=3)


def test_monte_carlo_trial_order_independent():
    # per-trial streams are derived from (seed, index): mean over the same
    # trials must not depend on batch size arithmetic
    pl = canonical_plane(3)
    m1, _ = monte_carlo_expectation(pl, 0.3, 64, seed=9)
    m2, _ = monte_carlo_expectation(pl, 0.3, 64, seed=9)
    assert m1 == m2
