import itertools

import numpy as np
import pytest

from oracles import (check_partition, determined_set, greedy_step, relabelled_plane,
                     skew_lines, undetermined_count, unsaturated_set)
from satset.formulas import sampling_probability
from satset.plane import _block_rows, canonical_plane, line_hits, on_lines
from satset.rng import generator_from_seed
from satset.saturation import (VARIANTS, SaturationState, _covered_mask, complete,
                               greedy_construct, is_saturating, unsaturated)


def brute_unsaturated(plane, points):
    """Oracle: scan all lines through every outside point."""
    pts = set(points)
    out = set()
    for p in range(plane.n):
        if p in pts:
            continue
        if all(len(pts.intersection(plane.line_points[j].tolist())) < 2
               for j in plane.point_lines[p].tolist()):
            out.add(p)
    return out


def brute_benefit(plane, points, cand, unsat=None):
    """Oracle: |<cand, S> ∩ R| from the definition, lines built one by one.

    `unsat` may pass R = brute_unsaturated(plane, points) precomputed.
    """
    pts = set(points)
    if not pts:
        return 0
    if unsat is None:
        unsat = brute_unsaturated(plane, pts)
    joined = set()
    for s in pts:
        joined.update(plane.line_points[plane.line_through(cand, s)].tolist())
    return len(joined & unsat)


def test_unsaturated_examples():
    pl = canonical_plane(2)
    assert unsaturated(pl, {0, 4, 6}) == {3}
    assert unsaturated(pl, set()) == set(range(7))
    # one full line determines only itself
    line = set(pl.line_points[0].tolist())
    assert unsaturated(pl, line) == set(range(7)) - line


def test_unsaturated_against_oracle():
    rng = np.random.default_rng(42)
    for q in (2, 3, 4, 5):
        pl = canonical_plane(q)
        for size in (0, 1, 2, 3, q + 2):
            pts = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            assert unsaturated(pl, pts) == brute_unsaturated(pl, pts)


def test_unsaturated_rejects_bad_index():
    pl = canonical_plane(2)
    with pytest.raises(ValueError):
        unsaturated(pl, {0, 7})


def test_undetermined_count_semantics():
    pl = canonical_plane(2)
    assert undetermined_count(pl, set()) == 7
    # a singleton determines nothing, and itself counts as undetermined
    assert undetermined_count(pl, {3}) == 7
    assert len(unsaturated(pl, {3})) == 6
    # with >= 2 points both notions agree
    for pts in ({0, 4}, {0, 4, 6}, {0, 4, 5, 6}):
        assert undetermined_count(pl, pts) == len(unsaturated(pl, pts))


def test_is_saturating():
    pl = canonical_plane(2)
    assert is_saturating(pl, {0, 4, 5, 6})
    assert not is_saturating(pl, {0, 4, 6})
    assert is_saturating(pl, set(range(7)))
    assert not is_saturating(pl, set())         # needs at least two points
    assert not is_saturating(pl, {0})


def test_add_point_rejects_indices_outside_the_plane():
    pl = canonical_plane(2)
    state = SaturationState(pl)
    for bad in (-1, -7, 7, 100):
        with pytest.raises(ValueError):
            state.add_point(bad)
    assert state.chosen == [] and state.unsat_count == 7
    assert not state.in_chosen.any()
    state.add_point(6)
    assert state.chosen == [6]


def test_benefit_rejects_indices_outside_the_plane():
    pl = canonical_plane(2)
    state = SaturationState(pl)
    for p in (0, 4):
        state.add_point(p)
    for bad in (-1, pl.n, 100):
        with pytest.raises(ValueError, match="outside"):
            state.benefits([bad])[0]
    # the kernel names the first bad point as the scalar does, chosen ones too
    for bad in (-1, pl.n, 100, 0, 4):
        messages = []
        for call in (lambda: state.benefits([bad])[0], lambda: state.benefits([2, bad, 3])):
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert state.benefits([6])[0] == 3
    assert state.benefits([]).size == 0


def test_benefit_examples():
    pl = canonical_plane(2)
    state = SaturationState(pl)
    for p in range(7):
        assert state.benefits([p])[0] == 0            # nothing determined yet
    for p in (0, 4, 6):
        state.add_point(p)
    assert state.benefits([5])[0] == 1
    with pytest.raises(ValueError):
        state.benefits([0])[0]                        # already chosen
    # any unsaturated candidate saturates at least itself
    for p in unsaturated_set(state):
        assert state.benefits([p])[0] >= 1


def test_benefit_against_oracle():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        pl = canonical_plane(q)
        for size in (1, 2, 3, 5):
            pts = [int(v) for v in rng.choice(pl.n, size=size, replace=False)]
            state = SaturationState(pl)
            for p in pts:
                state.add_point(p)
            others = [p for p in range(pl.n) if p not in set(pts)]
            for cand in others[:: max(1, len(others) // 15)]:
                assert state.benefits([cand])[0] == brute_benefit(pl, pts, cand)


def test_benefit_vector_matches_scalar():
    pl = canonical_plane(5)
    rng = np.random.default_rng(15)
    state = SaturationState(pl)
    for p in rng.choice(pl.n, size=4, replace=False):
        state.add_point(int(p))
    vec = state.benefit_vector()
    for p in range(pl.n):
        if state.in_chosen[p]:
            assert vec[p] == -1
        else:
            assert vec[p] == state.benefits([p])[0]


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_benefits_kernel_matches_vector_oracle_and_scalar(q):
    pl = canonical_plane(q)
    rng = np.random.default_rng(100 + q)
    for size in range(q + 3):
        state = SaturationState(pl, rng.choice(pl.n, size=size, replace=False))
        chosen = state.current_set
        unsat = brute_unsaturated(pl, chosen)
        free = np.flatnonzero(~state.in_chosen)
        got = state.benefits(free)
        vec = state.benefit_vector()
        assert np.array_equal(got, vec[free])
        for p, b in zip(free.tolist(), got.tolist()):
            assert b == state.benefits([p])[0] == brute_benefit(pl, chosen, p, unsat)
        some = rng.permutation(free)[: free.size // 3]
        assert np.array_equal(state.benefits(some), vec[some])


def assert_vector_matches_oracle(state):
    pl, chosen = state.plane, state.current_set
    unsat = brute_unsaturated(pl, chosen)
    vec = state.benefit_vector()
    for p in range(pl.n):
        if p in chosen:
            assert vec[p] == -1
        else:
            assert vec[p] == state.benefits([p])[0] == brute_benefit(pl, chosen, p, unsat), p


def kernel_states(pl):
    """States with |S| = 0, 1, 2, then each state a greedy walk passes
    through while both D and R are nonempty (skew and global walks)."""
    rng = np.random.default_rng(pl.q)
    for size in (0, 1, 2):
        state = SaturationState(pl)
        for p in rng.choice(pl.n, size=size, replace=False):
            state.add_point(int(p))
        yield state
    for variant in VARIANTS:
        state = SaturationState(pl)
        state.add_point(0)
        state.add_point(1)
        while state.unsat_count:
            if determined_set(state):
                yield state
            greedy_step(state, variant)


@pytest.mark.parametrize("q", [7, 8, 9, 16])
def test_benefit_vector_matches_oracle_and_scalar(q):
    checked = 0
    for state in kernel_states(canonical_plane(q)):
        assert_vector_matches_oracle(state)
        checked += 1
    assert checked > 3                          # the greedy walks were checked too


@pytest.mark.parametrize("q", [7, 9, 16])
@pytest.mark.parametrize("variant", VARIANTS)
def test_benefit_vector_results_outlive_later_calls(q, variant):
    # the kernel keeps its join rows on the state; no returned vector may alias them
    state = SaturationState(canonical_plane(q))
    state.add_point(0)
    state.add_point(1)
    returned = []
    while state.unsat_count:
        vec = state.benefit_vector()
        returned.append((vec, vec.copy()))
        for p in np.flatnonzero(~state.in_chosen)[::7].tolist():
            assert vec[p] == state.benefits([p])[0]
        greedy_step(state, variant)
    state.benefit_vector()
    assert len(returned) > 3
    for vec, kept in returned:
        assert np.array_equal(vec, kept)


def test_benefit_equals_unsaturated_drop():
    pl = canonical_plane(4)
    rng = np.random.default_rng(4)
    state = SaturationState(pl)
    state.add_point(2)
    for _ in range(6):
        cand = int(rng.integers(pl.n))
        if state.in_chosen[cand]:
            continue
        predicted = state.benefits([cand])[0]
        before = state.unsat_count
        removed = state.add_point(cand)
        assert removed == predicted == before - state.unsat_count


def test_state_partition_invariant_random_walks():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4, 5):
        pl = canonical_plane(q)
        state = SaturationState(pl)
        order = rng.permutation(pl.n)
        for p in order[: q + 4]:
            state.add_point(int(p))
            assert check_partition(state)
        s, d, r = state.current_set, determined_set(state), unsaturated_set(state)
        assert s | d | r == set(range(pl.n))
        assert not (s & d) and not (s & r) and not (d & r)


def test_add_point_rejects_duplicates():
    state = SaturationState(canonical_plane(2))
    state.add_point(3)
    with pytest.raises(ValueError):
        state.add_point(3)


@pytest.fixture(scope="module")
def relabelled_planes(tmp_path_factory):
    """Seeded relabellings of PG(2,q), saved and loaded, so that
    `point_lines` is a separate table that differs from `line_points`."""
    return [relabelled_plane(q, tmp_path_factory.mktemp("planes"))[0] for q in (4, 16, 64)]


# On a canonical plane `point_lines` is `line_points`, so a kernel that
# reads one table for the other passes there; these planes tell them apart.

def _oracle_sized(planes):
    """The planes small enough for the per-point benefit oracle (q <= 16)."""
    return [pl for pl in planes if pl.q <= 16]


def test_benefit_vector_on_relabelled_planes(relabelled_planes):
    for pl in _oracle_sized(relabelled_planes):
        for state in kernel_states(pl):
            assert_vector_matches_oracle(state)


def test_benefit_vector_on_bulk_states_from_unsorted_points(relabelled_planes):
    # a bulk state builds the join rows of all its points in one call
    for pl in [canonical_plane(7)] + _oracle_sized(relabelled_planes):
        rng = np.random.default_rng(pl.q)
        for size in (3, 5, pl.q + 2):
            pts = rng.permutation(pl.n)[:size]
            assert not np.all(np.diff(pts) > 0)
            assert_vector_matches_oracle(SaturationState(pl, pts.tolist()))


def test_benefit_vector_after_every_add_point(relabelled_planes):
    # the join rows grow one point at a time from an empty state
    for pl in _oracle_sized(relabelled_planes):
        state = SaturationState(pl)
        for p in np.random.default_rng(pl.n).permutation(pl.n)[: pl.q + 3].tolist():
            assert_vector_matches_oracle(state)
            state.add_point(p)
        assert_vector_matches_oracle(state)


def _sample(plane, p, seed):
    return np.flatnonzero(generator_from_seed(seed).random(plane.n) < p)


def _sequential_state(plane, points):
    state = SaturationState(plane)
    for p in points:
        state.add_point(int(p))
    return state


def _assert_same_state(bulk, seq):
    assert bulk.chosen == seq.chosen
    assert bulk.unsat_count == seq.unsat_count
    for name in ("in_chosen", "in_unsat", "line_hits", "unsat_on_line"):
        a, b = getattr(bulk, name), getattr(seq, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("q,seeds", [(2, 6), (3, 6), (4, 6), (16, 4), (64, 2)])
def test_bulk_state_equals_sequential_add_point(q, seeds):
    pl = canonical_plane(q)
    for p in (0.0, 1 / pl.n, sampling_probability(q), 0.5, 1.0):
        for seed in range(seeds):
            pts = _sample(pl, p, seed)
            _assert_same_state(SaturationState(pl, pts), _sequential_state(pl, pts))
    # points in any order: `chosen` keeps the order they were given in
    pts = np.random.default_rng(q).permutation(pl.n)[: pl.n // 3 + 1]
    _assert_same_state(SaturationState(pl, pts.tolist()), _sequential_state(pl, pts))


def test_bulk_state_on_relabelled_planes(relabelled_planes):
    for pl in relabelled_planes:
        for p in (1 / pl.n, sampling_probability(pl.q), 0.3, 1.0):
            for seed in range(4):
                pts = _sample(pl, p, seed)
                state = SaturationState(pl, pts)
                _assert_same_state(state, _sequential_state(pl, pts))
                assert check_partition(state)


def _recounted_add_point(monkeypatch, log):
    """Make every `add_point` check its line counts against a recount.

    Each call appends to `log` the set of what it saw: the side of the new
    secants it should count from (dying points at most half of their
    points, or more), whether the added point was unsaturated or
    determined, and whether it was the lowest unsaturated point.
    """
    add_point = SaturationState.add_point

    def recounted(state, point):
        plane, seen = state.plane, set()
        lines = plane.point_lines[point]
        cand = plane.line_points[lines[state.line_hits[lines] == 1]].ravel()
        dying = np.count_nonzero(state.in_unsat[cand] & (cand != point))
        if dying:
            seen.add("dying side" if 2 * dying <= cand.size else "staying side")
        seen.add("unsaturated" if state.in_unsat[point] else "determined")
        if point == np.flatnonzero(state.in_unsat)[0]:
            seen.add("lowest unsaturated")
        log.append(seen)
        removed = add_point(state, point)
        assert state.unsat_on_line.dtype == np.int64
        assert np.array_equal(state.unsat_on_line,
                              line_hits(plane, np.flatnonzero(state.in_unsat)))
        return removed

    monkeypatch.setattr(SaturationState, "add_point", recounted)


def _assert_counts_on_both_sides(monkeypatch, pl):
    log = []
    _recounted_add_point(monkeypatch, log)
    for variant in VARIANTS:
        greedy_construct(pl, variant)
    for seed in range(4):
        complete(SaturationState(pl, _sample(pl, sampling_probability(pl.q), seed)))
    assert set().union(*log) >= {"dying side", "staying side", "unsaturated", "determined"}
    # a pair {s1, s2} whose first completion pair (x1, x2) has x1 on <x2, s2>,
    # so that `complete` adds y = x1, the lowest unsaturated point, itself
    for s1, s2 in itertools.combinations(range(pl.n), 2):
        state = SaturationState(pl, [s1, s2])
        x1, x2 = np.flatnonzero(state.in_unsat)[:2].tolist()
        if pl.line_through(x1, s2) == pl.line_through(x2, s2):
            break
    del log[:]
    complete(state)
    assert "lowest unsaturated" in log[0]


@pytest.mark.parametrize("q", [4, 16, 64])
def test_add_point_counts_equal_a_recount_on_both_sides(monkeypatch, q):
    _assert_counts_on_both_sides(monkeypatch, canonical_plane(q))


def test_add_point_counts_equal_a_recount_on_relabelled_planes(monkeypatch,
                                                              relabelled_planes):
    for pl in relabelled_planes:
        _assert_counts_on_both_sides(monkeypatch, pl)


@pytest.mark.parametrize("bad", [2**70, -2**70, 2**64, 2**63, 2**64 - 1])
def test_array_entry_points_reject_indices_beyond_int64(bad):
    # the scalar entry points and the array ones name the same bad point
    pl = canonical_plane(2)
    state = SaturationState(pl, [0, 4])
    expected = f"point index {bad} outside [0, 7)"
    calls = [lambda: SaturationState(pl, [bad]),
             lambda: SaturationState(pl, [1, bad]),
             lambda: state.benefits([bad]),
             lambda: state.benefits([2, bad, 3]),
             lambda: skew_lines(pl, [bad]),
             lambda: unsaturated(pl, [bad]),
             lambda: unsaturated(pl, {1, bad}),
             lambda: state.add_point(bad),
             lambda: state.benefits([bad])[0]]
    if 0 <= bad < 2**64:
        # as a uint64 array, whose cast to intp would wrap 2**63 and up
        for pts in (np.array([bad], dtype=np.uint64), np.array([1, bad], dtype=np.uint64)):
            calls += [lambda pts=pts: SaturationState(pl, pts),
                      lambda pts=pts: state.benefits(pts),
                      lambda pts=pts: skew_lines(pl, pts),
                      lambda pts=pts: unsaturated(pl, pts),
                      lambda pts=pts: is_saturating(pl, pts)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == expected
    assert state.chosen == [0, 4]


@pytest.mark.parametrize("bad", [
    np.ones(13, dtype=bool), np.isin(np.arange(13), [0, 1, 3, 9, 12]),
    [True, 2.0, 3], [2.7], [1, 2.0], np.array([1.0, 2.0]), [np.True_, 4]])
def test_entry_points_refuse_bool_and_non_integer_indices(bad):
    # a bool mask once read as the points 0 and 1, and a float was truncated
    pl = canonical_plane(3)
    state = SaturationState(pl, [0, 1])
    for call in (lambda: unsaturated(pl, bad), lambda: is_saturating(pl, bad),
                 lambda: SaturationState(pl, bad), lambda: state.benefits(bad)):
        with pytest.raises(ValueError, match="^point index .* is not an integer$"):
            call()
    assert state.chosen == [0, 1]


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, "4"])
def test_add_point_refuses_bool_and_non_integer_indices(bad):
    # a bool was read as point 1, 2.0 raised IndexError and True a numpy error
    pl = canonical_plane(3)
    state = SaturationState(pl, [0, 1])
    with pytest.raises(ValueError) as info:
        state.add_point(bad)
    assert str(info.value) == f"point index {bad!r} is not an integer"
    assert state.chosen == [0, 1]
    state.add_point(np.uint8(4))
    assert state.chosen == [0, 1, 4] and type(state.chosen[-1]) is int


def test_integer_indices_of_any_integer_type_are_accepted():
    pl = canonical_plane(3)
    pts = np.array([0, 1, 3, 9, 12], dtype=np.intp)
    for same in (pts, pts.astype(np.uint8), pts.astype(np.int32), pts.tolist(),
                 [np.int64(v) for v in pts], pts.astype(object)):
        assert unsaturated(pl, same) == unsaturated(pl, pts)
    assert is_saturating(pl, np.arange(13))
    assert unsaturated(pl, np.array([], dtype=float)) == set(range(13))


def test_bulk_state_rejects_bad_points_as_add_point_does():
    pl = canonical_plane(2)
    for bad in ([0, -1], [7], [3, 100], [1, 5, 1], [2, 2]):
        with pytest.raises(ValueError):
            SaturationState(pl, bad)
    with pytest.raises(ValueError, match="outside"):
        SaturationState(pl, np.array([0, 7]))
    with pytest.raises(ValueError, match="already chosen"):
        SaturationState(pl, np.array([4, 0, 4]))


def dense_covered(plane, mask):
    """Reference: each line's marked-point count read off `line_points`,
    then every point of each line with two or more marked points."""
    covered = np.zeros(plane.n, dtype=bool)
    for row in plane.line_points:
        if np.count_nonzero(mask[row]) >= 2:
            covered[row] = True
    return covered


def test_sparse_recount_equals_dense_per_line_reference(relabelled_planes):
    # from q = 64 on a block of the covered mask holds fewer lines than the plane
    planes = [canonical_plane(q) for q in (2, 3, 4, 7, 16, 32, 64)] + relabelled_planes
    for pl in planes:
        none = on_lines(pl, np.array([], dtype=np.intp))
        assert none.dtype == bool and none.shape == (pl.n,) and not none.any()
        most_secants = 0
        for p in (0.0, 1 / pl.n, 0.01, 0.5, 1.0):
            for seed in range(3):
                mask = np.zeros(pl.n, dtype=bool)
                mask[_sample(pl, p, seed)] = True
                secants = np.count_nonzero(line_hits(pl, np.flatnonzero(mask)) >= 2)
                most_secants = max(most_secants, secants)
                covered = dense_covered(pl, mask)
                assert np.array_equal(_covered_mask(pl, mask), covered)
                assert unsaturated(pl, np.flatnonzero(mask)) == \
                    set(np.flatnonzero(~covered & ~mask).tolist())
                assert undetermined_count(pl, np.flatnonzero(mask)) == \
                    pl.n - int(covered.sum())
        if pl.q == 64:
            assert most_secants > _block_rows(pl.n, pl.q + 1)
