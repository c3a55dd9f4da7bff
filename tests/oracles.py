"""Test-side helpers: one greedy step, set views of a state, skew lines,
and relabelled planes.

No command or construction needs these, so they live beside the tests,
where each serves as an independent view of the library's state.
"""

import numpy as np

from satset.plane import (ProjectivePlane, _point_indices, canonical_plane, line_hits,
                          load_plane, save_plane)
from satset.saturation import _apply, _select, unsaturated


def greedy_step(state, variant="skew"):
    """Commit one greedy step; ties always break to the lowest index."""
    return _apply(state, _select(state, variant))


def unsaturated_set(state):
    return set(np.flatnonzero(state.in_unsat).tolist())


def determined_set(state):
    return set(np.flatnonzero(~state.in_unsat & ~state.in_chosen).tolist())


def check_partition(state):
    """S, D, R partition the points and R matches a full recount."""
    s, d, r = state.in_chosen, ~state.in_unsat & ~state.in_chosen, state.in_unsat
    if np.any(s & r) or int(s.sum() + d.sum() + r.sum()) != state.plane.n:
        return False
    return unsaturated_set(state) == unsaturated(state.plane, state.chosen)


def skew_lines(plane, points):
    """All lines containing no point of the given set, ascending."""
    idx = _point_indices(plane, points)
    return np.flatnonzero(line_hits(plane, idx) == 0).tolist()


def relabelled_plane(q, directory):
    """A seeded relabelling of PG(2,q), saved and loaded, and its relabelling.

    Returns (plane, relabel): canonical point p is `relabel[p]` in the
    loaded plane, whose lines come in a shuffled order, so `point_lines`
    is a separate table that differs from `line_points`.
    """
    pl = canonical_plane(q)
    rng = np.random.default_rng(q)
    relabel = rng.permutation(pl.n)
    rows = np.sort(relabel[pl.line_points], axis=1)[rng.permutation(pl.n)]
    path = directory / f"relabelled{q}.txt"
    save_plane(ProjectivePlane(q, rows, origin="relabelled"), path)
    loaded = load_plane(path)
    assert not np.array_equal(loaded.point_lines, loaded.line_points)
    return loaded, relabel
