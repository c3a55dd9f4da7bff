"""Test-side helpers: one greedy step, set views of a state, the
undetermined count, skew lines, relabelled planes, set families from
vertex sets, the broadcast lemma check and the per-row, per-point plane
validator.

No command or construction needs these, so they live beside the tests,
where each serves as an independent view of the library's state.
"""

import numpy as np

from satset.hypergraph import SetFamily
from satset.plane import (ProjectivePlane, ValidationReport, _point_indices,
                          canonical_plane, join_rows, line_hits, load_plane,
                          save_plane)
from satset.saturation import _apply, _covered_mask, _select, unsaturated


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


def undetermined_count(plane, points):
    """Points on no 2-secant of the set, the set's own members included.

    This is the count whose expectation `formulas.expected_unsaturated`
    gives; it differs from len(unsaturated(...)) only for fewer than two
    points, where a singleton's lone member is itself undetermined.
    """
    mask = np.zeros(plane.n, dtype=bool)
    mask[_point_indices(plane, points)] = True
    return int(plane.n - _covered_mask(plane, mask).sum())


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


def edge_family(ground_size, edges, labels=None):
    """A `SetFamily` over [0, ground_size) whose edge k is the k-th vertex set."""
    edges = [sorted(set(e)) for e in edges]
    incidence = np.zeros((len(edges), ground_size), dtype=bool)
    for k, edge in enumerate(edges):
        incidence[k, edge] = True
    return SetFamily(incidence, labels)


def reference_lemma_holds(plane, family, seed_set):
    """`intersection_lemma_holds` from one m x m compare per seed point.

    Labels x_i and x_j meet S0 on their line when some s in S0 has the
    same join to both; the Gram matrix must hold (k-1)(k-2)+q there and
    k(k-1) elsewhere off the diagonal.
    """
    s0 = sorted(set(int(v) for v in seed_set))
    k, q = len(s0), plane.q
    meets = np.zeros((len(family), len(family)), dtype=bool)
    for line in join_rows(plane, s0)[:, list(family.labels)]:   # x_i, x_j, s collinear
        meets |= line[:, None] == line
    gram = family.intersections
    holds = np.where(meets, gram == (k - 1) * (k - 2) + q, gram == k * (k - 1))
    np.fill_diagonal(holds, True)
    return bool(holds.all())


def reference_invert(line_points, n, q):
    """The lines through each point, from a stable argsort of the entries."""
    flat = line_points.ravel()
    line_idx = np.repeat(np.arange(n, dtype=np.int32), q + 1)
    order = np.argsort(flat, kind="stable")
    grouped = flat[order].reshape(n, q + 1)
    if not np.array_equal(grouped[:, 0], np.arange(n)) or np.any(grouped[:, 0:1] != grouped):
        raise ValueError("some point is not on exactly q+1 lines")
    return np.ascontiguousarray(line_idx[order].reshape(n, q + 1))


def _whole(v):
    if type(v) is int:
        return True
    if isinstance(v, (bool, np.bool_)):
        return False
    try:
        return v == int(v)
    except (TypeError, ValueError, OverflowError):
        return False


def reference_validate_axioms(rows, q):
    """`validate_axioms` row by row over lists, then point by point.

    Each point p counts how often every point occurs on its q+1 lines;
    p passes when every other point occurs exactly once.
    """
    n = q * q + q + 1
    failures = []
    if len(rows) != n:
        failures.append(f"line count: expected {n} lines, got {len(rows)}")
        return ValidationReport(False, failures)
    for j, row in enumerate(rows):
        if not hasattr(row, "__len__"):
            failures.append(f"line size: line {j} is not a sequence of points, "
                            f"expected {q + 1}")
            return ValidationReport(False, failures)
        if len(row) != q + 1:
            failures.append(f"line size: line {j} has {len(row)} points, expected {q + 1}")
            return ValidationReport(False, failures)
        if not all(map(_whole, row)):
            failures.append(f"point index: line {j} has a non-integer entry")
            return ValidationReport(False, failures)
        if any(not 0 <= v < n for v in row):
            failures.append(f"point index: line {j} has an index outside [0, {n})")
            return ValidationReport(False, failures)
        if any(row[i] >= row[i + 1] for i in range(q)):
            failures.append(f"ascending: line {j} is not strictly ascending")
            return ValidationReport(False, failures)
    arr = np.asarray(rows, dtype=np.int32)
    degrees = np.bincount(arr.ravel(), minlength=n)
    if np.any(degrees != q + 1):
        bad = int(np.flatnonzero(degrees != q + 1)[0])
        failures.append(f"point degree: point {bad} lies on {int(degrees[bad])} lines, "
                        f"expected {q + 1}")
        return ValidationReport(False, failures)
    point_lines = reference_invert(arr, n, q)
    for p in range(n):
        counts = np.bincount(arr[point_lines[p]].ravel(), minlength=n)
        counts[p] = 1
        if np.any(counts != 1):
            other = int(np.flatnonzero(counts != 1)[0])
            word = "no common line" if counts[other] == 0 else "more than one common line"
            failures.append(f"unique meet: points {p} and {other} have {word}")
            return ValidationReport(False, failures)
    return ValidationReport(True, failures)
