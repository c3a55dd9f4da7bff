"""Set families, greedy transversals, and the saturation hypergraph.

For a seed set S0 in a plane, each unsaturated point x gets an edge
holding every point whose addition would saturate x: the points of the
|S0| lines joining x to S0, minus S0 itself.  All edges have exactly
|S0|(q-1)+1 vertices, and any two intersect in |S0|(|S0|-1) points (when
the line through their two defining points misses S0) or in
(|S0|-1)(|S0|-2)+q points (when it meets S0 in one point).  A transversal
of the family, added to S0, therefore saturates the plane.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .formulas import _precise_ceil
from .plane import ProjectivePlane, _point_indices, join_rows
from .saturation import unsaturated

# Largest family `saturation_family` builds, in bytes of its bool incidence
# matrix, the float32 copy the Gram product reads and the m x m product.
FAMILY_BYTES_CAP = 1 << 31


class SetFamily:
    """A list of vertex subsets over a ground set [0, ground_size).

    The family is its m x ground_size bool `incidence` matrix (row k marks
    edge k), kept as a read-only view of the caller's array, which is
    neither copied nor frozen.  `edges`, the same sets as frozensets, is
    derived on first use.  `labels`, when present, records the originating
    unsaturated point of each edge of a saturation family.
    """

    def __init__(self, incidence: np.ndarray, labels: tuple[int, ...] | None = None):
        if not (isinstance(incidence, np.ndarray) and incidence.dtype == bool
                and incidence.ndim == 2):
            raise ValueError("a family's incidence must be a 2-D bool array")
        if labels is not None and len(labels) != len(incidence):
            raise ValueError("labels must match edges one to one")
        self.incidence = incidence.view()
        self.incidence.setflags(write=False)
        self.ground_size, self.labels = incidence.shape[1], labels

    def __len__(self):
        return len(self.incidence)

    @functools.cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        """The edges as frozensets, read off the incidence rows on first use."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.incidence)

    @functools.cached_property
    def intersections(self) -> np.ndarray:
        """Read-only m x m int32 matrix of |H_i ∩ H_j|, edge sizes on the diagonal.

        One float32 product `a @ a.T`, which numpy hands to BLAS as a
        symmetric rank-k update.  Every partial sum is a whole number no
        larger than an edge, so float32 holds it exactly up to 2^24.
        """
        if self.ground_size > 1 << 24:
            raise ValueError(f"ground set of {self.ground_size} exceeds 2^24")
        a = self.incidence.astype(np.float32)
        gram = a @ a.T
        del a                                   # before the int32 copy
        gram = gram.astype(np.int32)
        gram.setflags(write=False)
        return gram


@dataclass
class TransversalResult:
    vertices: list[int]          # in pick order
    covered_counts: list[int]    # edges newly covered by each pick


def saturation_family(plane: ProjectivePlane, seed_set: Iterable[int]) -> SetFamily:
    """One edge per unsaturated point: the points that would saturate it.

    Refuses, before any m x n allocation, a family above `FAMILY_BYTES_CAP`.
    """
    s0 = sorted(set(_point_indices(plane, seed_set).tolist()))
    if len(s0) < 2:
        raise ValueError("the seed set needs at least 2 points")
    missing = sorted(unsaturated(plane, s0))
    m, n = len(missing), plane.n
    if (needed := 5 * m * n + 4 * m * m) > FAMILY_BYTES_CAP:
        raise ValueError(f"saturation family of {m} edges over {n} points needs {needed >> 20} "
                         f"MiB, above the {FAMILY_BYTES_CAP >> 20} MiB ceiling")
    members = np.zeros((m, n), dtype=bool)
    points = plane.line_points[join_rows(plane, s0)[:, missing].T]     # (m, |S0|, q+1)
    starts = np.arange(0, m * n, n, dtype=np.intp)[:, None, None]
    members.ravel()[np.add(points, starts, dtype=np.intp).ravel()] = True
    members[:, s0] = False
    return SetFamily(members, tuple(missing))


def pairwise_intersection_sizes(family: SetFamily) -> list[int]:
    """|H_i ∩ H_j| for all i < j, in row-major pair order."""
    return family.intersections[np.triu_indices(len(family), 1)].tolist()


def check_uniform_intersecting(family: SetFamily) -> tuple[int | None, int | None]:
    """(r, t): the uniform edge size and the minimum pairwise intersection.

    r is None unless every edge has the same size; t is None unless the
    family has at least two edges.  t is always computed, never trusted.
    """
    sizes = np.add.reduce(family.incidence.view(np.uint8), axis=1, dtype=np.int32)
    r = int(sizes[0]) if sizes.size and (sizes == sizes[0]).all() else None
    # the whole matrix has the off-diagonal minimum: a diagonal entry
    # |H_i| bounds |H_i ∩ H_j| from above along its row
    t = int(family.intersections.min()) if len(family) >= 2 else None
    return r, t


def intersection_lemma_holds(plane: ProjectivePlane, family: SetFamily,
                             seed_set: Iterable[int]) -> bool:
    """Whether every |H_i ∩ H_j| matches the lemma's two-case prediction.

    The prediction comes from the line joining the labels x_i and x_j:
    k(k-1) when it misses S0 (|S0| = k), (k-1)(k-2)+q when it meets S0.
    That line meets s in S0 when the joins <s, x_i> and <s, x_j> agree, so
    the meeting pairs are the equal neighbours, 1, 2, ... places apart, of
    the sorted keys s·n + <s, x_i>.  The prediction is compared against
    intersections counted from the edges, so the two sides come from
    independent data.
    """
    if family.labels is None:
        raise ValueError("the lemma check needs a labelled family (one label per edge)")
    s0 = sorted(set(_point_indices(plane, seed_set).tolist()))
    k, m, n = len(s0), len(family), plane.n
    keys = join_rows(plane, s0)[:, list(family.labels)].astype(np.int64)
    keys += np.arange(0, k * n, n, dtype=np.int64)[:, None]
    order = np.argsort(keys, axis=None)
    ranked = np.append(keys.ravel()[order], -1)         # -1 ends the last run
    label = order % m
    row = label * m
    miss, meet = k * (k - 1), (k - 1) * (k - 2) + plane.q
    expected = np.full((m, m), miss, dtype=np.min_scalar_type(max(miss, meet)))
    flat = expected.ravel()
    step, first = 1, np.flatnonzero(ranked[1:] == ranked[:-1])
    while first.size:               # keys equal `step` places apart
        second = first + step
        flat[row[first] + label[second]] = meet
        flat[row[second] + label[first]] = meet
        step += 1
        first = first[ranked[second + 1] == ranked[first]]
    holds = family.intersections == expected
    np.fill_diagonal(holds, True)
    return bool(holds.all())


def transversal_bound(r: int, t: int, m: int) -> int:
    """ceil( r*m / (t*m + r) * ln m ) for an r-uniform t-intersecting family.

    Meaningless at m = 1 (it evaluates to 0 while one vertex is always
    needed), hence the m >= 2 requirement.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if m < 2:
        raise ValueError(f"the bound needs m >= 2, got {m}")
    if t > r:
        raise ValueError(f"t={t} cannot exceed r={r}")
    return _precise_ceil(lambda ns: r * m * ns.log(m) / (t * m + r))


def greedy_transversal(family: SetFamily) -> TransversalResult:
    """Repeatedly pick the vertex covering the most uncovered edges.

    Ties break to the lowest vertex index; degrees are computed once and
    updated in place, each pick subtracting the edges it newly covers.
    Only the incidence is read, so no Gram product is made; the family's
    (r, t) and `transversal_bound` are for callers to ask for.  The result
    is checked to hit every edge; an empty edge, which no pick can cover,
    raises ValueError naming the first one.
    """
    incidence = family.incidence
    counts = incidence.view(np.uint8)            # sums into int32 with no int64 cast pass
    degree = np.add.reduce(counts, axis=0, dtype=np.int32)
    uncovered = np.ones(len(family), dtype=bool)
    picks: list[int] = []
    covered_counts: list[int] = []
    while uncovered.any():
        if not degree.any():                    # every uncovered edge is empty
            raise ValueError(f"edge {int(np.argmax(uncovered))} is empty")
        v = int(np.argmax(degree))
        newly = uncovered & incidence[:, v]
        picks.append(v)
        covered_counts.append(int(newly.sum()))
        degree -= np.add.reduce(counts[newly], axis=0, dtype=np.int32)
        uncovered &= ~newly
    assert incidence[:, picks].any(axis=1).all()
    return TransversalResult(picks, covered_counts)
