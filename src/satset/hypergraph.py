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
from .saturation import _unsaturated_mask

# Largest family `saturation_family` builds, in bytes of its bool incidence
# matrix, the float32 copy the Gram product reads (counted whole, though it
# is read in blocks of `_GRAM_BLOCK_BYTES`) and the m x m product.
FAMILY_BYTES_CAP = 1 << 31

# Largest float32 copy of incidence columns one Gram product reads, in bytes.
_GRAM_BLOCK_BYTES = 1 << 28


class SetFamily:
    """A list of vertex subsets over a ground set [0, ground_size).

    The family is its m x ground_size bool `incidence` matrix (row k marks
    edge k), kept as a read-only view of the caller's array, which is
    neither copied nor frozen.  `edges`, the same sets as frozensets, is
    derived on first use.  `labels`, when present, records the originating
    unsaturated point of each edge of a saturation family, whose builder
    also keeps the join rows of its seed set for the lemma check.
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
        self._seed_joins: tuple = (None, None, None)    # plane, S0, join_rows(plane, S0)

    def __len__(self):
        return len(self.incidence)

    @functools.cached_property
    def edges(self) -> tuple[frozenset[int], ...]:
        """The edges as frozensets, read off the incidence rows on first use."""
        return tuple(frozenset(np.flatnonzero(row).tolist()) for row in self.incidence)

    @functools.cached_property
    def intersections(self) -> np.ndarray:
        """Read-only m x m int32 matrix of |H_i ∩ H_j|, edge sizes on the diagonal.

        A sum of float32 products `a @ a.T`, which numpy hands to BLAS as
        symmetric rank-k updates, one per block of columns whose float32
        copy `a` fits in `_GRAM_BLOCK_BYTES`.  Every partial sum is a whole
        number no larger than an edge, so float32 holds it exactly up to 2^24.
        """
        m, n = self.incidence.shape
        if n > 1 << 24:
            raise ValueError(f"ground set of {n} exceeds 2^24")
        width = max(1, _GRAM_BLOCK_BYTES // (4 * max(m, 1)))
        gram = None
        for lo in range(0, max(n, 1), width):
            a = self.incidence[:, lo:lo + width].astype(np.float32)
            if gram is None:
                gram = a @ a.T
            else:
                gram += a @ a.T
            del a                               # before the next block
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
    missing = np.flatnonzero(_unsaturated_mask(plane, s0))
    m, n = len(missing), plane.n
    if (needed := 5 * m * n + 4 * m * m) > FAMILY_BYTES_CAP:
        raise ValueError(f"saturation family of {m} edges over {n} points needs {needed >> 20} "
                         f"MiB, above the {FAMILY_BYTES_CAP >> 20} MiB ceiling")
    members = np.zeros((m, n), dtype=bool)
    joins = join_rows(plane, s0)
    joins.setflags(write=False)
    points = plane.line_points[joins[:, missing].T]     # (m, |S0|, q+1)
    # flat indices below m·n < FAMILY_BYTES_CAP / 5, so int32 holds them
    points += np.arange(0, m * n, n, dtype=np.int32)[:, None, None]
    members.ravel()[points.ravel()] = True
    members[:, s0] = False
    family = SetFamily(members, tuple(missing.tolist()))
    family._seed_joins = (plane, s0, joins)
    return family


def pairwise_intersection_sizes(family: SetFamily) -> list[int]:
    """|H_i ∩ H_j| for all i < j, in row-major pair order."""
    return family.intersections[np.triu_indices(len(family), 1)].tolist()


def check_uniform_intersecting(family: SetFamily) -> tuple[int | None, int | None]:
    """(r, t): the uniform edge size and the minimum pairwise intersection.

    r is None unless every edge has the same size; t is None unless the
    family has at least two edges.  t is always computed, never trusted.
    """
    sizes = np.diagonal(family.intersections)           # |H_i ∩ H_i| = |H_i|
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
    the meeting pairs are those within one run of equal sorted keys
    s·n + <s, x_i>: each position is paired with every position of its
    run, itself included, which lands on the unchecked diagonal.  The
    prediction is compared against intersections counted from the edges,
    so the two sides come from independent data.  The join rows are the
    ones `saturation_family` kept when it built the family from this
    plane and S0, and are made afresh otherwise.
    """
    if family.labels is None:
        raise ValueError("the lemma check needs a labelled family (one label per edge)")
    s0 = sorted(set(_point_indices(plane, seed_set).tolist()))
    k, m, n = len(s0), len(family), plane.n
    built_on, built_from, joins = family._seed_joins
    if built_on is not plane or built_from != s0:
        joins = join_rows(plane, s0)
    keys = joins[:, _point_indices(plane, family.labels)]
    keys = keys + np.arange(0, k * n, n, dtype=np.intp)[:, None]
    order = np.argsort(keys, axis=None)
    ranked = keys.ravel()[order]
    label = order % m
    starts = np.flatnonzero(np.diff(ranked, prepend=-1))
    lengths = np.diff(starts, append=ranked.size)
    size = np.repeat(lengths, lengths)          # each position's run length
    shift = np.repeat(starts, lengths) - (np.cumsum(size) - size)
    pairs = np.repeat(label * m, size)
    pairs += label[np.repeat(shift, size) + np.arange(pairs.size)]
    miss, meet = k * (k - 1), (k - 1) * (k - 2) + plane.q
    expected = np.full((m, m), miss, dtype=np.min_scalar_type(max(miss, meet)))
    expected.ravel()[pairs] = meet
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


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of a 0/1 uint8 matrix as int32.

    Blocks of 255 rows are summed in uint8, which cannot overflow and
    needs no cast pass, and only the block sums are added in int32.
    """
    total = np.zeros(rows.shape[1], dtype=np.int32)
    for lo in range(0, len(rows), 255):
        total += np.add.reduce(rows[lo:lo + 255], axis=0, dtype=np.uint8)
    return total


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
    counts = incidence.view(np.uint8)
    degree = _column_sums(counts)
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
        degree -= _column_sums(counts[newly])
        uncovered &= ~newly
    assert incidence[:, picks].any(axis=1).all()
    return TransversalResult(picks, covered_counts)
