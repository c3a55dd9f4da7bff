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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import mpmath
import numpy as np

from .formulas import _precise_ceil
from .plane import ProjectivePlane
from .saturation import _proven, unsaturated

FAMILY_HEADER = "FAMILY v1"


@dataclass(frozen=True)
class SetFamily:
    """A list of vertex subsets over a ground set [0, ground_size).

    `labels`, when present, records the originating unsaturated point of
    each edge of a saturation family.
    """
    ground_size: int
    edges: tuple[frozenset[int], ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        for k, edge in enumerate(self.edges):
            if not edge:
                raise ValueError(f"edge {k} is empty")
            if min(edge) < 0 or max(edge) >= self.ground_size:
                raise ValueError(f"edge {k} has a vertex outside "
                                 f"[0, {self.ground_size})")
        if self.labels is not None and len(self.labels) != len(self.edges):
            raise ValueError("labels must match edges one to one")

    def __len__(self):
        return len(self.edges)

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        """Read-only m x ground_size bool matrix; row k marks edge k."""
        matrix = np.zeros((len(self.edges), self.ground_size), dtype=bool)
        for k, edge in enumerate(self.edges):
            matrix[k, list(edge)] = True
        matrix.setflags(write=False)
        return matrix

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """`incidence` rows bit-packed by `np.packbits`, zero-padded to uint64 words."""
        packed = np.packbits(self.incidence, axis=1)
        packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
        packed.setflags(write=False)
        return packed


@dataclass
class TransversalResult:
    vertices: list[int]          # in pick order
    covered_counts: list[int]    # edges newly covered by each pick
    bound: int | None            # ceil(rm/(tm+r) ln m) when it applies
    r: int | None                # the family's (r, t), as the bound used them
    t: int | None


def _lines_through(plane: ProjectivePlane, x: int) -> np.ndarray:
    """Length-n table whose entry v is the line joining x and v (v != x)."""
    through = np.empty(plane.n, dtype=np.int32)
    lines = plane.point_lines[x]
    through[plane.line_points[lines]] = lines[:, None]
    return through


def saturation_family(plane: ProjectivePlane, seed_set: Iterable[int]) -> SetFamily:
    """One edge per unsaturated point: the points that would saturate it."""
    s0 = sorted(set(int(v) for v in seed_set))
    if len(s0) < 2:
        raise ValueError("the seed set needs at least 2 points")
    missing = sorted(unsaturated(plane, s0))   # also validates the indices
    # joins[k, i]: the line through s0[k] and missing[i]
    joins = np.stack([_lines_through(plane, s)[missing] for s in s0])
    members = np.zeros((len(missing), plane.n), dtype=bool)
    rows = np.arange(len(missing))[:, None, None]
    members[rows, plane.line_points[joins.T]] = True
    members[:, s0] = False
    edges = tuple(frozenset(np.flatnonzero(row).tolist()) for row in members)
    return SetFamily(ground_size=plane.n, edges=edges, labels=tuple(missing) or None)


def _row_intersections(family: SetFamily, i: int) -> np.ndarray:
    """|H_i ∩ H_j| for every j > i, from the bit-packed edge rows."""
    packed = family.packed
    return np.bitwise_count(packed[i] & packed[i + 1:]).sum(axis=1, dtype=np.int64)


def pairwise_intersection_sizes(family: SetFamily) -> list[int]:
    """|H_i ∩ H_j| for all i < j, in row-major pair order."""
    return [size for i in range(len(family.edges))
            for size in _row_intersections(family, i).tolist()]


def check_uniform_intersecting(family: SetFamily) -> tuple[int | None, int | None]:
    """(r, t): the uniform edge size and the minimum pairwise intersection.

    r is None unless every edge has the same size; t is None unless the
    family has at least two edges.  t is always computed, never trusted.
    """
    sizes = {len(e) for e in family.edges}
    r = sizes.pop() if len(sizes) == 1 else None
    t = min((int(_row_intersections(family, i).min())
             for i in range(len(family.edges) - 1)), default=None)
    return r, t


def intersection_lemma_holds(plane: ProjectivePlane, family: SetFamily,
                             seed_set: Iterable[int]) -> bool:
    """Whether every |H_i ∩ H_j| matches the lemma's two-case prediction.

    The prediction comes from the line joining the labels x_i and x_j:
    k(k-1) when it misses S0 (|S0| = k), (k-1)(k-2)+q when it meets S0.
    It is compared against intersections counted from the edges, so the
    two sides come from independent data.
    """
    s0 = sorted(set(int(v) for v in seed_set))
    k, q = len(s0), plane.q
    s0_hits = np.bincount(plane.point_lines[s0].ravel(), minlength=plane.n)
    predicted_size = np.where(s0_hits == 0, k * (k - 1), (k - 1) * (k - 2) + q)
    labels = np.asarray(family.labels)
    for i in range(len(labels) - 1):
        through = _lines_through(plane, int(labels[i]))
        predicted = predicted_size[through[labels[i + 1:]]]
        if not np.array_equal(predicted, _row_intersections(family, i)):
            return False
    return True


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
    value = r * m / (t * m + r) * math.log(m)
    return _precise_ceil(value, lambda: mpmath.mpf(r * m) / (t * m + r) * mpmath.log(m))


def greedy_transversal(family: SetFamily) -> TransversalResult:
    """Repeatedly pick the vertex covering the most uncovered edges.

    Ties break to the lowest vertex index; degrees are computed once and
    updated in place, each pick subtracting the edges it newly covers.
    The result is checked to hit every edge.  It carries the family's
    (r, t) from `check_uniform_intersecting` and, for a uniform family with
    m >= 2, the `transversal_bound` value for callers to compare against.
    """
    m = len(family.edges)
    r, t = check_uniform_intersecting(family)
    bound = transversal_bound(r, t, m) if (r is not None and m >= 2) else None
    incidence = family.incidence
    degree = incidence.sum(axis=0, dtype=np.int64)
    uncovered = np.ones(m, dtype=bool)
    picks: list[int] = []
    covered_counts: list[int] = []
    while uncovered.any():
        v = int(np.argmax(degree))
        newly = uncovered & incidence[:, v]
        picks.append(v)
        covered_counts.append(int(newly.sum()))
        degree -= incidence[newly].sum(axis=0, dtype=np.int64)
        uncovered &= ~newly
    assert all(any(v in e for v in picks) for e in family.edges)
    return TransversalResult(picks, covered_counts, bound, r, t)


def augmented_set(plane: ProjectivePlane, seed_set: Iterable[int],
                  result: TransversalResult) -> set[int]:
    """S0 plus a transversal of its saturation family, proven saturating.

    Raises `saturation.VerificationError` when the independent recount
    finds an unsaturated point.
    """
    return _proven(plane, set(int(v) for v in seed_set) | set(result.vertices))


# ---------------------------------------------------------------------------
# family file format
# ---------------------------------------------------------------------------

def save_family(family: SetFamily, destination) -> None:
    out = [f"{FAMILY_HEADER} n={family.ground_size} m={len(family.edges)}"]
    out.extend(" ".join(str(v) for v in sorted(e)) for e in family.edges)
    Path(destination).write_text("\n".join(out) + "\n")


def load_family(source) -> SetFamily:
    text = Path(source).read_text()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("family file is empty")
    head = lines[0].split(" ")
    if (len(head) != 4 or " ".join(head[:2]) != FAMILY_HEADER
            or not head[2].startswith("n=") or not head[3].startswith("m=")):
        raise ValueError(f"bad family header {lines[0]!r}")
    try:
        n, m = int(head[2][2:]), int(head[3][2:])
    except ValueError:
        raise ValueError(f"bad family header {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge rows, got {len(lines) - 1}")
    edges = []
    for k, row in enumerate(lines[1:]):
        try:
            vals = [int(tok) for tok in row.split(" ")]
        except ValueError:
            raise ValueError(f"edge {k}: non-integer token") from None
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError(f"edge {k}: vertices must be strictly ascending")
        edges.append(frozenset(vals))
    return SetFamily(ground_size=n, edges=tuple(edges))
