"""Subfield subplanes of square-order canonical planes.

When q = s^2, the points of PG(2,q) whose normalised coordinates all lie
in the subfield GF(s) form a subplane of order s.  Every line of the big
plane meets it in either one point or s+1 points; the (s+1)-secants are
exactly the extensions of the subplane's own lines, and their subplane
restrictions are the sublines used by the triangle construction below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import subfield_elements
from .plane import ProjectivePlane, line_hits, triple_index
from .saturation import _proven


@dataclass(frozen=True)
class BaerEmbedding:
    """A canonical subfield subplane inside a canonical plane of order s^2."""
    plane: ProjectivePlane
    order: int                                  # s = sqrt(q)
    subplane_points: tuple[int, ...]            # ascending big-plane indices
    subplane_lines: tuple[tuple[int, ...], ...]  # subline k lies on line subplane_points[k]

    def subline(self, line_index: int) -> tuple[int, ...]:
        """Subplane restriction of a big-plane line that extends a subplane line."""
        pos = self.subplane_points.index(line_index)
        return self.subplane_lines[pos]


def baer_subplane(plane: ProjectivePlane) -> BaerEmbedding:
    """Construct and exhaustively verify the canonical subfield subplane."""
    if plane.field is None:
        raise ValueError("subfield subplanes need a canonical plane")
    field = plane.field
    if field.e % 2 != 0:
        raise ValueError(f"order {plane.q} is not a square")
    q = plane.q
    s = field.p ** (field.e // 2)
    sub = subfield_elements(field, s)

    points = sorted(triple_index(q, (1, a, b)) for a in sub for b in sub)
    points += sorted(q * q + a for a in sub)
    points.append(q * q + q)

    # Baer property: the duals of the subplane's points are exactly the
    # (s+1)-secants, and every remaining line is a 1-secant
    meets = line_hits(plane, np.array(points))
    secant = np.flatnonzero(meets == s + 1)
    if not (np.all((meets == 1) | (meets == s + 1))
            and np.array_equal(secant, points)):
        raise AssertionError("subfield point set is not a Baer subplane")

    sub_mask = np.zeros(plane.n, dtype=bool)
    sub_mask[points] = True
    # duals of subplane lines use the same encoding as its points
    lines = [tuple(row[sub_mask[row]].tolist()) for row in plane.line_points[points]]

    return BaerEmbedding(plane=plane, order=s, subplane_points=tuple(points),
                         subplane_lines=tuple(lines))


def three_subline_construction(embedding: BaerEmbedding) -> set[int]:
    """Union of the three coordinate-triangle sublines: 3*sqrt(q) points.

    The sublines supported by the duals (1,0,0), (0,1,0), (0,0,1) pairwise
    meet in the three corner points and have no common point, so any three
    would do; the fixed triangle keeps the output reproducible.  The result
    is proven saturating by an independent recount before it is returned.
    """
    q = embedding.plane.q
    duals = [triple_index(q, (1, 0, 0)),
             triple_index(q, (0, 1, 0)),
             triple_index(q, (0, 0, 1))]
    sublines = [set(embedding.subline(d)) for d in duals]
    assert not (sublines[0] & sublines[1] & sublines[2]), \
        "triangle sublines must not be concurrent"
    union = sublines[0] | sublines[1] | sublines[2]
    assert len(union) == 3 * embedding.order
    return _proven(embedding.plane, union)
