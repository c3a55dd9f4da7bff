import numpy as np
import pytest

from satset import baer
from satset.baer import baer_subplane, three_subline_construction
from satset.plane import canonical_plane, load_plane, save_plane, validate_axioms
from satset.saturation import is_saturating


def test_subplane_sizes():
    for q, s in ((4, 2), (9, 3), (16, 4)):
        emb = baer_subplane(canonical_plane(q))
        assert emb.order == s
        assert len(emb.subplane_points) == s * s + s + 1
        assert len(emb.subplane_lines) == s * s + s + 1
        assert all(len(line) == s + 1 for line in emb.subplane_lines)


def test_q4_subplane_is_a_fano_plane():
    emb = baer_subplane(canonical_plane(4))
    relabel = {p: k for k, p in enumerate(emb.subplane_points)}
    rows = [sorted(relabel[p] for p in line) for line in emb.subplane_lines]
    assert validate_axioms(rows, 2).ok


def test_q9_lines_meet_subplane_in_1_or_4():
    pl = canonical_plane(9)
    emb = baer_subplane(pl)
    members = set(emb.subplane_points)
    assert len(members) == 13
    sizes = sorted({len(members.intersection(pl.line_points[j].tolist()))
                    for j in range(pl.n)})
    assert sizes == [1, 4]
    secants = sum(1 for j in range(pl.n)
                  if len(members.intersection(pl.line_points[j].tolist())) == 4)
    assert secants == 13


def test_subplane_closed_under_joins():
    # the line through two subplane points is a subplane secant
    pl = canonical_plane(9)
    emb = baer_subplane(pl)
    pts = emb.subplane_points
    rng = np.random.default_rng(9)
    for _ in range(60):
        a, b = rng.choice(len(pts), size=2, replace=False)
        j = pl.line_through(pts[int(a)], pts[int(b)])
        assert j in emb.subplane_points


def test_rejects_non_square_and_loaded_planes(tmp_path):
    with pytest.raises(ValueError):
        baer_subplane(canonical_plane(5))
    pl = canonical_plane(4)
    save_plane(pl, tmp_path / "p.txt")
    with pytest.raises(ValueError):
        baer_subplane(load_plane(tmp_path / "p.txt"))


@pytest.mark.parametrize("count", [2, 4])
def test_a_non_baer_line_count_is_refused(monkeypatch, count):
    # one tangent of the q=9 subplane reported as meeting it in 2 points,
    # or in s+1 = 4 like a subplane line it is not
    original = baer.line_hits

    def corrupted(plane, points):
        meets = original(plane, points)
        meets[np.flatnonzero(meets == 1)[0]] = count
        return meets

    monkeypatch.setattr(baer, "line_hits", corrupted)
    with pytest.raises(AssertionError, match="not a Baer subplane"):
        baer_subplane(canonical_plane(9))


@pytest.mark.parametrize("q,s", [(4, 2), (9, 3), (16, 4), (25, 5)])
def test_three_subline_construction(q, s):
    pl = canonical_plane(q)
    emb = baer_subplane(pl)
    points = three_subline_construction(emb)
    assert len(points) == 3 * s
    assert is_saturating(pl, points)
    # the three sublines are pairwise non-concurrent: corners are distinct
    duals = emb.subplane_points
    sub = [set(emb.subline(d)) for d in
           (0, q * q, q * q + q)]
    assert not (sub[0] & sub[1] & sub[2])
    corners = {tuple(sorted(sub[0] & sub[1]))[0],
               tuple(sorted(sub[0] & sub[2]))[0],
               tuple(sorted(sub[1] & sub[2]))[0]}
    assert len(corners) == 3
    assert duals  # the subplane points are its lines' duals


def test_construction_deterministic():
    pl = canonical_plane(9)
    emb = baer_subplane(pl)
    assert three_subline_construction(emb) == three_subline_construction(emb)
    assert three_subline_construction(emb) == {0, 1, 2, 9, 18, 81, 82, 83, 90}


def test_construction_vs_theorem_bound_computed():
    # no hardcoded winner: where the arithmetic says 3*sqrt(q) undercuts
    # the general guarantee, the built set must actually do so
    import math
    from satset.formulas import theorem_bound
    for q in (9, 16, 25, 49):
        pl = canonical_plane(q)
        size = len(three_subline_construction(baer_subplane(pl)))
        bound = theorem_bound(q)
        if 3 * math.isqrt(q) < bound:
            assert size < bound
        assert size == 3 * math.isqrt(q)
