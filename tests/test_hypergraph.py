import functools
import math

import mpmath
import numpy as np
import pytest

from oracles import edge_family, reference_lemma_holds, relabelled_plane
from satset import hypergraph
from satset.cli import main
from satset.hypergraph import (SetFamily, check_uniform_intersecting,
                               greedy_transversal, intersection_lemma_holds,
                               pairwise_intersection_sizes, saturation_family,
                               transversal_bound)
from satset.plane import canonical_plane
from satset.saturation import is_saturating, unsaturated


def sunflower(core: int, petal: int, m: int) -> SetFamily:
    """m edges sharing a common core of `core` vertices, disjoint petals."""
    edges = []
    ground = core + m * petal
    for k in range(m):
        base = core + k * petal
        edges.append(frozenset(range(core)) | frozenset(range(base, base + petal)))
    return edge_family(ground, edges)


def test_fano_family_example():
    pl = canonical_plane(2)
    fam = saturation_family(pl, {0, 4, 6})
    assert len(fam) == 1
    assert fam.edges[0] == frozenset({1, 2, 3, 5})
    assert fam.labels == (3,)
    assert len(fam.edges[0]) == 3 * (2 - 1) + 1


def test_family_rejects_small_seed():
    pl = canonical_plane(2)
    with pytest.raises(ValueError):
        saturation_family(pl, {0})


def test_saturating_seed_gives_empty_family():
    pl = canonical_plane(2)
    fam = saturation_family(pl, {0, 4, 5, 6})
    assert len(fam) == 0
    assert fam.labels == ()
    assert intersection_lemma_holds(pl, fam, {0, 4, 5, 6})


def test_edge_sizes_formula():
    rng = np.random.default_rng(77)
    for q in (5, 7, 9):
        pl = canonical_plane(q)
        for size in (2, 3, 4):
            seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            fam = saturation_family(pl, seed_set)
            assert all(len(e) == size * (q - 1) + 1 for e in fam.edges)
            assert fam.labels == tuple(sorted(unsaturated(pl, seed_set)))


def test_check_uniform_intersecting():
    fam = sunflower(core=2, petal=8, m=20)
    r, t = check_uniform_intersecting(fam)
    assert (r, t) == (10, 2)
    single = edge_family(5, ({1, 2},))
    assert check_uniform_intersecting(single) == (2, None)
    twins = edge_family(5, ({1, 2, 3}, {1, 2, 3}))
    assert check_uniform_intersecting(twins) == (3, 3)
    ragged = edge_family(5, ({0}, {1, 2}))
    r, t = check_uniform_intersecting(ragged)
    assert r is None and t == 0


def test_intersection_lemma_two_cases():
    # every pairwise intersection matches the case split by |<x_i,x_j> ∩ S0|
    rng = np.random.default_rng(5)
    checked_pairs = 0
    for q in (7, 9):
        pl = canonical_plane(q)
        for size in (3, 4, 5):
            seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            fam = saturation_family(pl, seed_set)
            if len(fam) < 2:
                continue
            labels = fam.labels
            pair = 0
            for i in range(len(fam)):
                for j in range(i + 1, len(fam)):
                    line = set(pl.line_points[pl.line_through(labels[i], labels[j])].tolist())
                    hits = len(line & seed_set)
                    assert hits in (0, 1)
                    expected = (size * (size - 1) if hits == 0
                                else (size - 1) * (size - 2) + q)
                    assert len(fam.edges[i] & fam.edges[j]) == expected
                    pair += 1
            checked_pairs += pair
    assert checked_pairs > 100


def test_q7_s5_spec_values():
    # with |S0| = 5 on q = 7 the two case values are 20 and 19
    rng = np.random.default_rng(23)
    pl = canonical_plane(7)
    sizes = set()
    while len(sizes) < 2:
        seed_set = set(int(v) for v in rng.choice(pl.n, size=5, replace=False))
        fam = saturation_family(pl, seed_set)
        if len(fam) >= 2:
            sizes.update(pairwise_intersection_sizes(fam))
            assert sizes <= {20, 19}
    assert sizes == {20, 19}


def test_transversal_bound_values():
    assert transversal_bound(10, 2, 20) == 12
    assert transversal_bound(3, 0, 8) == 17
    for r, t in ((1, 0), (5, 3), (9, 9)):
        assert transversal_bound(r, t, 2) >= 1
    with pytest.raises(ValueError):
        transversal_bound(10, 2, 1)
    with pytest.raises(ValueError):
        transversal_bound(0, 0, 5)
    with pytest.raises(ValueError):
        transversal_bound(3, -1, 5)
    with pytest.raises(ValueError):
        transversal_bound(3, 4, 5)


def test_transversal_bound_against_high_precision_oracle():
    for r in range(1, 25):
        for t in range(r + 1):
            for m in range(2, 25):
                with mpmath.workdps(60):
                    expect = int(mpmath.ceil(mpmath.mpf(r * m) / (t * m + r) * mpmath.log(m)))
                assert transversal_bound(r, t, m) == expect, (r, t, m)


def test_greedy_transversal_single_edge():
    fam = edge_family(9, ({4, 2, 7},))
    res = greedy_transversal(fam)
    assert res.vertices == [2]          # lowest index of the only edge
    assert res.covered_counts == [1]


def test_greedy_transversal_sunflower():
    fam = sunflower(core=2, petal=8, m=20)
    res = greedy_transversal(fam)
    bound = transversal_bound(*check_uniform_intersecting(fam), len(fam))
    assert bound == 12
    assert len(res.vertices) <= bound
    assert res.vertices == [0]          # a core vertex covers everything
    assert res.covered_counts[0] >= 1 + math.ceil(2 * 20 / 10)


def test_greedy_transversal_covers_disjoint_edges():
    edges = tuple(frozenset({2 * k, 2 * k + 1}) for k in range(6))
    res = greedy_transversal(edge_family(12, edges))
    assert len(res.vertices) == 6
    for e in edges:
        assert any(v in e for v in res.vertices)


def test_degrees_and_sizes_above_255():
    # vertex 0 is in all 300 edges and every edge has 300 vertices; a uint8
    # sum would read 44 for both and pick a window vertex of degree 255
    edges = [{0} | set(range(1 + k, 300 + k)) for k in range(300)]
    fam = edge_family(600, edges)
    res = greedy_transversal(fam)
    assert res.vertices == [0] and res.covered_counts == [300]
    assert check_uniform_intersecting(fam) == (300, 1)


def test_empty_edge_rejected():
    # the transversal refuses it: no pick can cover an empty edge
    for ground, edges, name in ((0, ((), ()), "edge 0"), (4, ((),), "edge 0"),
                                (4, ({1, 2}, (), {3}), "edge 1")):
        with pytest.raises(ValueError, match=f"^{name} is empty$"):
            greedy_transversal(edge_family(ground, edges))


def test_transversal_saturates_the_seed():
    rng = np.random.default_rng(19)
    for q in (7, 9):
        pl = canonical_plane(q)
        for size in (3, 4):
            seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            fam = saturation_family(pl, seed_set)
            res = greedy_transversal(fam)
            r, t = check_uniform_intersecting(fam)
            if len(fam) >= 2:
                assert len(res.vertices) <= transversal_bound(r, t, len(fam))
            assert is_saturating(pl, seed_set | set(res.vertices))


# ---------------------------------------------------------------------------
# the packed kernels against frozenset and recompute-every-round references
# ---------------------------------------------------------------------------

def oracle_intersections(family: SetFamily) -> list[int]:
    edges = family.edges
    return [len(edges[i] & edges[j])
            for i in range(len(edges)) for j in range(i + 1, len(edges))]


def reference_transversal(family: SetFamily) -> tuple[list[int], list[int]]:
    """Greedy cover with every degree recounted from the frozensets each round."""
    uncovered = set(range(len(family.edges)))
    picks, counts = [], []
    while uncovered:
        degree = [0] * family.ground_size
        for k in uncovered:
            for v in family.edges[k]:
                degree[v] += 1
        v = degree.index(max(degree))
        newly = {k for k in uncovered if v in family.edges[k]}
        picks.append(v)
        counts.append(len(newly))
        uncovered -= newly
    return picks, counts


def kernel_families() -> list[SetFamily]:
    families = [
        edge_family(5, ()),
        edge_family(9, ({4, 2, 7},)),
        sunflower(core=2, petal=8, m=20),
        edge_family(5, ({1, 2, 3}, {1, 2, 3})),
        edge_family(5, ({0}, {1, 2})),
        edge_family(70, (range(0, 70, 3), range(1, 70, 2), {0, 8, 63, 64, 69},
                         range(60, 70))),
    ]
    rng = np.random.default_rng(41)
    for q in (7, 9, 11):
        pl = canonical_plane(q)
        for size in (2, 3, 4, 5):
            seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
            families.append(saturation_family(pl, seed_set))
    return families


def test_intersections_match_frozenset_oracle():
    for fam in kernel_families():
        expected = oracle_intersections(fam)
        assert pairwise_intersection_sizes(fam) == expected
        sizes = {len(e) for e in fam.edges}
        r = sizes.pop() if len(sizes) == 1 else None
        t = min(expected) if expected else None
        assert check_uniform_intersecting(fam) == (r, t)


def test_greedy_transversal_matches_recount_reference(monkeypatch, tmp_path):
    def no_gram(family):
        raise AssertionError("the transversal made a Gram product")

    relabelled, relabel = relabelled_plane(16, tmp_path)
    moved_seed = [int(relabel[v]) for v in (0, 5, 77)]
    families = kernel_families() + [saturation_family(relabelled, moved_seed)]
    monkeypatch.setattr(SetFamily, "intersections", property(no_gram))
    for fam in families:
        res = greedy_transversal(fam)
        assert (res.vertices, res.covered_counts) == reference_transversal(fam)


def test_intersection_lemma_holds_and_detects_a_perturbed_edge():
    pl = canonical_plane(9)
    seed_set = {0, 13, 47, 88}
    fam = saturation_family(pl, seed_set)
    assert len(fam) >= 2
    assert intersection_lemma_holds(pl, fam, seed_set)
    # swap one vertex of the last edge for an outside one: sizes stay uniform
    edge = fam.edges[-1]
    outside = min(set(range(pl.n)) - edge - seed_set)
    swapped = (edge - {min(edge)}) | {outside}
    perturbed = edge_family(fam.ground_size, fam.edges[:-1] + (swapped,), fam.labels)
    assert check_uniform_intersecting(perturbed)[0] == len(edge)
    assert not intersection_lemma_holds(pl, perturbed, seed_set)


def lemma_cases():
    """(plane, family, seed set) over q <= 16 and |S0| 2-6, two seeds each."""
    rng = np.random.default_rng(29)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        pl = canonical_plane(q)
        for size in range(2, 7):
            for _ in range(2):
                seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
                yield pl, saturation_family(pl, seed_set), seed_set


def test_lemma_check_matches_the_broadcast_reference():
    checked = 0
    for pl, fam, seed_set in lemma_cases():
        assert intersection_lemma_holds(pl, fam, seed_set)
        assert reference_lemma_holds(pl, fam, seed_set)
        checked += len(fam) >= 2
    assert checked > 80


@pytest.mark.parametrize("q,size", [(4, 3), (8, 5)])
def test_lemma_check_where_the_two_cases_coincide(q, size):
    # k(k-1) = (k-1)(k-2)+q when q = 2(k-1): every pair predicts one value
    pl = canonical_plane(q)
    rng = np.random.default_rng(q)
    for _ in range(6):
        seed_set = set(int(v) for v in rng.choice(pl.n, size=size, replace=False))
        fam = saturation_family(pl, seed_set)
        assert intersection_lemma_holds(pl, fam, seed_set)
        assert reference_lemma_holds(pl, fam, seed_set)
        off_diagonal = fam.intersections[~np.eye(len(fam), dtype=bool)]
        assert set(off_diagonal.tolist()) <= {size * (size - 1)}


@pytest.mark.parametrize("q", [4, 9, 16])
def test_lemma_check_on_a_relabelled_plane(tmp_path, q):
    relabelled, _ = relabelled_plane(q, tmp_path)
    rng = np.random.default_rng(q + 11)
    for size in (2, 3, 4, 5):
        seed_set = set(int(v) for v in rng.choice(relabelled.n, size=size, replace=False))
        fam = saturation_family(relabelled, seed_set)
        assert intersection_lemma_holds(relabelled, fam, seed_set)
        assert reference_lemma_holds(relabelled, fam, seed_set)


def test_lemma_check_with_zero_and_one_edges():
    pl = canonical_plane(2)
    for seed_set, m in (({0, 4, 5, 6}, 0), ({0, 4, 6}, 1)):
        fam = saturation_family(pl, seed_set)
        assert len(fam) == m
        assert intersection_lemma_holds(pl, fam, seed_set)
        assert reference_lemma_holds(pl, fam, seed_set)
    one = edge_family(pl.n, ({1, 2},), (3,))
    assert intersection_lemma_holds(pl, one, {0, 4})
    assert reference_lemma_holds(pl, one, {0, 4})


def test_lemma_check_on_labels_that_are_not_unsaturated():
    # saturated and repeated labels: x_i, x_j and s may share a line for
    # several s, and a Gram built to the prediction passes only unchanged
    pl = canonical_plane(5)
    rng = np.random.default_rng(3)
    seed_set = {0, 7, 19}
    k = len(seed_set)
    pencils = [set(row) for row in pl.point_lines.tolist()]
    others = sorted(set(range(pl.n)) - seed_set)
    saturated = set(others) - unsaturated(pl, seed_set)
    saturated_labels = 0
    for trial in range(40):
        m = int(rng.integers(2, 9))
        labels = tuple(int(v) for v in rng.choice(others, size=m))
        saturated_labels += len(saturated.intersection(labels))
        gram = np.array([[(k - 1) * (k - 2) + pl.q
                          if any(pencils[x] & pencils[y] & pencils[s] for s in seed_set)
                          else k * (k - 1) for y in labels] for x in labels], dtype=np.int32)
        if trial % 2:
            i, j = rng.choice(m, size=2, replace=False)
            gram[i, j] = gram[j, i] = gram[i, j] + 1
        fam = SetFamily(np.zeros((m, pl.n), dtype=bool), labels)
        fam.intersections = gram
        assert intersection_lemma_holds(pl, fam, seed_set) == (trial % 2 == 0)
        assert reference_lemma_holds(pl, fam, seed_set) == (trial % 2 == 0)
    assert saturated_labels > 0


def test_lemma_check_fails_on_one_changed_gram_entry():
    pl = canonical_plane(7)
    seed_set = {0, 9, 30, 41}
    fam = saturation_family(pl, seed_set)
    assert intersection_lemma_holds(pl, fam, seed_set)
    gram = fam.intersections
    k, q = len(seed_set), pl.q
    meet, miss = (k - 1) * (k - 2) + q, k * (k - 1)
    off = np.triu(np.ones_like(gram, dtype=bool), 1)
    for value in (meet, miss):
        i, j = (int(v[0]) for v in np.nonzero(off & (gram == value)))
        for changed in (value + 1, value - 1, meet + miss - value):
            perturbed = SetFamily(fam.incidence, fam.labels)
            perturbed.intersections = gram.copy()
            perturbed.intersections[i, j] = perturbed.intersections[j, i] = changed
            assert not intersection_lemma_holds(pl, perturbed, seed_set)
            assert not reference_lemma_holds(pl, perturbed, seed_set)
    # the diagonal, |H_i|, is no part of the prediction
    perturbed = SetFamily(fam.incidence, fam.labels)
    perturbed.intersections = gram.copy()
    perturbed.intersections[0, 0] += 1
    assert intersection_lemma_holds(pl, perturbed, seed_set)


@pytest.mark.parametrize("q", [4, 16])
def test_family_on_a_relabelled_plane_matches_the_canonical_one(tmp_path, q):
    # a loaded plane's `point_lines` is not its `line_points`, so a family
    # built from one table in place of the other differs after relabelling
    relabelled, relabel = relabelled_plane(q, tmp_path)
    pl = canonical_plane(q)
    rng = np.random.default_rng(q + 7)
    for size in (2, 3):
        for _ in range(4):
            seed_set = [int(v) for v in rng.choice(pl.n, size=size, replace=False)]
            moved_seed = [int(relabel[v]) for v in seed_set]
            fam = saturation_family(pl, seed_set)
            moved = saturation_family(relabelled, moved_seed)
            assert len(fam) >= 2
            expected = {int(relabel[x]): frozenset(int(relabel[v]) for v in edge)
                        for x, edge in zip(fam.labels, fam.edges)}
            assert moved.labels == tuple(sorted(expected))
            assert dict(zip(moved.labels, moved.edges)) == expected
            assert check_uniform_intersecting(moved) == check_uniform_intersecting(fam)
            assert intersection_lemma_holds(relabelled, moved, moved_seed)


# ---------------------------------------------------------------------------
# the array-backed family and its Gram matrix
# ---------------------------------------------------------------------------

def test_incidence_built_family_equals_edge_built_family():
    for fam in kernel_families():
        from_rows = SetFamily(fam.incidence.copy(), fam.labels)
        from_edges = edge_family(fam.ground_size, fam.edges, fam.labels)
        for built in (from_rows, from_edges):
            assert built.ground_size == fam.ground_size
            assert built.labels == fam.labels
            assert built.edges == fam.edges
            assert np.array_equal(built.incidence, fam.incidence)
            assert np.array_equal(built.intersections, fam.intersections)
            assert len(built) == len(fam)
    pl = canonical_plane(9)
    fam = saturation_family(pl, {0, 13, 47, 88})
    rebuilt = edge_family(pl.n, fam.edges, fam.labels)
    assert np.array_equal(rebuilt.incidence, fam.incidence)
    assert np.array_equal(rebuilt.intersections, fam.intersections)


def test_intersection_matrix_matches_frozenset_oracle():
    for fam in kernel_families():
        gram = fam.intersections
        m = len(fam)
        assert gram.shape == (m, m) and gram.dtype == np.int32
        assert not gram.flags.writeable
        assert not fam.incidence.flags.writeable
        assert gram.tolist() == [[len(a & b) for b in fam.edges] for a in fam.edges]


def test_constructor_keeps_a_read_only_view_of_the_callers_array():
    rows = np.zeros((3, 6), dtype=bool)
    rows[[0, 1, 2], [1, 2, 4]] = True
    fam = SetFamily(rows, (7, 8, 9))
    assert rows.flags.writeable and not fam.incidence.flags.writeable
    assert np.shares_memory(fam.incidence, rows)
    assert fam.ground_size == 6 and fam.labels == (7, 8, 9)
    rows[0, 5] = True                   # the family sees the caller's array
    assert fam.edges[0] == frozenset({1, 5})
    for bad in (rows[0], rows[None], rows.astype(np.uint8), rows.tolist()):
        with pytest.raises(ValueError, match="2-D bool array"):
            SetFamily(bad)
    with pytest.raises(ValueError, match="one to one"):
        SetFamily(rows, (7, 8))


def test_lemma_check_needs_labels():
    pl = canonical_plane(3)
    fam = edge_family(pl.n, ({1, 2, 3}, {3, 4, 5}))
    with pytest.raises(ValueError, match="labelled family"):
        intersection_lemma_holds(pl, fam, {0, 6})


def test_one_gram_product_and_no_edges_per_cli_op(capsys, monkeypatch):
    families, products = [], []
    build = hypergraph.saturation_family
    gram = SetFamily.intersections.func

    def recording(plane, seed_set):
        families.append(build(plane, seed_set))
        return families[-1]

    def counting(family):
        products.append(family)
        return gram(family)

    counted = functools.cached_property(counting)
    counted.__set_name__(SetFamily, "intersections")
    monkeypatch.setattr(hypergraph, "saturation_family", recording)
    monkeypatch.setattr(SetFamily, "intersections", counted)
    assert main(["hypergraph", "--q", "9", "--s0-size", "4", "--seed", "3"]) == 0
    assert "lemma_check=PASS" in capsys.readouterr().out
    family, = families
    assert products == [family]
    assert "edges" not in family.__dict__


def test_family_ceiling_refuses_before_building(capsys, monkeypatch):
    pl = canonical_plane(9)
    seed_set = {0, 13, 47, 88}
    m = len(unsaturated(pl, seed_set))
    needed = 5 * m * pl.n + 4 * m * m
    monkeypatch.setattr(hypergraph, "FAMILY_BYTES_CAP", needed)
    assert len(saturation_family(pl, seed_set)) == m          # at the ceiling
    monkeypatch.setattr(hypergraph, "FAMILY_BYTES_CAP", needed - 1)

    def unreachable(*args):
        raise AssertionError("the family was built")

    monkeypatch.setattr(hypergraph, "join_rows", unreachable)
    with pytest.raises(ValueError, match="ceiling"):
        saturation_family(pl, seed_set)
    monkeypatch.setattr(hypergraph, "FAMILY_BYTES_CAP", 1000)
    with pytest.raises(SystemExit) as info:
        main(["hypergraph", "--q", "9", "--s0-size", "4", "--seed", "3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.splitlines()[-1]
    assert "ceiling" in message and "Traceback" not in captured.err



@pytest.mark.parametrize("bad,message", [
    ({2.7, 5}, "point index 2.7 is not an integer"),
    ({"4", 7}, "point index '4' is not an integer"),
    ({True, 5}, "point index True is not an integer"),
    ({3, 13}, "point index 13 outside [0, 13)"),
])
def test_seed_sets_take_the_point_index_rule(bad, message):
    # int(v) read these as the points {2, 5}, {4, 7} and {1, 5}
    pl = canonical_plane(3)
    family = saturation_family(pl, {2, 5})
    for call in (lambda: saturation_family(pl, bad),
                 lambda: intersection_lemma_holds(pl, family, bad)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
    assert intersection_lemma_holds(pl, family, np.array([5, 2], dtype=np.uint8))
