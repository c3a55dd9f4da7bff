import copy
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (reference_invert, reference_validate_axioms, relabelled_plane,
                     skew_lines)
from satset import plane
from satset.cli import main
from satset.gf import factor_prime_power, field_for_order
from satset.plane import (PlaneAxiomError, ProjectivePlane, ValidationReport,
                          _row_counts, build_pg2, join_rows,
                          canonical_plane, load_plane, load_point_set,
                          point_triple, save_plane, save_point_set,
                          triple_index, validate_axioms)

# the Fano plane under the canonical indexing, derived by hand from the
# dual-triple encoding (line j's dual is the triple of point j)
FANO_LINES = [
    [4, 5, 6],   # dual (1,0,0)
    [1, 3, 4],   # dual (1,0,1)
    [2, 3, 6],   # dual (1,1,0)
    [1, 2, 5],   # dual (1,1,1)
    [0, 1, 6],   # dual (0,1,0)
    [0, 3, 5],   # dual (0,1,1)
    [0, 2, 4],   # dual (0,0,1)
]


def test_fano_incidence_frozen():
    pl = canonical_plane(2)
    assert [pl.line_points[j].tolist() for j in range(7)] == FANO_LINES


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, "relabelled 4", "relabelled 16"])
def test_join_rows_match_line_through(tmp_path, q):
    # every entry is a line index of the plane, which is what lets
    # benefit_vector gather with mode="clip" without changing a value
    if isinstance(q, str):
        pl, _ = relabelled_plane(int(q.split()[1]), tmp_path)
    else:
        pl = canonical_plane(q)
    joins = join_rows(pl, list(range(pl.n)))
    assert joins.dtype == np.int32 and joins.shape == (pl.n, pl.n)
    for s in range(pl.n):
        for x in range(pl.n):
            if x != s:
                assert joins[s, x] == pl.line_through(s, x)
        assert s in pl.line_points[joins[s, s]]


def test_triple_round_trip():
    for q in (2, 3, 4, 9):
        n = q * q + q + 1
        seen = set()
        for idx in range(n):
            t = point_triple(q, idx)
            assert triple_index(q, t) == idx
            seen.add(t)
        assert len(seen) == n


def test_counts_and_duality():
    for q in (2, 3, 4, 5, 9):
        pl = canonical_plane(q)
        assert pl.n == q * q + q + 1
        assert pl.line_points.shape == (pl.n, q + 1)
        assert pl.point_lines.shape == (pl.n, q + 1)
        # cross-index consistency
        for p in range(0, pl.n, max(1, pl.n // 20)):
            for j in pl.point_lines[p]:
                assert p in pl.line_points[j]


def test_pairs_on_unique_line_exhaustive_small():
    for q in (2, 3, 4, 5, 7):
        pl = canonical_plane(q)
        for p in range(pl.n):
            counts = np.bincount(
                pl.line_points[pl.point_lines[p]].ravel(), minlength=pl.n)
            assert counts[p] == q + 1
            counts[p] = 1
            assert np.all(counts == 1)


def test_line_through_and_meet_fano():
    pl = canonical_plane(2)
    assert pl.line_points[pl.line_through(0, 4)].tolist() == [0, 2, 4]
    assert pl.line_points[pl.line_through(3, 0)].tolist() == [0, 3, 5]
    assert pl.meet(6, 4) == 0
    with pytest.raises(ValueError, match="^line_through needs two distinct points$"):
        pl.line_through(3, 3)
    with pytest.raises(ValueError, match="^meet needs two distinct lines$"):
        pl.meet(1, 1)


def test_line_through_symmetry_and_meet_duality():
    pl = canonical_plane(5)
    rng = np.random.default_rng(5)
    for _ in range(200):
        p, r = rng.choice(pl.n, size=2, replace=False)
        j = pl.line_through(int(p), int(r))
        assert j == pl.line_through(int(r), int(p))
        row = pl.line_points[j]
        assert int(p) in row and int(r) in row
    for _ in range(200):
        l1, l2 = rng.choice(pl.n, size=2, replace=False)
        m = pl.meet(int(l1), int(l2))
        assert m == pl.meet(int(l2), int(l1))
        assert m in pl.line_points[l1]
        assert m in pl.line_points[l2]


def test_line_through_and_meet_on_a_relabelled_plane(tmp_path):
    # point_lines differs from line_points here, so a lookup in the wrong table shows
    pl, _ = relabelled_plane(4, tmp_path)
    for a in range(pl.n):
        for b in range(a + 1, pl.n):
            assert {a, b} <= set(pl.line_points[pl.line_through(a, b)].tolist())
            common = set(pl.line_points[a].tolist()) & set(pl.line_points[b].tolist())
            assert pl.meet(a, b) in common


def test_meet_of_pencil_lines_is_the_point():
    pl = canonical_plane(3)
    for p in range(pl.n):
        lines = pl.point_lines[p]
        assert pl.meet(lines[0], lines[1]) == p


def test_skew_lines():
    pl = canonical_plane(2)
    assert skew_lines(pl, set()) == list(range(7))
    assert skew_lines(pl, {0, 4, 6}) == [3]
    # oracle: direct scan
    for q in (3, 4, 5):
        plq = canonical_plane(q)
        rng = np.random.default_rng(q)
        pts = set(int(v) for v in rng.choice(plq.n, size=q, replace=False))
        expect = [j for j in range(plq.n)
                  if not pts.intersection(plq.line_points[j].tolist())]
        assert skew_lines(plq, pts) == expect
        # each of the i points kills at most q+1 lines
        assert len(expect) >= plq.n - len(pts) * (q + 1)


def test_skew_count_lower_bound_for_small_sets():
    # for any i-set with i <= q there are at least q(q+1-i) skew lines
    for q in (3, 5, 7):
        pl = canonical_plane(q)
        rng = np.random.default_rng(q + 100)
        for i in range(1, q + 1):
            pts = set(int(v) for v in rng.choice(pl.n, size=i, replace=False))
            assert len(skew_lines(pl, pts)) >= q * (q + 1 - i)


def test_validate_axioms_pass_and_failures():
    assert validate_axioms(canonical_plane(4).line_points, 4).ok
    rows = [list(r) for r in canonical_plane(2).line_points.tolist()]
    short = [r[:] for r in rows]
    short[3] = short[3][:2]
    rep = validate_axioms(short, 2)
    assert not rep.ok and "line size" in rep.failures[0]
    twice = [r[:] for r in rows]
    twice[0] = [0, 2, 4]       # duplicate of line 6: two lines sharing 2+ points
    rep = validate_axioms(twice, 2)
    assert not rep.ok and ("unique meet" in rep.failures[0]
                           or "point degree" in rep.failures[0])
    wrong_count = rows[:-1]
    rep = validate_axioms(wrong_count, 2)
    assert not rep.ok and "line count" in rep.failures[0]


def test_plane_file_round_trip(tmp_path):
    for q in (2, 9):
        pl = canonical_plane(q)
        path = tmp_path / f"plane{q}.txt"
        save_plane(pl, path)
        loaded = load_plane(path)
        assert loaded == pl
        assert loaded.origin == "loaded-file"
        # byte-exact round trip of the file itself
        save_plane(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_plane_file_format_shape(tmp_path):
    pl = canonical_plane(2)
    path = tmp_path / "fano.txt"
    save_plane(pl, path)
    lines = path.read_text().split("\n")
    assert lines[0] == "PLANE v1"
    assert lines[1] == "q=2"
    assert len(lines) == 2 + 7 + 1 and lines[-1] == ""
    assert lines[2] == "4 5 6"


def test_load_plane_rejects_malformed(tmp_path):
    pl = canonical_plane(3)
    good = tmp_path / "p.txt"
    save_plane(pl, good)
    text = good.read_text()

    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("PLANE v1", "PLANE v2"))
    with pytest.raises(ValueError, match="header"):
        load_plane(bad)

    # q=3 header but a missing row
    bad.write_text("\n".join(text.split("\n")[:-2]) + "\n")
    with pytest.raises(ValueError, match="line count"):
        load_plane(bad)

    # out-of-range index (kept ascending so the range check is what fires)
    rows = [r.split(" ") for r in text.split("\n")[2:-1]]
    rows[0][-1] = "999"
    oor = "PLANE v1\nq=3\n" + "\n".join(" ".join(r) for r in rows) + "\n"
    bad.write_text(oor)
    with pytest.raises(ValueError, match="point index"):
        load_plane(bad)

    # break an incidence: swap one point to make a pair uncovered
    rows = [r.split(" ") for r in text.split("\n")[2:-1]]
    rows[0][0] = rows[1][0]
    mangle = "PLANE v1\nq=3\n" + "\n".join(" ".join(r) for r in rows) + "\n"
    bad.write_text(mangle)
    with pytest.raises(ValueError):
        load_plane(bad)


def test_loaded_plane_answers_queries(tmp_path):
    pl = canonical_plane(4)
    path = tmp_path / "p4.txt"
    save_plane(pl, path)
    loaded = load_plane(path)
    assert loaded.field is None
    rng = np.random.default_rng(17)
    for _ in range(50):
        p, r = (int(v) for v in rng.choice(loaded.n, size=2, replace=False))
        assert loaded.line_through(p, r) == pl.line_through(p, r)


def test_point_set_files(tmp_path):
    path = tmp_path / "pts.txt"
    save_point_set({5, 1, 3}, path)
    assert path.read_text() == "1\n3\n5\n"
    assert load_point_set(path) == {1, 3, 5}
    path.write_text("# witness\n1\n3  # inline note\n\n5\n")
    assert load_point_set(path) == {1, 3, 5}
    path.write_text("3\n1\n")
    with pytest.raises(ValueError, match="ascending"):
        load_point_set(path)
    # int() reads the first four as 10, 33, 5 and 7; a point-set file, like a plane
    # file, takes only ASCII decimal digits after one optional sign
    for bad in ("1_0", "\u0663\u0663", "+0_5", "\uff17", "--1", "+-1", "1 2", "0x1", "x"):
        path.write_text(f"0\n{bad}\n")
        with pytest.raises(ValueError) as info:
            load_point_set(path)
        assert str(info.value) == f"line 2: expected a point index, got {bad!r}"
    # one leading sign is kept; a negative index is left to the range check
    path.write_text("-1\n+3\n007\n")
    assert load_point_set(path) == {-1, 3, 7}
    # str.strip() drops these too; only ASCII whitespace is taken around an index
    for space in ("\u00a0", "\u3000", "\x85", "\x1c"):
        for bad in (space + "5", "5" + space):
            path.write_text(f"0\n{bad}\n")
            with pytest.raises(ValueError) as info:
                load_point_set(path)
            assert str(info.value) == f"line 2: expected a point index, got {bad!r}"
    path.write_bytes(b"1\r\n3  # note\r\n\t5\t\r\n \x0b7\x0c\r\n")
    assert load_point_set(path) == {1, 3, 5, 7}


def test_build_pg2_needs_tables():
    f = field_for_order(2)
    assert build_pg2(f).q == 2


def test_canonical_plane_checks_bytes_before_building_the_field(monkeypatch):
    def unreachable(q):
        raise AssertionError("a field was built")

    monkeypatch.setattr(plane, "field_for_order", unreachable)
    canonical_plane.cache_clear()
    try:
        with pytest.raises(ValueError, match="PG\\(2,1024\\) needs a 4104 MiB"):
            canonical_plane(1024)
    finally:
        canonical_plane.cache_clear()


def test_plane_bytes_ceiling(monkeypatch, tmp_path, capsys):
    # the real ceiling admits PG(2,512) and refuses PG(2,1024) by arithmetic alone
    plane.check_table_bytes(512)
    with pytest.raises(ValueError, match="4104 MiB incidence table"):
        plane.check_table_bytes(1024)
    needed = 57 * 8 * 4                      # PG(2,7): n(q+1) int32 entries
    path = tmp_path / "pg7.txt"
    save_plane(canonical_plane(7), path)
    monkeypatch.setattr(plane, "PLANE_BYTES_CAP", needed)
    assert build_pg2(field_for_order(7)).q == 7           # at the ceiling
    assert load_plane(path).q == 7
    monkeypatch.setattr(plane, "PLANE_BYTES_CAP", needed - 1)

    class NoTables:                          # any table read fails the test
        q = 7
        tables = {}

    def unreachable(*args):
        raise AssertionError("the rows were parsed")

    monkeypatch.setattr(plane, "_parse_rows", unreachable)
    with pytest.raises(ValueError, match="ceiling"):
        build_pg2(NoTables())
    with pytest.raises(ValueError, match="ceiling"):
        load_plane(path)
    for argv in (["construct", "--q", "7", "--method", "greedy"],
                 ["construct", "--plane", str(path), "--method", "greedy"],
                 ["plane", "gen", "--q", "7", "--file", str(tmp_path / "out.txt")],
                 ["plane", "check", "--file", str(path)],
                 ["bounds", "--q-list", "5,7"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].endswith(
            "PG(2,7) needs a 0 MiB incidence table, above the 0 MiB ceiling")



def test_load_plane_checks_the_order_line_before_the_rows(tmp_path):
    # an over-ceiling order is refused from the first two lines, so the
    # ceiling wins over a defect further on, here the missing final newline
    path = tmp_path / "big.txt"
    path.write_text("PLANE v1\nq=2000\n0 1 2")
    with pytest.raises(ValueError) as info:
        load_plane(path)
    assert str(info.value) == ("PG(2,2000) needs a 30548 MiB incidence table, "
                               "above the 2048 MiB ceiling")


def test_plane_equality_ignores_origin(tmp_path):
    pl = canonical_plane(2)
    path = tmp_path / "f.txt"
    save_plane(pl, path)
    assert load_plane(path) == pl
    assert pl != canonical_plane(3)


def test_constructor_validates_raw_rows():
    rows = canonical_plane(2).line_points.copy()
    rows[0, 0] = 1  # line 0 becomes {1,5,6}: pair (4,?) coverage breaks
    with pytest.raises(ValueError):
        ProjectivePlane(2, rows, origin="test")
    # tables of other dtypes are taken as the int32 table they become
    for dtype in (np.int64, np.uint16, np.float64):
        table = canonical_plane(2).line_points.astype(dtype)
        assert ProjectivePlane(2, table, origin="test") == canonical_plane(2)


# ---------------------------------------------------------------------------
# the vectorised builder and the shared table of canonical planes
# ---------------------------------------------------------------------------

def _is_prime_power(q):
    try:
        factor_prime_power(q)
    except ValueError:
        return False
    return True


PRIME_POWERS_TO_256 = [q for q in range(2, 257) if _is_prime_power(q)]
LINE_POINTS_SHA256 = json.loads(
    (Path(__file__).parent / "data" / "pg2_line_points_sha256.json").read_text())


def _dot_oracle_rows(field):
    """Row j: every P with triple(P) . triple(j) = 0, from raw field arithmetic.

    Uses the field's table-free scalar ops and `point_triple` only, so it
    shares nothing with `build_pg2`.
    """
    q = field.q
    n = q * q + q + 1
    add = np.array([[field._raw_add(x, y) for y in range(q)] for x in range(q)])
    mul = np.array([[field._raw_mul(x, y) for y in range(q)] for x in range(q)])
    t = np.array([point_triple(q, i) for i in range(n)])
    dot = add[add[mul[t[:, None, 0], t[None, :, 0]], mul[t[:, None, 1], t[None, :, 1]]],
              mul[t[:, None, 2], t[None, :, 2]]]
    on = dot == 0
    assert np.all(on.sum(axis=1) == q + 1)
    return np.nonzero(on)[1].reshape(n, q + 1)


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_256 if q <= 32])
def test_rows_match_the_dot_product_oracle(q):
    field = field_for_order(q)
    assert np.array_equal(build_pg2(field).line_points, _dot_oracle_rows(field))


def test_line_points_bytes_match_recorded_goldens():
    assert sorted(map(int, LINE_POINTS_SHA256)) == PRIME_POWERS_TO_256
    for q in PRIME_POWERS_TO_256:
        table = build_pg2(field_for_order(q)).line_points
        assert table.dtype == np.int32
        assert hashlib.sha256(table.tobytes()).hexdigest() == LINE_POINTS_SHA256[str(q)], q


def test_canonical_incidence_is_symmetric():
    # the fact the shared table rests on: inverting the rows gives them back
    for q in (q for q in PRIME_POWERS_TO_256 if q <= 64):
        pl = build_pg2(field_for_order(q))
        assert np.array_equal(ProjectivePlane._invert(pl.line_points, pl.n, q),
                              pl.line_points), q


def _assert_true_inverse(pl):
    rows = np.arange(pl.n)[:, None]
    through = np.zeros((pl.n, pl.n), dtype=bool)     # [point, line]
    through[rows, pl.point_lines] = True
    on = np.zeros((pl.n, pl.n), dtype=bool)          # [line, point]
    on[rows, pl.line_points] = True
    assert np.array_equal(through.T, on)
    assert np.all(np.diff(pl.point_lines, axis=1) > 0)


def test_plane_leaves_the_callers_array_writeable():
    rows = canonical_plane(2).line_points.copy()
    pl = ProjectivePlane(2, rows, origin="x")
    rows[0, 0] = 1
    assert pl.line_points[0].tolist() == FANO_LINES[0]
    assert not pl.line_points.flags.writeable


def test_canonical_planes_share_one_table_and_loaded_ones_do_not(tmp_path):
    pl = build_pg2(field_for_order(7))
    assert np.shares_memory(pl.point_lines, pl.line_points)
    assert not pl.line_points.flags.writeable
    _assert_true_inverse(pl)
    rng = np.random.default_rng(7)
    relabel = rng.permutation(pl.n)
    rows = np.sort(relabel[pl.line_points], axis=1)[rng.permutation(pl.n)]
    path = tmp_path / "relabelled.txt"
    save_plane(ProjectivePlane(7, rows, origin="relabelled"), path)
    loaded = load_plane(path)
    assert np.array_equal(loaded.line_points, rows)
    assert not np.shares_memory(loaded.point_lines, loaded.line_points)
    assert not np.array_equal(loaded.point_lines, loaded.line_points)
    _assert_true_inverse(loaded)
    # a canonical plane written out and read back is inverted too
    save_plane(pl, path)
    reloaded = load_plane(path)
    assert reloaded == pl and not np.shares_memory(reloaded.point_lines,
                                                   reloaded.line_points)
    assert np.array_equal(reloaded.point_lines, pl.point_lines)


def test_degree_check_refuses_a_corrupted_canonical_table():
    field = copy.copy(field_for_order(5))
    tables = dict(field.tables)
    tables["inv"] = tables["inv"].copy()
    tables["inv"][2] = tables["inv"][3]      # slope 2 now repeats slope 3's lines
    field.tables = tables
    with pytest.raises(ValueError, match="exactly q\\+1 lines"):
        build_pg2(field)
    # a negative product still indexes the tables but writes point -1
    tables = dict(field_for_order(5).tables)
    tables["mul"] = tables["mul"].copy()
    tables["mul"][1, 4] = -1
    field.tables = tables
    with pytest.raises(ValueError):
        build_pg2(field)
    # the degree count drops an index >= n, so its point falls short
    bad = build_pg2(field_for_order(5)).line_points.copy()
    bad[3, 1] = len(bad)
    assert np.any(_row_counts(bad, None, len(bad)) != 6)


# ---------------------------------------------------------------------------
# first-failure messages, one per defect class, recorded from the per-row
# loader; edits are made to the canonical PG(2,3) rows
# ---------------------------------------------------------------------------

def _q3_rows(edits=None):
    rows = canonical_plane(3).line_points.tolist()
    for j, row in (edits or {}).items():
        rows[j] = row
    return rows


def _q3_file(edits=None, header="PLANE v1", order="q=3", rows=None, end="\n"):
    rows = _q3_rows(edits) if rows is None else rows
    body = [r if isinstance(r, str) else " ".join(map(str, r)) for r in rows]
    return "\n".join([header, order, *body]) + end


# name: (row edits, first failure of validate_axioms)
AXIOM_GOLDEN = {
    "ragged row": ({3: [6, 7, 8]}, "line size: line 3 has 3 points, expected 4"),
    "20-digit index": ({2: [1, 4, 7, 12345678901234567890]},
                       "point index: line 2 has an index outside [0, 13)"),
    "index too large": ({0: [9, 10, 11, 999]},
                        "point index: line 0 has an index outside [0, 13)"),
    "index n": ({12: [0, 3, 6, 13]}, "point index: line 12 has an index outside [0, 13)"),
    "negative index": ({11: [-1, 4, 8, 10]},
                       "point index: line 11 has an index outside [0, 13)"),
    "not ascending": ({9: [0, 2, 1, 12]}, "ascending: line 9 is not strictly ascending"),
    "repeated index": ({6: [3, 4, 4, 12]}, "ascending: line 6 is not strictly ascending"),
    "range beats ascending on a row": ({4: [6, 4, 2, 99]},
                                       "point index: line 4 has an index outside [0, 13)"),
    "fractional entry": ({5: [1, 5, 6.5, 10]},
                         "point index: line 5 has a non-integer entry"),
    "non-integer beats range on a row": ({5: [1, 5.5, 6, 99]},
                                         "point index: line 5 has a non-integer entry"),
    "earlier range beats a non-integer entry": (
        {2: [1, 4, 7, 99], 5: [1, 5, 6.5, 10]},
        "point index: line 2 has an index outside [0, 13)"),
    "earlier row wins": ({2: [1, 7, 4, 9], 5: [1, 5, 6, 13]},
                         "ascending: line 2 is not strictly ascending"),
    "size beats a later range": ({1: [2, 5, 8, 9, 10], 7: [2, 3, 7, 99]},
                                 "line size: line 1 has 5 points, expected 4"),
    "no-sequence row": ({4: None}, "line size: line 4 is not a sequence of points, expected 4"),
    "rows of ints": (dict(enumerate(range(1, 14))),
                     "line size: line 0 is not a sequence of points, expected 4"),
    "earlier range beats a no-sequence row": (
        {2: [1, 4, 7, 99], 5: None},
        "point index: line 2 has an index outside [0, 13)"),
    "point degree": ({0: [8, 10, 11, 12]}, "point degree: point 8 lies on 5 lines, expected 4"),
    "no common line": ({0: [2, 9, 11, 12], 1: [5, 8, 9, 10]},
                       "unique meet: points 2 and 5 have no common line"),
    "more than one common line": ({1: [4, 5, 8, 9], 2: [1, 2, 7, 9]},
                                  "unique meet: points 1 and 2 have more than one common line"),
}

# name: (plane file text, load_plane's ValueError)
LOAD_GOLDEN = {
    "bad header": (_q3_file(header="PLANE v2"),
                   "bad header: expected 'PLANE v1', got 'PLANE v2'"),
    "missing header": ("PLANE v1\n", "plane file is missing its header"),
    "empty file": ("", "plane file is missing its header"),
    "no order line": (_q3_file(order="order=3"), "second line must be q=<order>"),
    "bad order line": (_q3_file(order="q=three"), "bad order line 'q=three'"),
    # int() reads each of these orders as 3; the order takes the rows' token rule
    **{f"order {order!r}": (_q3_file(order=order), f"bad order line {order!r}")
       for order in ("q= 3", "q=3 ", "q=0_3", "q=\u0663", "q=\xa03", "q=3\t", "q=3\x0b")},
    "order below 2": (_q3_file(order="q=1"), "order must be >= 2, got 1"),
    "missing final newline": (_q3_file(end=""), "plane file must end with a newline"),
    "line count": (_q3_file(rows=_q3_rows()[:-1]),
                   "line count: expected 13 data rows, got 12"),
    "leading whitespace": (_q3_file({5: " 1 5 6 10"}),
                           "line 5: leading or trailing whitespace"),
    "trailing whitespace": (_q3_file({7: "2 3 7 10\t"}),
                            "line 7: leading or trailing whitespace"),
    "vertical tab": (_q3_file({0: "9 10 11 12\x0b"}),
                     "line 0: leading or trailing whitespace"),
    "blank row": (_q3_file({4: ""}), "line 4: non-integer token"),
    "double space": (_q3_file({8: "1 3  8 11"}), "line 8: non-integer token"),
    "non-integer token": (_q3_file({6: "3 4 x 12"}), "line 6: non-integer token"),
    "decimal point": (_q3_file({10: "0 5 7 11.0"}), "line 10: non-integer token"),
    "doubled sign": (_q3_file({11: "0 4 +-8 10"}), "line 11: non-integer token"),
    "token beats later whitespace": (_q3_file({3: "6 7 8 1e1", 8: "1 3 8 11 "}),
                                     "line 3: non-integer token"),
    "whitespace beats later token": (_q3_file({2: " 1 4 7 9", 8: "1 3 8 x"}),
                                     "line 2: leading or trailing whitespace"),
    "token beats earlier axiom failure": (_q3_file({1: [2, 5, 99, 9], 10: "0 5 7 -"}),
                                          "line 10: non-integer token"),
    # a file holds integer tokens only, so only integer edits reach the axioms
    **{f"axiom: {name}": (_q3_file(edits), "axiom failure: " + failure)
       for name, (edits, failure) in AXIOM_GOLDEN.items()
       if all(isinstance(row, list) and all(isinstance(v, int) for v in row)
              for row in edits.values())},
}


@pytest.mark.parametrize("name", LOAD_GOLDEN)
def test_load_plane_first_failure_messages(tmp_path, name):
    text, message = LOAD_GOLDEN[name]
    path = tmp_path / "p.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_plane(path)
    assert str(info.value) == message


@pytest.mark.parametrize("name", LOAD_GOLDEN)
def test_only_an_axiom_failure_is_a_plane_axiom_error(tmp_path, name):
    path = tmp_path / "p.txt"
    path.write_text(LOAD_GOLDEN[name][0])
    with pytest.raises(ValueError) as info:
        load_plane(path)
    assert isinstance(info.value, PlaneAxiomError) == name.startswith("axiom: ")
    if name.startswith("axiom: "):
        with pytest.raises(PlaneAxiomError):
            ProjectivePlane(3, _q3_rows(AXIOM_GOLDEN[name[7:]][0]), origin="test")


@pytest.mark.parametrize("name", AXIOM_GOLDEN)
def test_validate_axioms_first_failure_messages(name):
    edits, failure = AXIOM_GOLDEN[name]
    rows = _q3_rows(edits)
    assert validate_axioms(rows, 3) == ValidationReport(False, [failure])
    with pytest.raises(ValueError) as info:
        ProjectivePlane(3, rows, origin="test")
    assert str(info.value) == "invalid plane: " + failure
    # an int per row makes a 1-D array, as np.arange(13) does
    if (all(isinstance(r, int) for r in rows) or all(isinstance(r, list) for r in rows)
            and len({len(r) for r in rows}) == 1 and max(map(max, rows)) < 2**31):
        table = np.array(rows)
        assert validate_axioms(table, 3) == ValidationReport(False, [failure])
        with pytest.raises(ValueError) as info:
            ProjectivePlane(3, table, origin="test")
        assert str(info.value) == "invalid plane: " + failure


def test_validate_axioms_line_count_message():
    rows = _q3_rows()[:-1]
    expect = ValidationReport(False, ["line count: expected 13 lines, got 12"])
    assert validate_axioms(rows, 3) == expect
    assert validate_axioms(np.array(rows), 3) == expect


def test_reference_names_rows_that_are_no_sequence():
    for name in ("no-sequence row", "rows of ints", "earlier range beats a no-sequence row"):
        edits, failure = AXIOM_GOLDEN[name]
        assert reference_validate_axioms(_q3_rows(edits), 3) == ValidationReport(False, [failure])


def test_degree_count_past_its_first_block(tmp_path):
    # the count takes 65536 // 65 = 1008 rows per block at q = 64
    q = 64
    rows = _relabelled_rows(q, np.random.default_rng(64))
    j = 3000
    k = int(np.flatnonzero(np.diff(rows[j]) >= 2)[0])
    rows[j, k] += 1                    # still ascending; two degrees change
    expect = reference_validate_axioms(rows.tolist(), q)
    assert expect.failures[0].startswith("point degree:")
    assert validate_axioms(rows, q) == expect
    path = tmp_path / "p.txt"
    path.write_text(_q3_file(order=f"q={q}", rows=rows.tolist()))
    with pytest.raises(PlaneAxiomError) as info:
        load_plane(path)
    assert str(info.value) == "axiom failure: " + expect.failures[0]


def test_unvalidated_plane_still_checks_point_degrees():
    rows = np.array(_q3_rows(AXIOM_GOLDEN["point degree"][0]))
    with pytest.raises(ValueError) as info:
        ProjectivePlane._invert(rows, 13, 3)
    assert str(info.value) == "some point is not on exactly q+1 lines"


def test_load_plane_reads_crlf_signs_and_zero_padding(tmp_path):
    text = _q3_file({0: "+9 10 011 12", 3: "6 7 8 0012"}).replace("\n", "\r\n")
    path = tmp_path / "p.txt"
    path.write_text(text)
    assert load_plane(path) == canonical_plane(3)


# ---------------------------------------------------------------------------
# the array validator against the per-row reference in tests/oracles.py
# ---------------------------------------------------------------------------

def _relabelled_rows(q, rng):
    pl = canonical_plane(q)
    relabel = rng.permutation(pl.n)
    return np.sort(relabel[pl.line_points], axis=1)[rng.permutation(pl.n)]


def _mutants(q, seed, count=80):
    """The relabelled plane, then seeded mutations of it as lists of rows.

    Most change one entry: to -1, to n, past n, to a row neighbour's value
    or to any index, the row then re-sorted or not.  Some drop an entry, and
    some swap two points between two lines, which keeps every degree.
    """
    rng = np.random.default_rng(seed)
    base = _relabelled_rows(q, rng)
    n = base.shape[0]
    yield base.tolist()
    for _ in range(count):
        rows = base.copy()
        j, k = (int(v) for v in rng.integers((n, q + 1)))
        kind = int(rng.integers(7))
        if kind == 5:
            ragged = rows.tolist()
            del ragged[j][k]
            yield ragged
            continue
        if kind == 6:
            other = int(rng.integers(n))
            x, y = rows[j, k], rows[other, int(rng.integers(q + 1))]
            if x in rows[other] or y in rows[j]:
                continue
            rows[j, k], rows[other, rows[other] == y] = y, x
            rows[[j, other]] = np.sort(rows[[j, other]], axis=1)
            yield rows.tolist()
            continue
        rows[j, k] = (-1, n, n + int(rng.integers(1, 50)),
                      rows[j, k - 1 if k else 1], int(rng.integers(n)))[kind]
        if rng.random() < 0.5:
            rows[j].sort()
        yield rows.tolist()


def test_validate_axioms_matches_the_reference_on_mutated_planes():
    kinds = set()
    for q in (3, 4, 7, 9):
        for rows in _mutants(q, seed=q):
            expect = reference_validate_axioms(rows, q)
            assert validate_axioms(rows, q) == expect
            if len({len(r) for r in rows}) == 1:
                assert validate_axioms(np.array(rows), q) == expect
                assert validate_axioms(np.array(rows, dtype=np.int32), q) == expect
            kinds.add(expect.failures[0].split(":")[0] if expect.failures else "ok")
    assert kinds == {"ok", "line size", "point index", "ascending", "point degree",
                     "unique meet"}


def test_non_integer_entries_are_refused_not_truncated():
    rows = canonical_plane(2).line_points
    line0 = ValidationReport(False, ["point index: line 0 has a non-integer entry"])
    bool_row = rows.tolist()
    bool_row[3][0] = True
    for bad, report in ((rows + 0.4, line0), ((rows + 0.4).tolist(), line0),
                        ([[str(v) for v in row] for row in rows.tolist()], line0),
                        (rows.astype(bool), line0), (rows.astype(str), line0),
                        (bool_row, ValidationReport(False, [
                            "point index: line 3 has a non-integer entry"]))):
        assert validate_axioms(bad, 2) == report
        if isinstance(bad, list):
            assert reference_validate_axioms(bad, 2) == report
        with pytest.raises(PlaneAxiomError) as info:
            ProjectivePlane(2, bad, origin="x")
        assert str(info.value) == "invalid plane: " + report.failures[0]
    # integral floats are whole numbers; the plane adopts the checked int32 table
    pl = ProjectivePlane(2, rows.astype(np.float32).tolist(), origin="x")
    assert pl.line_points.dtype == np.int32 and pl == canonical_plane(2)


def _swapped_rows(q, rng, low=None):
    """Relabelled PG(2,q) rows with one point swapped between two lines.

    Line j gives up x for y and line k y for x, so row sizes, degrees and
    (after re-sorting) ascending order hold.  Every point of the two lines
    but their meet then fails the pair check: 2q points.  With `low` they
    are relabelled onto [low, low + 2q), so low is the first failing point.
    """
    rows = canonical_plane(q).line_points.copy()
    n = len(rows)
    j, k = rng.choice(n, 2, replace=False)
    x = rng.choice(np.setdiff1d(rows[j], rows[k]))
    y = rng.choice(np.setdiff1d(rows[k], rows[j]))
    rows[j, rows[j] == x], rows[k, rows[k] == y] = y, x
    failing = np.setxor1d(rows[j], rows[k])
    assert len(failing) == 2 * q
    if low is None:
        order = rng.permutation(n)
    else:
        rest = rng.permutation(np.setdiff1d(np.arange(n), failing))
        order = np.concatenate([rest[:low], rng.permutation(failing), rest[low:]])
    relabel = np.empty(n, dtype=np.int64)
    relabel[order] = np.arange(n)
    return np.sort(relabel[rows], axis=1)[rng.permutation(n)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 32, 64])
def test_bit_cover_check_matches_the_count_oracle(q, monkeypatch):
    n = q * q + q + 1
    rng = np.random.default_rng(1000 + q)
    latest = n - 2 * q
    # 511 and 512: the last point of the first 512-point block, the first of the second
    placed = [0, min(n // 32 * 16 + 3, latest), latest] + [p for p in (511, 512) if p <= latest]
    if q <= 25:
        assert latest // 512 == (n - 1) // 512    # the last, partial block is reachable
    planes = [(_relabelled_rows(q, rng), None)]
    planes += [(_swapped_rows(q, rng), None) for _ in range(3)]
    planes += [(_swapped_rows(q, rng, low), low) for low in placed]
    words = -(-n // 64)
    for rows, low in planes:
        expect = reference_validate_axioms(rows.tolist(), q)
        assert validate_axioms(rows, q) == expect
        point_lines = ProjectivePlane._invert(rows, n, q)
        first = n if expect.ok else int(expect.failures[0].split()[3])
        assert low is None or first == low
        # the bits refuse the count's first failing point itself
        assert plane._first_uncovered_point(rows, point_lines, n) == first
        with monkeypatch.context() as m:
            # a third of the words per slab: several slabs from q = 8 (two words) on
            m.setattr(plane, "_BIT_TABLE_BYTES", 8 * n * max(1, words // 3))
            assert plane._first_uncovered_point(rows, point_lines, n) == first
            assert validate_axioms(rows, q) == expect


def _write_rows(path, q, rows):
    path.write_text("\n".join([plane.PLANE_HEADER, f"q={q}"]
                              + [" ".join(map(str, row)) for row in rows.tolist()]) + "\n")


def test_bit_cover_check_above_2_13_points(tmp_path, monkeypatch):
    q = 97
    n = q * q + q + 1
    words = -(-n // 64)
    assert 1 << 13 < n and 8 * n * words <= plane._BIT_TABLE_BYTES     # one slab
    rng = np.random.default_rng(1097)
    rows = _relabelled_rows(q, rng)
    path = tmp_path / "p97.txt"
    _write_rows(path, q, rows)
    assert np.array_equal(load_plane(path).point_lines, reference_invert(rows, n, q))
    # a swapped point keeps line sizes and point degrees, so only the pair check fails
    for low in (None, n - 2 * q):
        bad = _swapped_rows(q, rng, low)
        first = plane._first_uncovered_point(bad, ProjectivePlane._invert(bad, n, q), n)
        assert first < n and low in (None, first)
        _write_rows(path, q, bad)
        with pytest.raises(PlaneAxiomError) as packed:
            load_plane(path)
        assert str(packed.value).startswith(f"axiom failure: unique meet: points {first} and ")
        with monkeypatch.context() as m:
            m.setattr(plane, "_BIT_TABLE_BYTES", 8 * n * 40)      # four slabs, the last short
            with pytest.raises(PlaneAxiomError) as slabs:
                load_plane(path)
        assert str(packed.value) == str(slabs.value)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_every_slab_width_agrees_with_the_count_oracle(q, seed, data):
    n = q * q + q + 1
    words = -(-n // 64)
    rng = np.random.default_rng(seed)
    low = data.draw(st.one_of(st.none(), st.integers(0, n - 2 * q)), label="low")
    rows = _swapped_rows(q, rng, low) if data.draw(st.booleans()) else _relabelled_rows(q, rng)
    expect = reference_validate_axioms(rows.tolist(), q)
    slab = data.draw(st.integers(1, words), label="words per slab")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(plane, "_BIT_TABLE_BYTES", 8 * n * slab)
        assert validate_axioms(rows, q) == expect


@pytest.mark.parametrize("n", [46340, 46341])
def test_invert_keys_on_both_sides_of_int32(n):
    # the largest n whose keys point*n + line fit in int32, and the next, which
    # takes int64 keys: row j is {j, j+1 mod n}, so every point lies on two rows
    assert (n * n - 1 <= np.iinfo(np.int32).max) == (n == 46340)
    j = np.arange(n, dtype=np.int32)
    rows = np.sort(np.stack([j, (j + 1) % n], axis=1), axis=1)
    assert np.array_equal(ProjectivePlane._invert(rows, n, 1), reference_invert(rows, n, 1))


def test_invert_matches_a_stable_argsort(tmp_path):
    for q in (3, 4, 7, 9):
        rows = _relabelled_rows(q, np.random.default_rng(q)).astype(np.int32)
        n = rows.shape[0]
        assert np.array_equal(ProjectivePlane._invert(rows, n, q),
                              reference_invert(rows, n, q))
        path = tmp_path / f"p{q}.txt"
        save_plane(ProjectivePlane(q, rows, origin="relabelled"), path)
        loaded = load_plane(path)
        assert np.array_equal(loaded.point_lines, reference_invert(rows, n, q))
        save_plane(canonical_plane(q), path)
        canon = canonical_plane(q).line_points
        assert np.array_equal(load_plane(path).point_lines, reference_invert(canon, n, q))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
def test_invert_matches_the_reference_on_every_table_dtype(dtype):
    for q in (3, 4, 7):
        rows = _relabelled_rows(q, np.random.default_rng(q)).astype(dtype)
        kept = rows.copy()
        n = rows.shape[0]
        assert np.array_equal(ProjectivePlane._invert(rows, n, q), reference_invert(rows, n, q))
        assert np.array_equal(rows, kept)       # the caller's table is left as it was
    rows = np.array(_q3_rows(AXIOM_GOLDEN["point degree"][0]), dtype=dtype)
    with pytest.raises(ValueError, match="^some point is not on exactly q\\+1 lines$"):
        ProjectivePlane._invert(rows, 13, 3)


@pytest.mark.parametrize("row", ["9 10 11 1_2", "9 10 11 \u0661\u0662", "9 10\t 11 12"])
def test_load_plane_tokens_are_ascii_decimal_integers(tmp_path, row):
    # int() reads each of these rows as 9 10 11 12; the file format does not
    path = tmp_path / "p.txt"
    path.write_text(_q3_file({0: row}))
    with pytest.raises(ValueError, match="^line 0: non-integer token$"):
        load_plane(path)


def test_skew_lines_refuses_indices_outside_the_plane():
    pl = canonical_plane(2)
    for points, bad in (([-1], -1), ([0, 7], 7), ({3, 99}, 99)):
        with pytest.raises(ValueError) as info:
            skew_lines(pl, points)
        assert str(info.value) == f"point index {bad} outside [0, 7)"


def test_line_through_and_meet_refuse_indices_outside_the_plane():
    pl = canonical_plane(2)
    for bad in (-1, 7, 2**70):
        for args in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError) as info:
                pl.line_through(*args)
            assert str(info.value) == f"point index {bad} outside [0, 7)"
            with pytest.raises(ValueError) as info:
                pl.meet(*args)
            assert str(info.value) == f"line index {bad} outside [0, 7)"


@pytest.mark.parametrize("bad", [True, np.True_, 2.0, "4"])
def test_line_through_and_meet_refuse_bool_and_non_integer_indices(bad):
    # True once read as index 1, and line_through(1, 1.0) as one point twice
    pl = canonical_plane(3)
    for args in ((bad, 2), (2, bad)):
        with pytest.raises(ValueError) as info:
            pl.line_through(*args)
        assert str(info.value) == f"point index {bad!r} is not an integer"
        with pytest.raises(ValueError) as info:
            pl.meet(*args)
        assert str(info.value) == f"line index {bad!r} is not an integer"
    with pytest.raises(ValueError, match=r"^point index 1\.0 is not an integer$"):
        pl.line_through(1, 1.0)
    assert pl.line_through(np.int64(1), np.uint8(2)) == pl.line_through(1, 2)
    # an index past int's 4300-digit str limit is cut, not a conversion error
    with pytest.raises(ValueError, match=r"^point index 1(0{39})\.\.\. outside \[0, 13\)$"):
        pl.line_through(10**5000, 2)
    assert type(pl.meet(np.int32(1), 2)) is int


@pytest.mark.parametrize("digits", [30, 5000])
def test_a_row_token_past_int_s_digit_limit_is_outside_the_plane(tmp_path, digits):
    # int() refuses more than 4300 digits; such a token fails as a 30-digit one does
    path = tmp_path / "p.txt"
    path.write_text(_q3_file({0: "9 10 11 " + "9" * digits}))
    with pytest.raises(PlaneAxiomError) as info:
        load_plane(path)
    assert str(info.value) == "axiom failure: point index: line 0 has an index outside [0, 13)"


def test_point_triple_and_triple_index_refuse_what_they_cannot_code():
    with pytest.raises(ValueError) as info:
        point_triple(3, 13)
    assert str(info.value) == "index 13 out of range for order 3"
    with pytest.raises(ValueError) as info:
        point_triple(3, -1)
    assert str(info.value) == "index -1 out of range for order 3"
    for triple in ((2, 0, 1), (0, 2, 1), (0, 0, 0)):
        with pytest.raises(ValueError) as info:
            triple_index(3, triple)
        assert str(info.value) == f"triple {triple!r} is not normalised"
