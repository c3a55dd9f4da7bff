"""Tests of the benchmark's own arithmetic and inputs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from satset import saturation  # noqa: E402
from satset.plane import (ProjectivePlane, canonical_plane, load_plane,  # noqa: E402
                          load_point_set, validate_axioms)


def test_self_time_on_nested_span_tree():
    # op [0,10] > f [1,4] > g [2,3];  op > f [5,9];  setup [10,12] > g [10.5,11]
    names = ["op", "f", "g", "setup"]
    name = np.array([0, 1, 2, 1, 3, 2])
    parent = np.array([-1, 0, 1, 0, -1, 4])
    start = np.array([0.0, 1.0, 2.0, 5.0, 10.0, 10.5])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0, 11.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    assert tracing.roots(parent).tolist() == [0, 0, 0, 0, 4, 4]
    assert tracing.summarize(names, name, parent, start, end) == {
        ("op", "op"): (1, 3.0), ("op", "f"): (2, 6.0), ("op", "g"): (1, 1.0),
        ("setup", "setup"): (1, 1.5), ("setup", "g"): (1, 0.5)}


def test_wrapped_calls_nest_under_their_caller():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    with tracer.span("op"):
        assert outer(2) == 9
    spans = tracer.arrays()
    assert [tracer.names[c] for c in spans["name"]] == ["op", "outer", "inner", "inner"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    assert np.all(tracing.self_times(spans["parent"], spans["start"], spans["end"]) >= 0)


def test_op_times_scale_by_the_bracketing_references():
    nominal = hostspeed.REFERENCE_NOMINAL_S
    # the host runs at half speed around op 0, then at nominal speed
    refs = [2 * nominal, 2 * nominal, nominal]
    assert hostspeed.scaled_op_times([1.0, 0.3], refs) == pytest.approx([0.5, 0.2])
    assert hostspeed.scale(0.4, nominal / 2) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        hostspeed.scaled_op_times([1.0], [nominal])


def test_relabelled_plane_is_valid_and_keeps_saturation():
    q = 9
    base = canonical_plane(q)
    known, _ = saturation.greedy_construct(base)
    rows, perm = wl.relabel_plane(base.line_points, np.random.default_rng(3))
    assert validate_axioms(rows.tolist(), q).ok
    moved = ProjectivePlane(q, rows, origin="relabelled")
    mapped = {int(perm[v]) for v in known}
    assert saturation.is_saturating(moved, mapped)
    assert wl.missing_points(rows, mapped) == []
    smaller = set(sorted(mapped)[1:])
    assert wl.missing_points(rows, smaller) == sorted(saturation.unsaturated(moved, smaller))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recount_agrees_with_the_library_on_random_sets(seed):
    plane = canonical_plane(8)
    rng = np.random.default_rng(seed)
    points = set(rng.choice(plane.n, size=6, replace=False).tolist())
    assert wl.missing_points(plane.line_points, points) == \
        sorted(saturation.unsaturated(plane, points))


def test_verify_inputs_load_and_saturate_as_labelled(tmp_path):
    base = canonical_plane(7)
    wl.make_verify_inputs(base.line_points, 11, tmp_path)
    plane = load_plane(tmp_path / "plane.txt")
    assert not np.array_equal(plane.line_points, base.line_points)
    assert np.array_equal(wl.read_plane_rows(tmp_path / "plane.txt"), plane.line_points)
    for k in range(wl.VERIFY_SETS):
        whole = load_point_set(tmp_path / f"set{k}.txt")
        minus = load_point_set(tmp_path / f"set{k}-minus.txt")
        assert len(minus) == len(whole) - 1 and minus < whole
        assert saturation.is_saturating(plane, whole)
        assert not saturation.is_saturating(plane, minus)


@pytest.mark.parametrize("seed", [1, 2])
def test_hypergraph_recount_agrees_with_the_library(seed):
    from satset import hypergraph
    plane = canonical_plane(7)
    s0 = set(np.random.default_rng(seed).choice(plane.n, size=3, replace=False).tolist())
    family = hypergraph.saturation_family(plane, s0)
    missing, edges = wl.saturation_hypergraph(plane.line_points, s0)
    assert missing == list(family.labels)
    assert [set(np.flatnonzero(e).tolist()) for e in edges] == [set(e) for e in family.edges]
    result = hypergraph.greedy_transversal(family)
    assert wl.greedy_cover(edges) == (result.vertices, result.covered_counts)


def test_hypergraph_check_rejects_a_wrong_transversal_size():
    import contextlib
    import io
    import satset.cli
    rows = canonical_plane(25).line_points
    (seed, s0), = wl.general_position_seeds(rows, 1701, 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = satset.cli.main(["hypergraph", "--q", "25", "--s0-size", "5", "--seed", str(seed)])
    cmd = wl.Command([], "hypergraph", {"q": 25, "seed": seed, "s0": s0})
    assert wl.check_command(cmd, rc, out.getvalue(), rows) is None
    size = out.getvalue().split("transversal_size=")[1].split()[0]
    wrong = out.getvalue().replace(f"transversal_size={size}", f"transversal_size={int(size) + 1}")
    assert "transversal_size" in wl.check_command(cmd, rc, wrong, rows)
