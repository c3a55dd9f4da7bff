"""Each construction is proven by one independent recount as it leaves the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import satset
from satset import baer, hypergraph, saturation
from satset.cli import main
from satset.plane import canonical_plane

CONSTRUCT_ARGV = [
    ["--q", "9", "--method", "greedy"],
    ["--q", "9", "--method", "greedy", "--variant", "global"],
    ["--q", "9", "--method", "greedy", "--stop-rule", "exhaust"],
    ["--q", "9", "--method", "greedy", "--stop-rule", "step-cap", "--cap", "3"],
    ["--q", "9", "--method", "random", "--seed", "1"],
    ["--q", "9", "--method", "random", "--seed", "0", "--p", "0"],
    ["--q", "9", "--method", "baer"],
]


@pytest.mark.parametrize("argv", CONSTRUCT_ARGV)
def test_one_recount_per_construct_command(capsys, monkeypatch, argv):
    calls = []
    original = saturation.unsaturated

    def counting(plane, points):
        calls.append(1)
        return original(plane, points)

    monkeypatch.setattr(saturation, "unsaturated", counting)
    assert main(["construct", *argv]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _report_missing_point(monkeypatch):
    """Make the recount claim that point 0 is unsaturated."""
    monkeypatch.setattr(saturation, "unsaturated", lambda plane, points: {0})


def test_constructions_raise_when_the_recount_fails(monkeypatch):
    pl = canonical_plane(9)
    embedding = baer.baer_subplane(pl)
    _report_missing_point(monkeypatch)
    with pytest.raises(saturation.VerificationError):
        saturation.greedy_construct(pl)
    with pytest.raises(saturation.VerificationError):
        saturation.greedy_construct(pl, stop_rule="exhaust")
    with pytest.raises(saturation.VerificationError):
        saturation.random_construct(pl, seed=1)
    with pytest.raises(saturation.VerificationError):
        baer.three_subline_construction(embedding)
    with pytest.raises(saturation.VerificationError):
        saturation.minsat_bruteforce(canonical_plane(2))


@pytest.mark.parametrize("argv", [["construct", *argv] for argv in CONSTRUCT_ARGV]
                         + [["minsat", "--q", "2"]])
def test_construct_exits_1_when_the_recount_fails(capsys, monkeypatch, argv):
    _report_missing_point(monkeypatch)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "does not saturate" in captured.err


HYPERGRAPH_ARGV = ["hypergraph", "--q", "9", "--s0-size", "4", "--seed", "3"]


def test_two_recounts_per_hypergraph_command(capsys, monkeypatch):
    # one to build the family, one to prove S0 plus its transversal
    calls = []
    original = saturation.unsaturated

    def counting(plane, points):
        calls.append(1)
        return original(plane, points)

    monkeypatch.setattr(saturation, "unsaturated", counting)
    monkeypatch.setattr(hypergraph, "unsaturated", counting)
    assert main(HYPERGRAPH_ARGV) == 0
    assert capsys.readouterr().out.endswith("saturating=True\n")
    assert len(calls) == 2


def test_hypergraph_exits_1_when_the_recount_fails(capsys, monkeypatch):
    pl = canonical_plane(9)
    seed_set = {0, 1, 13, 50}
    result = hypergraph.greedy_transversal(hypergraph.saturation_family(pl, seed_set))
    _report_missing_point(monkeypatch)
    with pytest.raises(saturation.VerificationError):
        saturation._proven(pl, seed_set | set(result.vertices))
    assert main(HYPERGRAPH_ARGV) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "does not saturate" in captured.err


OPTIMIZED_SCRIPT = """
import sys
from satset import baer, hypergraph, saturation
from satset.plane import canonical_plane

if __debug__:
    sys.exit("asserts are still on")
pl = canonical_plane(9)
embedding = baer.baer_subplane(pl)
saturation.unsaturated = lambda plane, points: {0}
builds = {"greedy": lambda: saturation.greedy_construct(pl),
          "random": lambda: saturation.random_construct(pl, seed=1),
          "baer": lambda: baer.three_subline_construction(embedding),
          "minsat": lambda: saturation.minsat_bruteforce(canonical_plane(2))}
for name, build in builds.items():
    try:
        build()
    except saturation.VerificationError:
        print(name, "raised")
"""


def test_recount_survives_python_O():
    src = str(Path(satset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split("\n") == ["greedy raised", "random raised",
                                       "baer raised", "minsat raised", ""]
