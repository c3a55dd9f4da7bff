import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from satset import cli
from satset.cli import main
from satset.plane import canonical_plane, save_plane, save_point_set
from satset.saturation import is_saturating

DOC_KEYS = ["q", "n", "method", "variant", "stop_rule", "seed", "size",
            "points", "verified", "bound_theorem", "bound_lunelli_sce", "trace"]
TRACE_KEYS = ["i", "point", "benefit", "r_before", "r_after", "skew_line",
              "min_skew_intersection"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    capsys.readouterr()
    return exc.value.code


def test_construct_greedy_q2(capsys):
    code, out = run(capsys, ["construct", "--q", "2", "--method", "greedy"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == DOC_KEYS
    assert doc["q"] == 2 and doc["n"] == 7
    assert doc["size"] == 4 and doc["verified"] is True
    assert doc["points"] == sorted(doc["points"])
    assert doc["variant"] == "skew" and doc["stop_rule"] == "benefit-floor"
    assert doc["seed"] is None
    assert all(list(row.keys()) == TRACE_KEYS for row in doc["trace"])


def test_construct_baer_q9(capsys):
    code, out = run(capsys, ["construct", "--q", "9", "--method", "baer"])
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 9 and doc["verified"] is True
    assert doc["variant"] is None and doc["trace"] == []


def test_construct_random_reproducible(capsys):
    argv = ["construct", "--q", "9", "--method", "random", "--seed", "1"]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 1
    assert set(doc["stats"].keys()) == {"X", "Y"}
    assert doc["verified"] is True


def test_greedy_json_byte_identical(capsys):
    argv = ["construct", "--q", "7", "--method", "greedy", "--variant", "global"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert out1 == out2


# sha256 of the `construct --method greedy` JSON, trace included
GREEDY_JSON_SHA256 = {
    (27, "skew"): "a7a55d24e55edc79eef2998257b4a788b8ecf8809d345a8dcac33f39106e8bb9",
    (27, "global"): "864553e8c4432bad2cd5e456bc426f253d4b4b9c7352229f4fce886df6a89842",
    (64, "skew"): "bb745b84c044dc0c732ecae7d246b47075d40fe3b1c8efad6ae5f81a2bceaf28",
    (64, "global"): "5fe0ef414ae0afb512d10a7b14626972e49e3f1e813f4a0b4dd648ace1c0febf",
    (128, "skew"): "957022d980384a9b6f1fdc6205932abbe0feff759868062ea3bb06308067e3b6",
    (128, "global"): "0ccbd2bfcd355685f07d9dee11ed8091ae1e2321d1e6c5b8765ea747c7d11c0c",
    (256, "skew"): "03e0c1ac09d9268eac1ff599fabdbd5fc118f3a0267f6651dd9a89a3d131dffa",
    (256, "global"): "06a4f6361422b0e5854bcbc94700b7900a2aca5bf8159c51e39904cddd57b4c4",
}


@pytest.mark.parametrize(("q", "variant"), list(GREEDY_JSON_SHA256))
def test_greedy_json_golden_digest(capsys, q, variant):
    code, out = run(capsys, ["construct", "--q", str(q), "--method", "greedy",
                             "--variant", variant])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GREEDY_JSON_SHA256[q, variant]


def test_one_parser_serves_every_call_in_a_process(capsys):
    parser = cli._parser()
    global_argv = ["construct", "--q", "27", "--method", "greedy", "--variant", "global"]
    plain_argv = ["construct", "--q", "27", "--method", "greedy"]
    for argv, key in ((global_argv, (27, "global")), (plain_argv, (27, "skew"))):
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GREEDY_JSON_SHA256[key]
    # a usage error leaves nothing behind for the next call
    hyper_argv = ["hypergraph", "--q", "9", "--s0-size", "4", "--seed", "3"]
    _, before = run(capsys, hyper_argv)
    assert run_error(capsys, ["construct", "--q", "27", "--method", "random",
                              "--variant", "global"]) == 2
    assert run_error(capsys, ["hypergraph", "--q", "9", "--s0-size", "1",
                              "--seed", "3"]) == 2
    _, after_error = run(capsys, hyper_argv)
    assert after_error == before
    code, out = run(capsys, plain_argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GREEDY_JSON_SHA256[27, "skew"]
    assert cli._parser() is parser


# sha256 of the `construct --method random` and `--method baer` JSON:
# q=25 seed 0 leaves Y=3 (odd), q=27 seed 7 Y=19, q=25 seed 3 Y=0;
# `--p 0` samples nothing (two startup points, Y=n) and q=9 seed 1
# at p=0.02 samples one point (one startup point, Y=n-1)
CONSTRUCT_JSON_SHA256 = {
    ("25", "random", "0", None): "7aa2aaf2947101b09a693d7804d02866b4531ba4accca691fea3374396fc4e00",
    ("27", "random", "7", None): "4ffe7c0e885b14063f5165f4da893643854ded159e05b801f7573cb1593025a3",
    ("25", "random", "3", None): "8dc3c9e41e414c5422c4b62c4acd3566428035e72f43c729df9314f24f4b0599",
    ("9", "random", "0", "0"): "a7de3d0afa67eecfc23159da12eefab07d24284a9cbea2f420802b5f9bfe1156",
    ("9", "random", "1", "0.02"): "05f394c73387ebe37ea22aa1a9463ee25dc93b75d0e714485ecbe649d9e5ca21",
    # above q = 64 the sample's secants fill more than one block of the covered mask
    ("256", "random", "1701", None): "50ce506fcf2eb4f751ee7cfd4d3ffcb3157c6b3355ee337abf1b0140547b75e4",
    ("128", "random", "0", "0.05"): "147d24384e6c2cb2bef3baa9376059c1a02ba5b63f22d020250c409c87d248fa",
    ("9", "baer", None, None): "1961530a6f4bfaa8dbcb3bf4638839b72b2ca76fcaffcfe354f0dd8bbd54f4fb",
    ("16", "baer", None, None): "abf6471529d6e41363c306113fb3ce0ec96bc2f1a8384b8d8b49b96a613a02b4",
    ("25", "baer", None, None): "9fffc72ee04936d823544708a1f45eb23220a78085627155174b76d3fbfca09a",
}


@pytest.mark.parametrize(("q", "method", "seed", "p"), list(CONSTRUCT_JSON_SHA256))
def test_construct_json_golden_digest(capsys, q, method, seed, p):
    argv = ["construct", "--q", q, "--method", method]
    argv += ["--seed", seed] if seed is not None else []
    argv += ["--p", p] if p is not None else []
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_JSON_SHA256[q, method, seed, p]


def test_construct_writes_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, ["construct", "--q", "2", "--method", "greedy",
                             "--output", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["size"] == 4


def test_construct_usage_errors(capsys, tmp_path):
    assert run_error(capsys, ["construct", "--method", "greedy"]) == 2
    assert run_error(capsys, ["construct", "--q", "9", "--method", "random"]) == 2
    assert run_error(capsys, ["construct", "--q", "5", "--method", "baer"]) == 2
    assert run_error(capsys, ["construct", "--q", "6", "--method", "greedy"]) == 2
    assert run_error(capsys, ["construct", "--q", "2", "--method", "greedy",
                              "--p", "0.5"]) == 2
    pl = canonical_plane(4)
    path = tmp_path / "p4.txt"
    save_plane(pl, path)
    assert run_error(capsys, ["construct", "--plane", str(path), "--q", "4",
                              "--method", "greedy"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--plane", str(path), "--method", "baer"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "satset: error: subfield subplanes need a canonical plane\n")


def test_construct_cap_needs_step_cap_and_the_starting_pair(capsys):
    greedy = ["construct", "--q", "7", "--method", "greedy"]
    for extra, message in (
            (["--cap", "3"], "--cap only applies with --stop-rule step-cap"),
            (["--stop-rule", "exhaust", "--cap", "3"],
             "--cap only applies with --stop-rule step-cap"),
            (["--stop-rule", "step-cap", "--cap", "-5"],
             "--cap must be >= 2 (the starting pair is always in), got -5"),
            (["--stop-rule", "step-cap", "--cap", "1"],
             "--cap must be >= 2 (the starting pair is always in), got 1")):
        with pytest.raises(SystemExit) as exc:
            main(greedy + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err[-1].endswith(message)
    code, out = run(capsys, greedy + ["--stop-rule", "step-cap", "--cap", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["stop_rule"] == "step-cap:2" and len(doc["trace"]) == 2


def test_variant_and_stop_rule_are_greedy_only(capsys):
    for argv, message in (
            (["construct", "--q", "7", "--method", "random", "--seed", "1",
              "--stop-rule", "exhaust", "--variant", "global"],
             "--variant only applies to --method greedy"),
            (["construct", "--q", "7", "--method", "random", "--seed", "1",
              "--stop-rule", "exhaust"], "--stop-rule only applies to --method greedy"),
            (["construct", "--q", "9", "--method", "baer", "--variant", "skew"],
             "--variant only applies to --method greedy"),
            (["construct", "--q", "9", "--method", "baer", "--cap", "3"],
             "--cap only applies to --method greedy")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().split("\n")[-1].endswith(message)


def test_construct_from_plane_file(capsys, tmp_path):
    path = tmp_path / "p3.txt"
    save_plane(canonical_plane(3), path)
    code, out = run(capsys, ["construct", "--plane", str(path),
                             "--method", "greedy"])
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_bounds_csv(capsys):
    code, out = run(capsys, ["bounds", "--q-list", "2,7,16"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,lower_bound,theorem_bound,greedy_size,random_mean_size"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert rows["7"][1].startswith("4.74165738")
    assert rows["7"][2] == "9"
    assert rows["16"][2] == "15"
    assert int(rows["7"][3]) <= 9
    assert rows["2"][4] == ""


def test_bounds_with_random_column(capsys):
    code, out = run(capsys, ["bounds", "--q-list", "5", "--random-trials", "4",
                             "--seed", "0"])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[4]) > 0


def test_bounds_rejects_negative_random_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--q-list", "3", "--random-trials", "-3", "--seed", "1"])
    assert exc.value.code == 2
    assert "--random-trials must be >= 0" in capsys.readouterr().err


def test_bounds_rejects_non_prime_power(capsys):
    assert run_error(capsys, ["bounds", "--q-list", "6"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["bounds", "--q-list", "3,,4"], "--q-list"),
    (["bounds", "--q-list", ""], "--q-list"),
    (["construct", "--q", "", "--method", "greedy"], "--q"),
])
def test_an_empty_order_is_named(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"satset: error: empty order in {flag}"


def test_verify_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    empty = tmp_path / "empty.txt"
    save_point_set({0, 4, 5, 6}, good)
    save_point_set({0, 4, 6}, bad)
    empty.write_text("")
    code, out = run(capsys, ["verify", "--q", "2", "--points", str(good)])
    assert code == 0 and "saturating" in out
    code, out = run(capsys, ["verify", "--q", "2", "--points", str(bad)])
    assert code == 1 and out.strip().split("\n")[-1] == "3"
    code, out = run(capsys, ["verify", "--q", "2", "--points", str(empty)])
    assert code == 1
    printed = [ln for ln in out.strip().split("\n") if ln.strip().isdigit()]
    assert printed == [str(v) for v in range(7)]


def test_verify_malformed_points(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("5\n3\n")
    assert run_error(capsys, ["verify", "--q", "2", "--points", str(path)]) == 2
    path.write_text("5\n900\n")
    assert run_error(capsys, ["verify", "--q", "2", "--points", str(path)]) == 2
    # int() reads the first two as 10 and 33, and str.strip() drops the
    # no-break and ideographic spaces; a point-set file does neither
    for bad in ("1_0", "\u0663\u0663", "\u00a05", "\u30006"):
        path.write_text(f"0\n{bad}\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "7", "--points", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load point set: line 2: expected a point index, got {bad!r}" in err


def test_verify_rejects_negative_index(capsys, tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("-1\n3\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--q", "2", "--points", str(path)])
    assert exc.value.code == 2
    assert "point index -1 outside [0, 7)" in capsys.readouterr().err
    # the smallest bad index is named, whichever side of [0, n) it lies on
    for text, bad in (("-3\n-1\n3\n9\n", -3), ("3\n7\n900\n", 7)):
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--q", "2", "--points", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot load point set: point index {bad} outside [0, 7)" in err


def test_mc_output(capsys):
    code, out = run(capsys, ["mc", "--q", "2", "--p", "0.5",
                             "--trials", "2000", "--seed", "7"])
    assert code == 0
    assert "formula=1.53125" in out
    fields = dict(tok.split("=") for tok in out.split() if "=" in tok)
    assert abs(float(fields["mean"]) - 1.53125) <= 5 * float(fields["stderr"])


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_mc_rejects_trial_counts_below_one(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--q", "2", "--trials", trials, "--seed", "1"])
    assert exc.value.code == 2
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_minsat_q2_and_cap(capsys):
    code, out = run(capsys, ["minsat", "--q", "2"])
    assert code == 0
    assert "minimum=4" in out
    assert run_error(capsys, ["minsat", "--q", "7"]) == 2    # 57 points > cap
    assert run_error(capsys, ["minsat", "--q", "2", "--force"]) == 2   # no override


def test_minsat_q5_is_under_the_cap(capsys):
    code, out = run(capsys, ["minsat", "--q", "5"])
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert fields["minimum"] == "6"
    witness = {int(v) for v in fields["witness"].split()}
    assert len(witness) == 6 and is_saturating(canonical_plane(5), witness)


def test_hypergraph_command(capsys):
    code, out = run(capsys, ["hypergraph", "--q", "9", "--s0-size", "4",
                             "--seed", "3"])
    assert code == 0
    assert "lemma_check=PASS" in out
    assert "saturating=True" in out
    # deterministic rerun
    _, out2 = run(capsys, ["hypergraph", "--q", "9", "--s0-size", "4",
                           "--seed", "3"])
    assert out == out2


# sha256 of the `hypergraph` stdout; q=25 seed 1701 has a collinear triple
# in s0 (m=462), seed 1702 is in general position (m=421; m=2070 at q=49)
HYPERGRAPH_SHA256 = {
    (9, 4, 3): "e6aa5f349ff4189a84bb8c4cf02789c5c8646db623d479cd958c6e40a0341767",
    (25, 5, 1701): "b8f74ad82b0906f7c5257ae64ef468eb4420a112146b65ce7a6c7d0e8dabf7de",
    (25, 5, 1702): "d27093add1c7bbc50199818e489f89997de8b3df79ba5e3581c717eafd6ce4b2",
    (49, 5, 1702): "281e00fd4b76126b3389c2c73a2b9e755bad6707947fe0464d65d3073523a06c",
}


@pytest.mark.parametrize(("q", "s0_size", "seed"), list(HYPERGRAPH_SHA256))
def test_hypergraph_golden_digest(capsys, q, s0_size, seed):
    code, out = run(capsys, ["hypergraph", "--q", str(q), "--s0-size", str(s0_size),
                             "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HYPERGRAPH_SHA256[q, s0_size, seed]


def test_hypergraph_first_pick_meets_the_double_count_floor(capsys):
    # over any edge H, the degrees of H's vertices sum to at least
    # r + t(m-1), so the first pick covers 1 + ceil(t(m-1)/r) edges or more
    for q in (2, 3, 4, 5, 7):
        for s0_size in (2, 3, 4):
            for seed in range(4):
                code, out = run(capsys, ["hypergraph", "--q", str(q), "--s0-size",
                                         str(s0_size), "--seed", str(seed)])
                assert code == 0, out
                fields = dict(tok.split("=", 1) for tok in out.split() if "=" in tok)
                if "floor" not in fields:        # m < 2: no bound to meet
                    continue
                m, r, t = int(fields["m"]), int(fields["r"]), int(fields["t"])
                assert int(fields["floor"]) == 1 + math.ceil(t * (m - 1) / r)
                assert int(fields["first_pick_degree"]) >= int(fields["floor"])
                assert int(fields["transversal_size"]) <= int(fields["bound"])


def test_plane_gen_and_check(capsys, tmp_path):
    path = tmp_path / "p5.txt"
    code, _ = run(capsys, ["plane", "gen", "--q", "5", "--file", str(path)])
    assert code == 0
    code, out = run(capsys, ["plane", "check", "--file", str(path)])
    assert code == 0 and "OK" in out
    # the order is the file's: check refuses --q rather than ignore it
    with pytest.raises(SystemExit) as exc:
        main(["plane", "check", "--q", "3", "--file", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "satset: error: --q only applies to plane gen"
    # corrupt an incidence: axiom failure exits 1
    text = path.read_text().split("\n")
    row = text[2].split(" ")
    row[0], row[1] = row[1], row[0]
    text[2] = " ".join(row)
    path.write_text("\n".join(text))
    code, out = run(capsys, ["plane", "check", "--file", str(path)])
    assert code == 1
    assert out == "axiom failure: ascending: line 0 is not strictly ascending\n"
    # a file it cannot read or parse exits 2, named as --plane names it
    for text, message in (("garbage\n", "plane file is missing its header"),
                          ("PLANE v1\nq=three\n", "bad order line 'q=three'"),
                          (None, "No such file or directory")):
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["plane", "check", "--file", str(path)])
        assert exc.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("satset: error: cannot load plane file: ")
        assert message in error


def test_a_plane_file_loads_through_a_pipe(tmp_path):
    # /dev/stdin is the pipe the text is fed through, which cannot seek
    path = tmp_path / "p3.txt"
    save_plane(canonical_plane(3), path)
    text = path.read_text()
    result = run_process(["plane", "check", "--file", "/dev/stdin"], text, timeout=60)
    assert (result.returncode, result.stdout) == (0, "plane file OK: q=3 n=13\n")
    points = tmp_path / "pts.txt"
    save_point_set(cli.saturation.greedy_construct(canonical_plane(3))[0], points)
    by_path = run_process(["verify", "--plane", str(path), "--points", str(points)], timeout=60)
    by_pipe = run_process(["verify", "--plane", "/dev/stdin", "--points", str(points)], text,
                          timeout=60)
    assert by_path.returncode == by_pipe.returncode == 0
    assert by_path.stdout == by_pipe.stdout
    assert by_pipe.stdout.startswith("saturating: size=")


# name: (argv, the text of its FILE argument); each error echoes a 300-digit value
LONG = "9" * 300
LONG_VALUES = {
    "--seed below 0": (["mc", "--q", "3", "--trials", "2", "--seed", "-" + LONG], None),
    "--seed not an int": (["mc", "--q", "3", "--trials", "2", "--seed", "x" + LONG], None),
    "--cap not an int": (["construct", "--q", "3", "--method", "greedy", "--stop-rule",
                          "step-cap", "--cap", "x" + LONG], None),
    "--cap below 2": (["construct", "--q", "3", "--method", "greedy", "--stop-rule",
                       "step-cap", "--cap", "-" + LONG], None),
    "--trials": (["mc", "--q", "3", "--trials", "x" + LONG, "--seed", "0"], None),
    "--random-trials": (["bounds", "--q-list", "3", "--random-trials", "x" + LONG], None),
    "--s0-size": (["hypergraph", "--q", "3", "--s0-size", "x" + LONG, "--seed", "0"], None),
    "mc --p": (["mc", "--q", "3", "--trials", "2", "--seed", "0", "--p", "x" + LONG], None),
    "construct --p": (["construct", "--q", "3", "--method", "random", "--seed", "0",
                       "--p", "x" + LONG], None),
    "negative --q": (["construct", "--q", "-" + LONG, "--method", "greedy"], None),
    "negative --q-list entry": (["bounds", "--q-list", "3,-" + LONG], None),
    "negative plane gen --q": (["plane", "gen", "--q", "-" + LONG, "--file", "FILE"], None),
    "order line below 2": (["plane", "check", "--file", "FILE"], f"PLANE v1\nq=-{LONG}\n"),
    "point index": (["verify", "--q", "3", "--points", "FILE"], LONG + "\n"),
    "mc --trials count": (["mc", "--q", "2", "--trials", LONG, "--seed", "0"], None),
    "--method choice": (["construct", "--q", "3", "--method", "x" + LONG], None),
    "command": (["x" + LONG], None),
}


@pytest.mark.parametrize("name", LONG_VALUES)
def test_long_values_are_cut_in_the_error(capsys, tmp_path, name):
    argv, text = LONG_VALUES[name]
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([str(path) if arg == "FILE" else arg for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == [err.splitlines()[-1]] and "Traceback" not in err
    assert "9" * 30 + "..." in errors[0] and len(errors[0].encode()) < 120


@pytest.mark.parametrize("argv", [
    ["construct", "--q", "3", "--method", "x"],
    ["x"],
    ["plane", "x" * 37, "--file", "FILE"],
])
def test_short_refused_choices_keep_argparses_message(capsys, monkeypatch, argv):
    errors = []
    for check in (cli._Parser._check_value, argparse.ArgumentParser._check_value):
        monkeypatch.setattr(cli._Parser, "_check_value", check)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "(choose from " in errors[0]


# name: (file text, the command that reads it)
LONG_LINES = {
    "order line": ("PLANE v1\nq=7" + " 1" * 100_000 + "\n", ["plane", "check", "--file"]),
    "header": ("X" * 100_000 + "\nq=3\n", ["plane", "check", "--file"]),
    "point line": ("7" * 100_000 + "x\n", ["verify", "--q", "3", "--points"]),
}


@pytest.mark.parametrize("name", LONG_LINES)
def test_long_input_lines_are_cut_in_the_error(capsys, tmp_path, name):
    text, command = LONG_LINES[name]
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(command + [str(path)])
    assert exc.value.code == 2
    usage, *errors = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ") and len(errors) == 1
    assert errors[0].startswith("satset: error: ") and errors[0].endswith("...")
    assert len(errors[0].encode()) <= 200


# the order is the last argument; 5,000 digits are more than int()
# converts, and a 3,002-digit order's table size has more than str() writes
LONG_ORDERS = {
    "1,002 digits": ["construct", "--method", "greedy", "--q", "9" * 1002],
    "3,002 digits": ["construct", "--method", "greedy", "--q", "9" * 3002],
    "5,000 digits": ["construct", "--method", "greedy", "--q", "9" * 5000],
    "q-list entry": ["bounds", "--q-list", "3," + "x" * 50_000],
    "order line": ["plane", "check", "--file", "9" * 3002],   # written to the file
}


@pytest.mark.parametrize("name", LONG_ORDERS)
def test_long_orders_are_cut_in_the_error(capsys, tmp_path, name):
    argv = list(LONG_ORDERS[name])
    order = argv[-1].split(",")[-1]
    if argv[0] == "plane":
        argv[-1] = str(tmp_path / "plane.txt")
        Path(argv[-1]).write_text(f"PLANE v1\nq={order}\n")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    usage, *errors = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: ") and len(errors) == 1
    assert errors[0].startswith("satset: error: ") and order[:40] + "..." in errors[0]
    assert len(errors[0].encode()) <= 200


@pytest.mark.parametrize("argv", [
    ["hypergraph", "--q", "5", "--s0-size", "3", "--seed", "-1"],
    ["mc", "--q", "3", "--trials", "2", "--seed", "-1"],
    ["bounds", "--q-list", "3", "--random-trials", "1", "--seed", "-1"],
    ["construct", "--q", "3", "--method", "random", "--seed", "-1"],
])
def test_negative_seed_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: seed must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["plane", "gen", "--q", "2048", "--file", "unused.txt"],
    ["construct", "--q", "2048", "--method", "greedy"],
])
def test_order_above_table_cap_rejected(capsys, argv):
    # refused by the byte ceiling before any field or plane is built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert ("PG(2,2048) needs a 32800 MiB incidence table, above the 2048 MiB ceiling"
            in capsys.readouterr().err)


def run_process(argv, stdin=None, timeout=10):
    """The CLI in a subprocess of its own, `stdin` (if given) fed to it through a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "satset.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])})


@pytest.mark.parametrize("q", ["1031", str(2**61 - 1)])
def test_over_ceiling_order_refused_before_factoring(q):
    # a subprocess with a timeout: trial division of 2^61-1 would hang, not fail
    result = run_process(["construct", "--q", q, "--method", "greedy"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert re.search(rf"error: PG\(2,{q}\) needs a \d+ MiB incidence table, "
                     r"above the 2048 MiB ceiling$", result.stderr)


@pytest.mark.parametrize("argv", [
    ["construct", "--q", "3", "--method", "greedy", "--output"],
    ["bounds", "--q-list", "3", "--output"],
    ["plane", "gen", "--q", "3", "--file"],
])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(tmp_path / "missing" / "out.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("satset: error: cannot write")


DESTINATION_ARGV = [
    ["construct", "--q", "3", "--method", "greedy", "--output"],
    ["bounds", "--q-list", "3", "--output"],
    ["plane", "gen", "--q", "3", "--file"],
]


@pytest.mark.parametrize("argv", DESTINATION_ARGV)
@pytest.mark.parametrize("where", ["missing parent", "parent is a file", "a directory"])
def test_unwritable_destination_refused_before_any_plane(monkeypatch, capsys, tmp_path,
                                                         argv, where):
    def unreachable(q):
        raise AssertionError("a plane was built")

    monkeypatch.setattr(cli, "canonical_plane", unreachable)
    (tmp_path / "file").write_text("kept\n")
    dest = {"missing parent": tmp_path / "missing" / "out.txt",
            "parent is a file": tmp_path / "file" / "out.txt",
            "a directory": tmp_path}[where]
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(dest)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"satset: error: cannot write {'plane file' if argv[0] == 'plane' else 'output'}: "
        f"{dest} is not a file in an existing directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv", DESTINATION_ARGV)
def test_destination_checked_without_touching_it(capsys, tmp_path, argv):
    # a refused order still leaves an existing destination as it was
    dest = tmp_path / "out.txt"
    dest.write_text("kept\n")
    bad_order = [v if v != "3" else "6" for v in argv]
    with pytest.raises(SystemExit) as exc:
        main(bad_order + [str(dest)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "satset: error: 6 is not a prime power"
    assert dest.read_text() == "kept\n"


@pytest.mark.parametrize("argv", DESTINATION_ARGV)
def test_write_failure_a_look_cannot_see_is_still_a_usage_error(capsys, tmp_path, argv):
    # a dangling link in an existing directory passes the early check
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "out.txt")
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(link)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("satset: error: cannot write")
    assert "No such file or directory" in err


@pytest.mark.parametrize("owner,name,argv", [
    (cli, "factor_prime_power", ["construct", "--q", "3", "--method", "greedy"]),
    (cli.saturation, "random_construct", ["construct", "--q", "3", "--method", "random",
                                          "--seed", "1"]),
    (cli.baer, "baer_subplane", ["construct", "--q", "4", "--method", "baer"]),
    (cli.saturation, "minsat_bruteforce", ["minsat", "--q", "2"]),
    (cli.hypergraph, "saturation_family", ["hypergraph", "--q", "3", "--s0-size", "2",
                                           "--seed", "0"]),
    (cli.saturation, "greedy_construct", ["construct", "--q", "3", "--method", "greedy"]),
])
def test_main_is_the_one_failure_boundary(monkeypatch, capsys, owner, name, argv):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, fail)
    error = ValueError("boom")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "satset: error: boom"
    error = cli.saturation.VerificationError("recount failed")
    assert main(argv) == 1
    assert capsys.readouterr().err == "satset: recount failed\n"


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--q-list", "3,5", "--random-trials", "2"],
     "--seed is required with --random-trials"),
    (["mc", "--q", "3", "--trials", "2", "--seed", "0", "--p", "1.5"],
     "--p must lie in [0, 1], got 1.5"),
    (["mc", "--q", "3", "--trials", "2", "--seed", "0", "--p", "-0.25"],
     "--p must lie in [0, 1], got -0.25"),
    (["hypergraph", "--q", "3", "--s0-size", "1", "--seed", "0"],
     "--s0-size must be >= 2"),
    (["mc", "--q", "3", "--trials", "100000000000000", "--seed", "0", "--p", "0"],
     "100000000000000 trials need 762939453 MiB of samples, above the 2048 MiB ceiling"),
    (["bounds", "--q-list", "3", "--random-trials", str((1 << 28) + 1), "--seed", "0"],
     "268435457 trials need 2048 MiB of samples, above the 2048 MiB ceiling"),
])
def test_plane_free_checks_run_before_any_plane(monkeypatch, capsys, argv, message):
    def unreachable(q):
        raise AssertionError("a plane was built")

    monkeypatch.setattr(cli, "canonical_plane", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"satset: error: {message}"


@pytest.mark.parametrize("argv,message", [
    (["construct", "--q", "1_6", "--method", "greedy"], "satset: error: 1_6 is not a prime power"),
    (["construct", "--q", "\u0663", "--method", "greedy"],
     "satset: error: \u0663 is not a prime power"),
    (["construct", "--q", " 3", "--method", "greedy"], "satset: error:  3 is not a prime power"),
    (["bounds", "--q-list", "2, 1_6"], "satset: error: 1_6 is not a prime power"),
    (["mc", "--q", "2", "--trials", "10", "--seed", "0_1"],
     "satset mc: error: argument --seed: invalid int value: '0_1'"),
    (["mc", "--q", "2", "--trials", "\u0661\u0660", "--seed", "1"],
     "satset mc: error: argument --trials: invalid int value: '\u0661\u0660'"),
    (["construct", "--q", "3", "--method", "greedy", "--stop-rule", "step-cap", "--cap", "1_0"],
     "satset construct: error: argument --cap: invalid int value: '1_0'"),
    (["bounds", "--q-list", "2", "--random-trials", "1\t", "--seed", "1"],
     "satset bounds: error: argument --random-trials: invalid int value: '1\\t'"),
    (["hypergraph", "--q", "3", "--s0-size", "+3", "--seed", "1" * 5000],
     "satset hypergraph: error: argument --seed: invalid int value: '" + "1" * 39 + "..."),
])
def test_integer_flags_take_ascii_decimal_tokens(capsys, argv, message):
    # int() reads each refused token (1_6 as 16, the Arabic-Indic digits as 3 and 10)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.splitlines()[-1] == message and len(message) < 120


@pytest.mark.parametrize("method", ["greedy", "baer"])
def test_seed_only_applies_to_the_random_method(capsys, method):
    # it was taken and reported as "seed": null
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--q", "9", "--method", method, "--seed", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "satset: error: --seed only applies to --method random"


def test_a_row_token_past_int_s_digit_limit_exits_1_from_plane_check(capsys, tmp_path):
    path = tmp_path / "p3.txt"
    save_plane(canonical_plane(3), path)
    text = path.read_text().split("\n")
    text[2] = "9 10 11 " + "9" * 5000
    path.write_text("\n".join(text))
    code, out = run(capsys, ["plane", "check", "--file", str(path)])
    assert code == 1
    assert out == "axiom failure: point index: line 0 has an index outside [0, 13)\n"


@pytest.mark.parametrize("argv,message", [
    (["hypergraph", "--q", "2", "--s0-size", "8", "--seed", "0"], "--s0-size cannot exceed 7"),
    (["plane", "gen", "--file", "unused.txt"], "plane gen needs --q"),
])
def test_refusals_after_the_flags_parse(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"satset: error: {message}"


ORDERS = st.sampled_from(["2", "3", "4", "5", "7", "1031"])
SEEDS = st.integers(-5, 50).map(str)
COUNTS = st.integers(-3, 5).map(str)


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["construct", "mc", "bounds", "hypergraph", "minsat"]))
    q = draw(ORDERS)
    if command == "construct":
        argv = ["construct", "--q", q, "--method",
                draw(st.sampled_from(["greedy", "random", "baer"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(SEEDS)]
        return argv
    if command == "mc":
        return ["mc", "--q", q, "--trials", draw(COUNTS), "--seed", draw(SEEDS)]
    if command == "bounds":
        argv = ["bounds", "--q-list", q, "--random-trials", draw(COUNTS)]
        if draw(st.booleans()):
            argv += ["--seed", draw(SEEDS)]
        return argv
    if command == "minsat":
        return ["minsat", "--q", q]
    return ["hypergraph", "--q", q, "--s0-size", draw(COUNTS), "--seed", draw(SEEDS)]


@settings(max_examples=60, deadline=None)
@given(fuzz_argv())
def test_argv_fuzz_exit_codes(argv):
    # an exception other than SystemExit is what prints a traceback
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in stderr.getvalue(), argv
