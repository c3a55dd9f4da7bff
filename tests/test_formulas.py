import decimal
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import mpmath
import pytest

import satset
from oracles import undetermined_count
from satset.formulas import (_precise_ceil, contraction_product, default_step_cap,
                             expected_unsaturated, expected_unsaturated_main_term,
                             lunelli_sce_bound, sampling_probability,
                             theorem_bound)
from satset.plane import canonical_plane


def test_sampling_probability_values():
    # oracle: 50-digit evaluation
    for q in (2, 3, 7, 121):
        with mpmath.workdps(50):
            exact = mpmath.sqrt(3 * q * mpmath.log(q)) / (q * q + q + 1)
        assert sampling_probability(q) == pytest.approx(float(exact), rel=1e-14)
    assert sampling_probability(3) == pytest.approx(0.24188, abs=5e-6)
    assert sampling_probability(2) == pytest.approx(0.29133, abs=5e-6)


def test_sampling_probability_monotone():
    prev = sampling_probability(3)
    qs = list(range(4, 3000)) + [2**k for k in range(12, 21)]
    for q in qs:
        cur = sampling_probability(q)
        assert cur < prev
        prev = cur


def test_sampling_probability_rejects_small_q():
    with pytest.raises(ValueError):
        sampling_probability(1)


def test_expected_unsaturated_fano_exact():
    assert expected_unsaturated(2, 0.5) == pytest.approx(1.53125, abs=1e-12)
    # independent oracle: exact rational enumeration over all 2^7 subsets
    pl = canonical_plane(2)
    for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        total = Fraction(0)
        for size in range(8):
            for combo in combinations(range(7), size):
                total += (p**size * (1 - p)**(7 - size)
                          * undetermined_count(pl, combo))
        assert expected_unsaturated(2, float(p)) == pytest.approx(
            float(total), abs=1e-12)


def test_expected_unsaturated_boundaries():
    for q in (2, 5, 9):
        n = q * q + q + 1
        assert expected_unsaturated(q, 0.0) == n
        assert expected_unsaturated(q, 1 - 1e-6) < 1e-6
    with pytest.raises(ValueError):
        expected_unsaturated(3, 1.0)
    with pytest.raises(ValueError):
        expected_unsaturated(3, -0.1)


def test_expected_unsaturated_no_underflow_at_large_q():
    # the direct product (1-p)^n underflows around q ~ 1000; log space must not
    q = 1024
    value = expected_unsaturated(q, sampling_probability(q))
    assert 0 < value < q * q


def test_expected_unsaturated_and_main_term_against_high_precision_oracle():
    # oracle: 50-digit product formula and main term at the same float p
    for q in (121, 256, 1024, 3329, 4096, 2**16, 2**20):
        p = sampling_probability(q)
        n = q * q + q + 1
        with mpmath.workdps(50):
            mp_p = mpmath.mpf(p)
            y = mp_p / (1 - mp_p)
            exact = n * (1 - mp_p)**n * (y + (1 + q * y)**(q + 1))
            main = n * mpmath.exp(-q * (q * q - 1) * mp_p**2 / 2)
        assert expected_unsaturated(q, p) == pytest.approx(float(exact),
                                                           rel=1e-11)
        assert expected_unsaturated_main_term(q, p) == pytest.approx(
            float(main), rel=1e-11)


def test_main_term():
    for q in (2, 7, 121):
        assert expected_unsaturated_main_term(q, 0.0) == q * q + q + 1
    v = expected_unsaturated_main_term(121, sampling_probability(121))
    assert v == pytest.approx(12.5, abs=0.05)


def test_lunelli_sce_bound():
    assert lunelli_sce_bound(2) == 3.0
    assert lunelli_sce_bound(8) == 5.0
    assert lunelli_sce_bound(3) == pytest.approx(1 + math.sqrt(6), rel=1e-15)


def test_theorem_bound_frozen_values():
    assert theorem_bound(7) == 9
    assert theorem_bound(16) == 15
    assert theorem_bound(9) == 10
    assert theorem_bound(2) == 5
    assert theorem_bound(121) == 48
    assert theorem_bound(169) == 58


def test_theorem_bound_against_high_precision_oracle():
    for q in (2, 3, 4, 5, 8, 27, 32, 64, 128, 1024, 2**20):
        with mpmath.workdps(60):
            expect = int(mpmath.ceil(mpmath.sqrt(3 * q * mpmath.log(q)))
                         + mpmath.ceil((mpmath.sqrt(q) + 1) / 2))
        assert theorem_bound(q) == expect


NO_MPMATH_SCRIPT = """
import contextlib, io, os, sys
from satset import formulas
from satset.cli import main
tmp = sys.argv[1]
plane, points = os.path.join(tmp, "plane.txt"), os.path.join(tmp, "points.txt")
with open(points, "w") as f:
    f.write("0\\n1\\n")
for argv in (["construct", "--q", "4", "--method", "greedy"],
             ["construct", "--q", "4", "--method", "greedy", "--stop-rule", "step-cap"],
             ["construct", "--q", "5", "--method", "random", "--seed", "1"],
             ["construct", "--q", "4", "--method", "baer"],
             ["bounds", "--q-list", "4,9", "--random-trials", "1", "--seed", "1"],
             ["verify", "--q", "3", "--points", points],
             ["mc", "--q", "3", "--trials", "10", "--seed", "1"],
             ["minsat", "--q", "2"],
             ["hypergraph", "--q", "9", "--s0-size", "4", "--seed", "3"],
             ["plane", "gen", "--q", "3", "--file", plane],
             ["plane", "check", "--file", plane]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code, "mpmath" in sys.modules)
# sqrt(10^40 + 1) is 10^20 in floats: the ceiling is resolved in decimal
print(formulas._precise_ceil(lambda ns: ns.sqrt(10**40 + 1)), "mpmath" in sys.modules)
"""


def test_mpmath_is_never_imported(tmp_path):
    src = str(Path(satset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_MPMATH_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split("\n") == [
        "construct 0 False", "construct 0 False", "construct 0 False",
        "construct 0 False", "bounds 0 False", "verify 1 False", "mc 0 False",
        "minsat 0 False", "hypergraph 0 False", "plane 0 False", "plane 0 False",
        f"{10**20 + 1} False", ""]


def test_near_integer_ceiling_is_resolved_at_50_digits():
    # floats round all three to an integer; 28 digits would lose 10^40 + 1 too
    assert _precise_ceil(lambda ns: ns.sqrt(10**16 + 1)) == 10**8 + 1
    assert _precise_ceil(lambda ns: ns.sqrt(10**40 + 1)) == 10**20 + 1
    assert _precise_ceil(lambda ns: ns.sqrt(4) * ns.log(1)) == 0
    assert decimal.getcontext().prec == 28     # the caller's context is untouched


def test_step_cap_and_theorem_bound_against_high_precision_oracle():
    for q in range(2, 1500):
        with mpmath.workdps(60):
            head = int(mpmath.ceil(mpmath.sqrt(3 * q * mpmath.log(q))))
            tail = int(mpmath.ceil((mpmath.sqrt(q) + 1) / 2))
        assert (default_step_cap(q), theorem_bound(q)) == (head, head + tail), q


def test_default_step_cap_matches_bound_head():
    for q in (5, 9, 25, 121):
        with mpmath.workdps(50):
            expect = int(mpmath.ceil(mpmath.sqrt(3 * q * mpmath.log(q))))
        assert default_step_cap(q) == expect


def test_contraction_product_exact_values():
    # q=9, k=8: (10*9*...*3) / 11^8
    assert contraction_product(9, 8) == pytest.approx(
        float(Fraction(1814400, 214358881)), rel=1e-15)
    assert contraction_product(4, 5) == pytest.approx(
        float(Fraction(120, 7776)), rel=1e-15)
    for q in (3, 8, 13):
        assert contraction_product(q, 0) == 1.0


def test_contraction_product_oracle():
    for q, k in ((5, 3), (7, 7), (11, 12), (32, 20)):
        expect = Fraction(1)
        for i in range(1, k + 1):
            expect *= Fraction(q + 2 - i, q + 2)
        assert contraction_product(q, k) == pytest.approx(float(expect), rel=1e-13)


def test_contraction_product_range_checked():
    with pytest.raises(ValueError):
        contraction_product(5, -1)
    with pytest.raises(ValueError):
        contraction_product(5, 7)
