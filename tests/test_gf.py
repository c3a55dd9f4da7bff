import time

import numpy as np
import pytest

from satset import gf
from satset.gf import (ORDER_CAP, GaloisField, factor_prime_power, field_for_order,
                       is_prime, subfield_elements)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(128) == (2, 7)
    assert factor_prime_power(169) == (13, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        GaloisField(4, 1)          # not prime
    with pytest.raises(ValueError):
        GaloisField(2, 0)
    with pytest.raises(ValueError):
        GaloisField(2, 21)         # above the order cap


def test_canonical_irreducibles():
    # only monic irreducible quadratic over GF(2)
    assert GaloisField(2, 2).irreducible == (1, 1, 1)
    # exhaustive oracle for GF(9): smallest-encoding monic quadratic
    # without a root (degree 2, so root-freeness = irreducibility)
    best = None
    for enc in range(9):
        c, b = enc % 3, enc // 3
        if all((t * t + b * t + c) % 3 != 0 for t in range(3)):
            best = (c, b, 1)
            break
    f9 = GaloisField(3, 2)
    assert f9.irreducible == best == (1, 0, 1)
    assert GaloisField(5, 1).irreducible is None


def test_spec_arithmetic_values():
    f4 = GaloisField(2, 2).tables
    assert f4["add"][1, 1] == 0
    assert f4["add"][2, 3] == 1
    assert f4["mul"][2, 2] == 3
    assert f4["inv"][2] == 3
    f5 = GaloisField(5, 1).tables
    assert f5["add"][3, 4] == 2
    assert f5["mul"][2, 4] == 3
    assert f5["inv"][2] == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 64])
def test_field_axioms_exhaustive(q):
    tables = field_for_order(q).tables
    add, neg, mul, inv = (tables[k] for k in ("add", "neg", "mul", "inv"))
    a = np.arange(q)
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[:, 0] == a).all() and (mul[:, 1] == a).all()
    assert (add[a, neg] == 0).all()
    assert (mul[a[1:], inv[1:]] == 1).all()
    power = np.ones(q - 1, dtype=np.int32)      # a^(q-1) for every a != 0
    for _ in range(q - 1):
        power = mul[power, a[1:]]
    assert (power == 1).all()
    # associativity/distributivity on a coarser grid to keep q=64 quick
    grid = np.arange(0, q, max(1, q // 16))
    x, y, z = np.ix_(grid, grid, grid)
    assert (mul[mul[x, y], z] == mul[x, mul[y, z]]).all()
    assert (add[add[x, y], z] == add[x, add[y, z]]).all()
    assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all()


def test_every_field_up_to_the_order_cap_is_tabled():
    # the largest field is tabled like every other; above it none is built
    f = GaloisField(2, 10)
    assert f.q == ORDER_CAP == 1024
    assert f.tables["add"].shape == f.tables["mul"].shape == (1024, 1024)
    a, b = 1000, 987
    assert f.tables["mul"][a, b] == f._raw_mul(a, b)
    assert f.tables["add"][a, b] == f._raw_add(a, b)
    assert f.tables["inv"][a] == f._raw_pow(a, f.q - 2)
    assert f._raw_pow(a, f.q - 1) == 1
    for p, e in ((2, 11), (3, 7)):
        with pytest.raises(ValueError, match=f"field order {p**e} exceeds cap 1024"):
            GaloisField(p, e)


def test_huge_order_refused_before_factoring(monkeypatch):
    # trial division of the Mersenne prime 2^61-1 would take hours
    def unreachable(q):
        raise AssertionError("the order was factored")

    monkeypatch.setattr(gf, "factor_prime_power", unreachable)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds cap 1024"):
        field_for_order(2**61 - 1)
    assert time.perf_counter() - start < 1.0


def test_public_tables_are_read_only_int32_and_match_the_scalar_ops():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field_for_order(q)
        for name in ("add", "neg", "mul", "inv"):
            table = f.tables[name]
            assert table.dtype == np.int32 and not table.flags.writeable
        elems = range(q)
        assert f.tables["add"].tolist() == [[f._raw_add(a, b) for b in elems] for a in elems]
        assert f.tables["mul"].tolist() == [[f._raw_mul(a, b) for b in elems] for a in elems]
        assert f.tables["neg"].tolist() == [f._raw_neg(a) for a in elems]
        # 0 has no inverse: inv[0] is a placeholder 0
        assert f.tables["inv"].tolist() == [0] + [f._raw_pow(a, q - 2) for a in elems[1:]]


@pytest.mark.parametrize("q,s", [(4, 2), (9, 3), (16, 4), (25, 5), (81, 9)])
def test_subfield_elements(q, s):
    f = field_for_order(q)
    sub = subfield_elements(f, s)
    assert len(sub) == s
    assert sub == sorted(sub)
    assert 0 in sub and 1 in sub
    assert all(f._raw_pow(x, s) == x for x in sub)
    pairs = np.ix_(sub, sub)
    assert np.isin(f.tables["add"][pairs], sub).all()
    assert np.isin(f.tables["mul"][pairs], sub).all()


# every s whose square is a field order up to the cap: the prime powers s <= 32
SUBFIELD_ORDERS = [s for s in range(2, 33)
                   if len({d for d in range(2, s + 1) if s % d == 0 and is_prime(d)}) == 1]


@pytest.mark.parametrize("s", SUBFIELD_ORDERS)
def test_subfield_elements_match_the_raw_power_oracle(s):
    f = field_for_order(s * s)
    assert subfield_elements(f, s) == [x for x in range(f.q) if f._raw_pow(x, s) == x]


def test_subfield_prime_subfields():
    assert subfield_elements(GaloisField(2, 2), 2) == [0, 1]
    assert subfield_elements(GaloisField(3, 2), 3) == [0, 1, 2]


def test_subfield_rejects_non_square():
    with pytest.raises(ValueError):
        subfield_elements(GaloisField(2, 3), 2)
    with pytest.raises(ValueError):
        subfield_elements(GaloisField(3, 2), 4)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13}
    assert {n for n in range(15) if is_prime(n)} == primes
