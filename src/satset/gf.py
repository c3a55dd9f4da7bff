"""GF(p^e) as four lookup tables over integer-encoded elements.

An element is an index in [0, q) whose base-p digits (c_0, ..., c_{e-1})
are the coefficients of c_0 + c_1*x + ... + c_{e-1}*x^(e-1).  Index 0 is
the additive identity and index 1 the multiplicative identity.  For e > 1
products are reduced modulo a canonical irreducible polynomial, chosen as
the monic irreducible of degree e whose non-leading coefficient vector
encodes to the smallest integer sum(c_j * p^j).  That choice makes every
derived index (points of PG(2,q), subfields, constructions) reproducible.

A field is its read-only "add", "neg", "mul" and "inv" tables, which the
plane builder indexes in bulk; it has no scalar ops.  `_raw_mul` and
`_raw_pow` build tables; `_raw_add` and `_raw_neg` are test oracles alone.
"""

from __future__ import annotations

import numpy as np

ORDER_CAP = 1024           # largest field order p^e: 8 MiB of q x q tables


def _smallest_factor(n: int) -> int:
    """The smallest prime factor of n >= 2, by trial division."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _smallest_factor(n) == n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, p prime; raise ValueError otherwise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _smallest_factor(q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); coefficient lists low-to-high degree
# ---------------------------------------------------------------------------

def _digits(index: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(index % p)
        index //= p
    return out


def _undigits(coeffs, p: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, m, p):
    """Remainder of a modulo monic m."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _is_irreducible(m, p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= deg/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + [1]
            if not any(_poly_rem(m, div, p)):
                return False
    return True


def _canonical_irreducible(p: int, e: int) -> tuple[int, ...]:
    for enc in range(p**e):
        cand = _digits(enc, p, e) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {e} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

class GaloisField:
    """GF(p^e), q = p^e <= ORDER_CAP, with integer-encoded elements.

    `tables` holds full read-only int32 "add", "neg", "mul" and "inv"
    arrays indexed by element; `inv[0]` is a placeholder 0.  They are the
    whole interface: the class has no public method.
    """

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ValueError(f"e={e} must be >= 1")
        q = p**e
        if q > ORDER_CAP:        # before the trial division of p
            raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        self.irreducible = _canonical_irreducible(p, e) if e > 1 else None
        self.tables = self._build_tables()

    def __repr__(self):
        return f"GaloisField(p={self.p}, e={self.e})"

    # -- raw arithmetic on polynomials: table builder and test oracle --

    def _raw_add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da = _digits(a, self.p, self.e)
        db = _digits(b, self.p, self.e)
        return _undigits([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _raw_neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return _undigits([(-c) % self.p for c in _digits(a, self.p, self.e)], self.p)

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul(_digits(a, self.p, self.e), _digits(b, self.p, self.e), self.p)
        return _undigits(_poly_rem(prod, self.irreducible, self.p), self.p)

    def _raw_pow(self, a: int, k: int) -> int:
        result = 1
        base = a
        while k:
            if k & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            k >>= 1
        return result

    def _generator(self) -> int:
        """Smallest multiplicative generator of GF(q)*."""
        order = self.q - 1
        factors, m = [], order
        while m > 1:
            factors.append(d := _smallest_factor(m))
            while m % d == 0:
                m //= d
        for g in range(2, self.q):
            if all(self._raw_pow(g, order // f) != 1 for f in factors):
                return g
        return 1  # q = 2

    def _build_tables(self) -> dict[str, np.ndarray]:
        p, e, q = self.p, self.e, self.q
        idx = np.arange(q, dtype=np.int64)
        dig = np.empty((q, e), dtype=np.int64)
        rem = idx.copy()
        for j in range(e):
            dig[:, j] = rem % p
            rem //= p
        weights = p ** np.arange(e, dtype=np.int64)
        add = ((dig[:, None, :] + dig[None, :, :]) % p) @ weights
        neg = ((-dig) % p) @ weights
        # exp/log via a generator gives O(1) products and inverses
        exp = np.empty(q - 1, dtype=np.int64)
        g = self._generator()
        x = 1
        for k in range(q - 1):
            exp[k] = x
            x = self._raw_mul(x, g)
        log = np.empty(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        log[0] = -1
        mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
        mul[0, :] = 0
        mul[:, 0] = 0
        inv = np.zeros(q, dtype=np.int64)
        inv[exp] = exp[(-np.arange(q - 1)) % (q - 1)]
        tables = {}
        for name, table in (("add", add), ("neg", neg), ("mul", mul), ("inv", inv)):
            tables[name] = table.astype(np.int32)
            tables[name].setflags(write=False)
        return tables


def field_for_order(q: int) -> GaloisField:
    """Construct GF(q) for a prime power q; an order above the cap is refused unfactored."""
    if q > ORDER_CAP:
        raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
    p, e = factor_prime_power(q)
    return GaloisField(p, e)


def subfield_elements(field: GaloisField, s: int) -> list[int]:
    """The s elements of the subfield GF(s) inside GF(q), q = s^2.

    These are exactly the fixed points of x -> x^s, returned in ascending
    index order; the set is closed under add and mul and contains 0 and 1.
    All q powers are taken at once, s products each through the "mul" table.
    """
    if s < 2 or s * s != field.q:
        raise ValueError(f"field order {field.q} is not the square of {s}")
    x = np.arange(field.q)
    power = np.ones_like(x)
    for _ in range(s):
        power = field.tables["mul"][power, x]
    return np.flatnonzero(power == x).tolist()
