"""Closed-form probabilities, expectations and size bounds.

Everything here is a pure function of the plane order q (and a sampling
probability p).  Expectations are evaluated in log space because
(1-p)^(q^2+q+1) underflows double precision long before the supported
order cap.  Ceilings that land within 1e-9 of an integer are re-resolved
at 50 significant digits, in `decimal`, before rounding up.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

_DECIMAL = SimpleNamespace(sqrt=lambda x: Decimal(x).sqrt(), log=lambda x: Decimal(x).ln())


def _precise_ceil(expr) -> int:
    """Ceiling of `expr(ns)`, an expression that uses only `ns.sqrt` and `ns.log`.

    It is evaluated over `math`, and again over `decimal` at 50 significant
    digits when that lands within 1e-9 of an integer.
    """
    value = expr(math)
    if abs(value - round(value)) < 1e-9:
        with localcontext() as ctx:
            ctx.prec = 50
            value = expr(_DECIMAL)
    return math.ceil(value)


def _check_order(q: int):
    if q < 2:
        raise ValueError(f"plane order must be >= 2, got {q}")


def _check_probability(p: float):
    if not 0.0 <= p < 1.0:
        raise ValueError(f"probability must lie in [0, 1), got {p}")


def sampling_probability(q: int) -> float:
    """Per-point inclusion probability sqrt(3 q ln q) / (q^2+q+1)."""
    _check_order(q)
    return math.sqrt(3.0 * q * math.log(q)) / (q * q + q + 1)


def expected_unsaturated(q: int, p: float) -> float:
    """Expected number of points lying on no line with two sampled points.

    Exactly (q^2+q+1) (1-p)^(q^2+q+1) ( p/(1-p) + (1 + q p/(1-p))^(q+1) ).
    The first summand is the event that the point itself is the only
    sampled point anywhere, so a point of a singleton sample counts as
    undetermined here (see `saturation.monte_carlo_expectation`).
    """
    _check_order(q)
    _check_probability(p)
    n = q * q + q + 1
    if p == 0.0:
        return float(n)
    log1mp = math.log1p(-p)
    log_a = math.log(p) - log1mp
    log_b = (q + 1) * math.log1p(q * p / (1.0 - p))
    hi, lo = max(log_a, log_b), min(log_a, log_b)
    combined = hi + math.log1p(math.exp(lo - hi))
    return math.exp(math.log(n) + n * log1mp + combined)


def expected_unsaturated_main_term(q: int, p: float) -> float:
    """Leading-order approximation (q^2+q+1) exp(-q(q^2-1)p^2 / 2).

    Diagnostic for the asymptotic regime; the dropped corrections are
    relatively large until q p gets well below 1.  At p =
    sampling_probability(q) the ratio expected_unsaturated / main term is
    3.54 at q = 121 (q p = 0.34), 2.43 at q = 1024 (q p = 0.14), below 2
    from q = 2671 and 1.09 at q = 2^20.  Most of the gap is the cubic
    correction exp((q+1) x^3 / 3) with x = q p / (1-p).
    """
    _check_order(q)
    _check_probability(p)
    n = q * q + q + 1
    return n * math.exp(-0.5 * q * (q * q - 1.0) * p * p)


def lunelli_sce_bound(q: int) -> float:
    """Lower bound sqrt(2q) + 1; saturating sets must strictly exceed it."""
    _check_order(q)
    return math.sqrt(2.0 * q) + 1.0


def default_step_cap(q: int) -> int:
    """ceil(sqrt(3 q ln q)): the step count at which greedy hands over
    to pairwise completion under the fixed-cap stop rule."""
    _check_order(q)
    return _precise_ceil(lambda ns: ns.sqrt(3 * q * ns.log(q)))


def theorem_bound(q: int) -> int:
    """Guaranteed achievable size ceil(sqrt(3q ln q)) + ceil((sqrt(q)+1)/2)."""
    _check_order(q)
    r = math.isqrt(q)     # the tail is exact: (r + 2) // 2 if q = r^2, else (r + 3) // 2
    return default_step_cap(q) + (r + 3 - (r * r == q)) // 2


def contraction_product(q: int, k: int) -> float:
    """The product of (1 - i/(q+2)) for i = 1..k, evaluated exactly.

    Computed as a rational (the factors are (q+2-i)/(q+2)) and converted
    to float at the end; k = 0 gives the empty product 1.
    """
    _check_order(q)
    if not 0 <= k <= q + 1:
        raise ValueError(f"k must lie in [0, {q + 1}], got {k}")
    num = 1
    for i in range(1, k + 1):
        num *= q + 2 - i
    return float(Fraction(num, (q + 2) ** k))
