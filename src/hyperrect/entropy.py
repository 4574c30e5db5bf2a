"""Scalar primitives on the binary alphabet: entropy, its inverse, the
binary convolution, and a few special functions used by the exponent and
hypercontractivity modules.

Conventions shared by the whole package:

* Entropies, rates and exponents are in bits (base-2 logarithms).  The
  only natural-log quantities live inside the hypercontractivity solver
  and are labeled as nats there.
* ``0 * log(0) = 0`` everywhere.
* Impossible or empty quantities are the IEEE ``-inf`` sentinel
  (:data:`NEG_INF`), never a large negative float.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "NEG_INF",
    "LN2",
    "binary_entropy",
    "binary_entropy_inv",
    "star",
    "phi",
    "log_binomial",
    "v_func",
    "g_func",
]

NEG_INF = float("-inf")
LN2 = math.log(2.0)

_LN4 = math.log(4.0)

# Pinned absolute tolerance in p for the entropy inverse.
_INV_TOL = 1e-13

# Within this of y = 1 the root sits near p = 1/2, where h' -> 0 and
# h(p) - y cancels to a few ulps of 1; that miss would move p by ~1e-9,
# so it is taken instead as a difference of deficits 1 - h.
_DEFICIT_FORM_BELOW = 1e-4

# math.comb is exact for all n, so the cutoff only bounds the cost of
# taking log2 of a huge integer; beyond it the lgamma route is cheaper
# and agrees to ~1e-12 relative.
_EXACT_COMB_LIMIT = 64
# Past 2^53, n + 1 is no longer a float distinct from n, so the lgamma
# route has nothing left to resolve.
_MAX_BINOMIAL_N = 2**53


def _is_int(value) -> bool:
    """An int, and not a bool, although True == 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_range(
    name: str,
    value,
    lo: float,
    hi: float,
    *,
    lo_open: bool = False,
    hi_open: bool = False,
) -> None:
    """Raise ValueError unless ``value`` lies between ``lo`` and ``hi``,
    strictly at an open end.

    The package's one domain check, for floats, ints and Fractions alike.
    NaN fails every comparison, and an infinite end is always passed as
    open, so NaN and +-inf are rejected too.  The hot scalars below keep
    their own inline comparison.
    """
    if (lo < value if lo_open else lo <= value) and (
        value < hi if hi_open else value <= hi
    ):
        return
    interval = f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"
    raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def binary_entropy(p: float) -> float:
    """Binary entropy h(p) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _entropy_deficit(p: float) -> float:
    """1 - h(p) without cancellation near p = 1/2: with x = 1 - 2p it is
    (2x atanh(x) + ln(1 - x^2)) / (2 ln 2) ~ x^2 / (2 ln 2)."""
    x = 1.0 - 2.0 * p
    return (2.0 * x * math.atanh(x) + math.log1p(-x * x)) / (2.0 * LN2)


def binary_entropy_inv(y: float) -> float:
    """Inverse of the binary entropy restricted to [0, 1/2].

    Newton steps on h(p) - y inside a bracket [lo, hi] that every
    evaluation shrinks, to absolute tolerance 1e-13 in p.  A step that
    leaves the bracket falls back to its midpoint, so near p = 0, where
    h' diverges, the iteration can never do worse than bisection.  The
    start is the root of Topsoe's upper bound h(p) <= (4p(1-p))^(1/ln 4),
    which lies below the root, where Newton on the concave h climbs
    monotonically.  For y within 1e-4 of 1 the miss is computed as
    (1 - y) - (1 - h(p)), which keeps p accurate where h flattens out.
    """
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"entropy value must lie in [0, 1], got {y!r}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    deficit = 1.0 - y
    near_half = deficit < _DEFICIT_FORM_BELOW
    # (1 - sqrt(1 - z)) / 2 with z = y^(ln 4), written to stay accurate
    # both as y -> 0 and as y -> 1; below y ~ 1e-233 it underflows and
    # the smallest subnormal stands in.
    log_z = _LN4 * math.log(y)
    p = math.exp(log_z) / (2.0 * (1.0 + math.sqrt(-math.expm1(log_z))))
    p = p or math.ulp(0.0)
    lo, hi = 0.0, 0.5
    while hi - lo > _INV_TOL:
        if near_half:
            miss = deficit - _entropy_deficit(p)
        else:
            miss = binary_entropy(p) - y
        if miss < 0.0:
            lo = p
        elif miss > 0.0:
            hi = p
        else:
            return p
        step = miss / math.log2((1.0 - p) / p)
        if abs(step) <= _INV_TOL:
            return min(max(p - step, lo), hi)
        p -= step
        if not lo < p < hi:
            p = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def star(p: float, q: float) -> float:
    """Binary convolution p * (1-q) + q * (1-p).

    Equals (1 - (1-2p)(1-2q)) / 2; the product form makes associativity
    and the fixed point at 1/2 obvious.
    """
    for value in (p, q):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {value!r}")
    return 0.5 * (1.0 - (1.0 - 2.0 * p) * (1.0 - 2.0 * q))


def phi(x: float, y: float) -> float:
    """Convolution of entropy inverses: h_inv(x) * h_inv(y) under `star`.

    Jointly convex on the unit square, symmetric, with phi(x, 0) = h_inv(x)
    and phi(x, 1) = 1/2.
    """
    return star(binary_entropy_inv(x), binary_entropy_inv(y))


def log_binomial(n: int, k: int) -> float:
    """log2 of C(n, k) for ints 0 <= k <= n <= 2^53; anything else raises
    ValueError.

    Small n goes through exact integer arithmetic; large n through lgamma.
    """
    if not (_is_int(n) and _is_int(k)):
        raise ValueError(f"n and k must be ints, got n={n!r}, k={k!r}")
    if not 0 <= n <= _MAX_BINOMIAL_N:
        raise ValueError(f"n must lie in [0, 2^53], got {n!r}")
    if k < 0 or k > n:
        raise ValueError(f"k={k!r} outside [0, {n}]")
    if n <= _EXACT_COMB_LIMIT:
        return math.log2(math.comb(n, k))
    return (
        math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
    ) / LN2


def v_func(t: float) -> float:
    """(1 - 2t) / ln((1-t)/t) on the open interval (0, 1/2).

    Increasing from 0 toward the removable limit 1/2 at t = 1/2; both
    endpoints are rejected rather than patched.
    """
    _check_range("argument", t, 0.0, 0.5, lo_open=True, hi_open=True)
    return (1.0 - 2.0 * t) / math.log((1.0 - t) / t)


def g_func(y: float) -> float:
    """(y^2 - 1)/y - 2 ln y for finite y >= 1; nonnegative, zero only at y = 1."""
    _check_range("argument", y, 1.0, sys.float_info.max)
    return (y * y - 1.0) / y - 2.0 * math.log(y)
