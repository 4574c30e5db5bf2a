"""Asymptotic exponents of rectangle probabilities in bits per symbol.

For a rho-correlated uniform pair (X, Y) on {0,1}^n and sets A, B of
rates alpha = log2|A|/n, beta = log2|B|/n, this module evaluates:

* the exact exponent of sphere pairs (same or antipodal centers) via the
  concave per-symbol pair-count profile `w_d`,
* a family of closed-form bounds valid for all sets of the given rates,
* first-order expansions near full and vanishing correlation.

Every result is wrapped in :class:`ExponentBound`, which records which
direction of probability statement the number certifies: an exponent E
with direction ``upper_on_P`` means P <= 2^(-n(E + o(1))) for all sets of
the given rates; ``lower_on_P`` means some sets achieve
P >= 2^(-n(E + o(1))), so no universal upper exponent can exceed it.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from types import MappingProxyType
from typing import Mapping

from .entropy import (
    NEG_INF,
    LN2,
    _check_range,
    binary_entropy,
    binary_entropy_inv,
    phi,
)

__all__ = [
    "KIND_DIRECTION",
    "ExponentBound",
    "BoundComparison",
    "w_d",
    "feasible_distance_interval",
    "sphere_exponent",
    "hct_upper_exponent",
    "rhct_lower_exponent",
    "morss_lower_exponent",
    "avgdist_lower_exponent",
    "thm1_expansion",
    "thm2_expansion",
    "avg_distance_bounds",
    "remark3_threshold",
    "compare_bounds",
]

KIND_DIRECTION: Mapping[str, str] = MappingProxyType(
    {
        "sphere_same": "lower_on_P",
        "sphere_opposite": "upper_on_P",
        "hct_upper": "upper_on_P",
        "psi_upper": "upper_on_P",
        "rhct_lower": "lower_on_P",
        "morss_lower": "lower_on_P",
        "avgdist_lower": "lower_on_P",
        "thm1_expansion": "lower_on_P",
        "thm2_expansion": "upper_on_P",
        "zero_error_upper": "upper_on_P",
    }
)

# Expansions are first-order; flag them untrustworthy outside these ranges.
THM1_RHO_MIN = 0.9
THM2_RHO_MAX = 0.1


@dataclass(frozen=True)
class ExponentBound:
    """A named exponent (bits per symbol) and what it certifies.

    ``direction`` is a property read off ``kind``; ``valid`` marks whether the
    inputs are inside the regime where the formula is quantitatively
    trustworthy.  ``d_opt`` is the optimizing normalized distance for the
    kinds that solve an inner maximization.  Both are keyword-only.
    """

    value: float
    kind: str
    _: KW_ONLY
    valid: bool = True
    d_opt: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_DIRECTION:
            raise ValueError(f"unknown bound kind {self.kind!r}")

    @property
    def direction(self) -> str:
        return KIND_DIRECTION[self.kind]


def _sphere_radii(alpha: float, beta: float) -> tuple[float, float, float]:
    """(smaller rate, its radius r_a, the other radius r_b), r = h_inv(rate)."""
    if alpha > beta:
        alpha, beta = beta, alpha
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("beta", beta, 0.0, 1.0, lo_open=True)
    return alpha, binary_entropy_inv(alpha), binary_entropy_inv(beta)


def feasible_distance_interval(alpha: float, beta: float) -> tuple[float, float]:
    """Distances achievable between points of spheres of rates alpha, beta.

    With radii r_a = h_inv(alpha) <= r_b = h_inv(beta) (after swapping),
    the interval is [r_b - r_a, r_b + r_a].
    """
    _, r_a, r_b = _sphere_radii(alpha, beta)
    return r_b - r_a, r_b + r_a


def w_d(alpha: float, beta: float, d: float) -> float:
    """Per-symbol log of the ordered-pair count of sphere pairs at distance d.

    For spheres of rates alpha <= beta (arguments are swapped if needed,
    the count being symmetric) and normalized distance d:

        w = alpha + r_a h(1/2 + (r_b - d)/(2 r_a))
                  + (1 - r_a) h(1/2 + (d - (1 - r_b))/(2 (1 - r_a)))

    with r = h_inv of the rate.  Outside the feasible interval the count
    is zero, so the value is ``NEG_INF``.  Concave in d on the interval,
    maximized with value alpha + beta at d = phi(alpha, beta).
    """
    alpha, r_a, r_b = _sphere_radii(alpha, beta)
    _check_range("normalized distance", d, 0.0, 1.0)
    return _w_d_from_radii(alpha, r_a, r_b, d)


def _w_d_from_radii(alpha: float, r_a: float, r_b: float, d: float) -> float:
    """`w_d` for the smaller rate alpha with its radius r_a <= r_b given."""
    if d < r_b - r_a or d > r_b + r_a:
        return NEG_INF
    inner = 0.5 + (r_b - d) / (2.0 * r_a)
    outer = 0.5 + (d - (1.0 - r_b)) / (2.0 * (1.0 - r_a))
    inner = min(max(inner, 0.0), 1.0)
    outer = min(max(outer, 0.0), 1.0)
    return (
        alpha
        + r_a * binary_entropy(inner)
        + (1.0 - r_a) * binary_entropy(outer)
    )


def sphere_exponent(
    alpha: float, beta: float, rho: float, centers: str = "same"
) -> ExponentBound:
    """Exact rectangle-probability exponent for a pair of Hamming spheres.

    ``centers="same"`` places both spheres around the same point;
    ``"opposite"`` places them around antipodal points (distance k from
    one center is distance n-k from the other, which flips the sign of
    the distance term and swaps 1+rho for 1-rho in the prefactor):

        same:     2 - log2(1+rho) - max_d [w_d(alpha, beta, d) + d L]
        opposite: 2 - log2(1-rho) - max_d [w_d(alpha, beta, d) - d L]

    with L = log2((1-rho)/(1+rho)) <= 0.  ``d_opt`` reports the inner
    argmax; for opposite centers it is the distance between the
    un-reflected spheres (realized pair distances concentrate at 1 - d_opt).

    The inner maximum is in closed form.  With r_a <= r_b, s = r_a + r_b
    and delta = r_b - r_a, `w_d` is alpha + r_a h(x) + (1 - r_a) h(y) for
    x = (s - d)/(2 r_a) and y = (d + delta)/(2 (1 - r_a)), so
    dw/dd = (h'(y) - h'(x))/2 with h'(p) = log2((1-p)/p).  With
    K = ((1+rho)/(1-rho))^(+-2), + for same centers and - for opposite,
    the stationary condition dw/dd +- L = 0 becomes

        g(d) = (2 - s - d)(s - d) - K (d^2 - delta^2) = 0.

    g(delta) >= 0 >= g(s) and g'(d) = -2 + 2 d (1 - K) < 0 on [0, 1], so
    g has one root in the feasible interval [delta, s], where the concave
    objective peaks.  With c = s (2 - s) + K delta^2 that root of
    (1 - K) d^2 - 2 d + c, free of cancellation and of any division by
    1 - K, is d = c / (1 + sqrt(1 - (1 - K) c)); at rho = 0 (K = 1) it
    is c / 2 = s - 2 r_a r_b = phi(alpha, beta).  It is clipped to
    [delta, s] against roundoff before `w_d` is evaluated there.
    """
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    if centers not in ("same", "opposite"):
        raise ValueError(f"centers must be 'same' or 'opposite', got {centers!r}")
    small_rate, r_a, r_b = _sphere_radii(alpha, beta)
    ratio = (1.0 - rho) / (1.0 + rho)
    distance_log = math.log2(ratio)
    if centers == "same":
        sign, kind, k = 1.0, "sphere_same", 1.0 / (ratio * ratio)
        prefactor = 2.0 - math.log2(1.0 + rho)
    else:
        sign, kind, k = -1.0, "sphere_opposite", ratio * ratio
        prefactor = 2.0 - math.log2(1.0 - rho)
    s, delta = r_a + r_b, r_b - r_a
    c = s * (2.0 - s) + k * delta * delta
    root = c / (1.0 + math.sqrt(max(0.0, 1.0 - (1.0 - k) * c)))
    d_opt = min(max(root, delta), s)
    peak = _w_d_from_radii(small_rate, r_a, r_b, d_opt) + sign * d_opt * distance_log
    return ExponentBound(prefactor - peak, kind, d_opt=d_opt)


def hct_upper_exponent(alpha: float, rho: float) -> ExponentBound:
    """Universal upper direction for equal rates: E = 2(1-alpha)/(1+rho)."""
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0)
    return ExponentBound(2.0 * (1.0 - alpha) / (1.0 + rho), "hct_upper")


def rhct_lower_exponent(alpha: float, rho: float) -> ExponentBound:
    """Reverse counterpart for equal rates: E = 2(1-alpha)/(1-rho)."""
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    return ExponentBound(2.0 * (1.0 - alpha) / (1.0 - rho), "rhct_lower")


def morss_lower_exponent(alpha: float, beta: float, rho: float) -> ExponentBound:
    """Quadratic-form lower direction:

    E = ((1-alpha) + (1-beta) + 2 rho sqrt((1-alpha)(1-beta))) / (1 - rho^2).

    Collapses to the reverse bound 2(1-alpha)/(1-rho) when alpha = beta.
    """
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("beta", beta, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    return ExponentBound(_morss(1.0 - alpha, 1.0 - beta, rho), "morss_lower")


def _morss(ca: float, cb: float, rho: float) -> float:
    """The Morss exponent from ca = 1 - alpha and cb = 1 - beta."""
    return (ca + cb + 2.0 * rho * math.sqrt(ca * cb)) / (1.0 - rho * rho)


def avgdist_lower_exponent(alpha: float, beta: float, rho: float) -> ExponentBound:
    """Average-distance lower direction:

    E = (1-alpha) + (1-beta) - log2(1-rho) + phi(alpha, beta) L

    with L = log2((1-rho)/(1+rho)).  Built from the fact that the mean
    normalized distance between sets of rates alpha, beta is at least
    phi(alpha, beta).
    """
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("beta", beta, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    value = _avgdist(1.0 - alpha, 1.0 - beta, phi(alpha, beta), _rho_logs(rho))
    return ExponentBound(value, "avgdist_lower")


def _rho_logs(rho: float) -> tuple[float, float]:
    """The average-distance exponent's rho terms L = log2((1-rho)/(1+rho)), -log2(1-rho)."""
    return math.log2((1.0 - rho) / (1.0 + rho)), -math.log2(1.0 - rho)


def _avgdist(ca: float, cb: float, low: float, logs: tuple[float, float]) -> float:
    """The average-distance exponent from 1 - alpha, 1 - beta, phi and `_rho_logs`."""
    distance_log, neg_log = logs
    return ca + cb + (neg_log + low * distance_log)


def thm1_expansion(alpha: float, rho: float) -> ExponentBound:
    """First-order expansion of the equal-rate exponent near rho = 1:

    E = (1-alpha) + [(1/2 - sqrt(r(1-r))) / ln 2] (1-rho),  r = h_inv(alpha).

    The linear term is exact as rho -> 1; ``valid`` is False below
    rho = 0.9 where the dropped O((1-rho)^2 log(1/(1-rho))) terms matter.
    """
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0)
    r = binary_entropy_inv(alpha)
    slope = (0.5 - math.sqrt(r * (1.0 - r))) / LN2
    return ExponentBound(
        (1.0 - alpha) + slope * (1.0 - rho),
        "thm1_expansion",
        valid=rho >= THM1_RHO_MIN,
    )


def thm2_expansion(alpha: float, beta: float, rho: float) -> ExponentBound:
    """First-order expansion of the sphere exponent near rho = 0:

    E = (1-alpha) + (1-beta) + rho log2(e) (1 - 2 phi(alpha, beta)).

    ``valid`` is False above rho = 0.1 where the dropped O(rho^2) term
    matters.
    """
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("beta", beta, 0.0, 1.0, lo_open=True)
    _check_range("correlation", rho, 0.0, 1.0)
    slope = (1.0 - 2.0 * phi(alpha, beta)) / LN2
    return ExponentBound(
        (1.0 - alpha) + (1.0 - beta) + rho * slope,
        "thm2_expansion",
        valid=rho <= THM2_RHO_MAX,
    )


def avg_distance_bounds(alpha: float, beta: float) -> tuple[float, float]:
    """Bounds on the mean normalized distance between sets of given rates.

    Returns (phi(alpha, beta), 1 - phi(alpha, beta)): the mean distance of
    any pair of sets of rates alpha, beta lies in this interval.
    """
    _check_range("alpha", alpha, 0.0, 1.0, lo_open=True)
    _check_range("beta", beta, 0.0, 1.0, lo_open=True)
    low = phi(alpha, beta)
    return low, 1.0 - low


def remark3_threshold(rho: float) -> float:
    """Equal-rate threshold below which the average-distance bound beats
    the quadratic-form bound:

        alpha* = 1 - ((1-rho) / (2 rho)) log2(1/(1-rho)).

    Defined for rho in (0, 1); alpha* = 1/2 at rho = 1/2, tending to
    1 - 1/(2 ln 2) as rho -> 0+ and to 1 as rho -> 1-.

    The threshold is a sufficient condition, obtained by discarding the
    nonnegative term phi * log2((1+rho)/(1-rho)) from the difference of
    the two bounds.  Below alpha* the average-distance bound is
    guaranteed strictly smaller; the actual crossing point sits somewhat
    above alpha*, so either bound may win in between.
    """
    _check_range("correlation", rho, 0.0, 1.0, lo_open=True, hi_open=True)
    # log2(1/(1-rho)) / rho as -log1p(-rho) / rho / ln 2: the quotient
    # tends to 1 without cancelling as rho -> 0, subnormals included.
    return 1.0 - (1.0 - rho) * (-math.log1p(-rho) / rho) / (2.0 * LN2)


@dataclass(frozen=True)
class BoundComparison:
    """Side-by-side lower-direction bounds at one parameter point.

    ``tightest`` names the smallest exponent, i.e. the strongest
    statement about how large P must stay.  For equal rates,
    ``predicts_avgdist`` is the threshold rule's call (True when
    alpha < threshold, where the average-distance bound is guaranteed
    to win; False above, where either bound may win); it is None for
    unequal rates, where the rule does not apply.
    """

    alpha: float
    beta: float
    rho: float
    bounds: Mapping[str, ExponentBound]
    tightest: str
    threshold: float | None
    predicts_avgdist: bool | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", MappingProxyType(dict(self.bounds)))


def compare_bounds(alpha: float, beta: float, rho: float) -> BoundComparison:
    """Evaluate the lower-direction family at one point and rank it."""
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    bounds: dict[str, ExponentBound] = {
        "morss_lower": morss_lower_exponent(alpha, beta, rho),
        "avgdist_lower": avgdist_lower_exponent(alpha, beta, rho),
    }
    if alpha == beta:
        bounds["rhct_lower"] = rhct_lower_exponent(alpha, rho)
    tightest = min(bounds, key=lambda name: bounds[name].value)
    threshold = remark3_threshold(rho) if rho > 0.0 else None
    predicts: bool | None = None
    if alpha == beta and threshold is not None:
        predicts = alpha < threshold
    return BoundComparison(
        alpha, beta, rho, bounds, tightest, threshold, predicts
    )
