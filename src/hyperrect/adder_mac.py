"""Zero-error feasibility for the two-user binary adder channel.

A zero-error code pair (A, B) must keep all |A||B| real-valued sums
distinct, which caps its distance distribution; pushing that cap through
the correlated-pair kernel yields an upper bound on how probable such a
pair can be.  Universal lower bounds on rectangle probabilities run the
other way, so rate pairs where the two collide cannot carry zero-error
codes.  The scanner maps out that exclusion frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import entropy
from .entropy import _INV_TOL, _check_range, binary_entropy, star
from .exponents import ExponentBound, _avgdist, _morss, _rho_logs

__all__ = [
    "RatePair",
    "FeasibilityFrontier",
    "van_tilborg_wd_cap",
    "zero_error_upper_exponent",
    "feasibility_scan",
]

_DEFAULT_MARGIN = 1e-9


@dataclass(frozen=True)
class RatePair:
    """Code rates (bits/symbol) for the two users."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        _check_range("r1", self.r1, 0.0, 1.0)
        _check_range("r2", self.r2, 0.0, 1.0)

    @property
    def total(self) -> float:
        return self.r1 + self.r2


def van_tilborg_wd_cap(d: float, pair: RatePair) -> float:
    """Distance-distribution cap for zero-error codes, asymptotic form:

        min(R1 + R2, h(d) + min(d, 1 - d)).

    The second term caps the per-symbol log of the number of pairs at
    normalized distance d; the first is the trivial counting cap.  A min
    of concave functions, hence concave in d.
    """
    _check_range("normalized distance", d, 0.0, 1.0)
    return min(pair.total, binary_entropy(d) + min(d, 1.0 - d))


# Kept apart from binary_entropy_inv's loop: a shared helper made that hot inverse 21-30% slower.
def _cap_crossing(total: float) -> float:
    """The d in [0, 1/2] where h(d) + d reaches the counting cap R1 + R2,
    or 1/2 once R1 + R2 >= 3/2, where it never does.

    Newton steps inside a shrinking bracket to the tolerance of
    `binary_entropy_inv`, with its midpoint fallback.  h(d) + d is concave
    and above its chord 3d, so the start total/3 is on or above the root;
    one Newton step lands below it, and from there the iterates climb.
    """
    if total >= 1.5:
        return 0.5
    if total <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    d = total / 3.0 or math.ulp(0.0)
    while hi - lo > _INV_TOL:
        miss = binary_entropy(d) + d - total
        if miss < 0.0:
            lo = d
        elif miss > 0.0:
            hi = d
        else:
            return d
        step = miss / (math.log2((1.0 - d) / d) + 1.0)
        if abs(step) <= _INV_TOL:
            return min(max(d - step, lo), hi)
        d -= step
        if not lo < d < hi:
            d = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def _zero_error_terms(rho: float) -> tuple[float, float, float, float]:
    """The rho-only terms L, 2 - log2(1+rho), d* = 2(1-rho)/(3-rho), h(d*) + d* (1 + L)."""
    distance_log = math.log2((1.0 - rho) / (1.0 + rho))
    d_star = 2.0 * (1.0 - rho) / (3.0 - rho)
    free_peak = binary_entropy(d_star) + d_star * (1.0 + distance_log)
    return distance_log, 2.0 - math.log2(1.0 + rho), d_star, free_peak


def _zero_error_from_crossing(crossing: float, h_crossing: float, terms: tuple) -> tuple:
    """(exponent, d_opt) from the cap crossing of R1 + R2, its entropy and the
    rho terms; see `zero_error_upper_exponent` for the derivation."""
    distance_log, prefactor, d_star, free_peak = terms
    if crossing < d_star:
        return prefactor - (h_crossing + crossing * (1.0 + distance_log)), crossing
    return prefactor - free_peak, d_star


def zero_error_upper_exponent(pair: RatePair, rho: float) -> ExponentBound:
    """Upper direction for every zero-error code of the given rates:

        E = 2 - log2(1+rho) - max_d [cap(d) + d L],  L = log2((1-rho)/(1+rho)),

    so P <= 2^(-n(E + o(1))) whenever (A, B) is zero-error.  The maximum
    is in closed form.  On [1/2, 1] both cap(d) and d L are
    nonincreasing (L <= 0), so the peak lies in [0, 1/2], where
    cap(d) = min(R1 + R2, h(d) + d).  Setting the derivative of
    h(d) + d + d L to zero gives (1 - d)/d = 2^(-1-L) = (1+rho)/(2(1-rho)),
    the free stationary point d* = 2(1-rho)/(3-rho); that function is
    concave, and past the crossing d_c where h(d_c) + d_c = R1 + R2 the
    objective R1 + R2 + d L only falls.  Hence

        d_opt = min(d*, 1/2, d_c),  E = 2 - log2(1+rho) - (h(d_opt) + d_opt (1 + L)).

    d_c depends only on R1 + R2 and is 1/2 once R1 + R2 >= 3/2; it is the
    one iterative step (a bracketed Newton solve).  ``d_opt`` is the
    distance attaining the inner optimum.
    """
    _check_range("correlation", rho, 0.0, 1.0, hi_open=True)
    crossing = _cap_crossing(pair.total)
    h_crossing, terms = binary_entropy(crossing), _zero_error_terms(rho)
    value, d_opt = _zero_error_from_crossing(crossing, h_crossing, terms)
    return ExponentBound(value, "zero_error_upper", d_opt=d_opt)


@dataclass(frozen=True)
class FeasibilityFrontier:
    """Largest non-excluded R2 per R1 (None when every candidate is out)."""

    r1_values: tuple[float, ...]
    r2_max: tuple[float | None, ...]
    r2_grid: tuple[float, ...]
    rho_grid: tuple[float, ...]
    margin: float

    def is_nonincreasing(self) -> bool:
        floor = -1.0
        previous = math.inf
        for value in self.r2_max:
            current = floor if value is None else value
            if current > previous + 1e-15:
                return False
            previous = current
        return True


def feasibility_scan(
    r1_grid,
    rho_grid,
    r2_grid=None,
    margin: float = _DEFAULT_MARGIN,
) -> FeasibilityFrontier:
    """Exclusion frontier: for each R1, the largest grid R2 not excluded.

    (R1, R2) is excluded when some rho in the grid has

        zero_error_upper_exponent > min(morss, avgdist) + margin,

    i.e. every zero-error code of those rates would need to be less
    probable than any set pair of those sizes can be.  R2 candidates
    default to the R1 grid.  Every grid must be nonempty inside (0, 1),
    the product of the three grid sizes at most `sweeps.MAX_GRID_POINTS`,
    and the margin finite and nonnegative.

    Cost: the rho terms once per scan, h_inv once per distinct grid value
    (phi is `star` of two), the cap crossing once per rate pair; the rho loop
    is float arithmetic in the public exponents' order, so decisions match them.
    """
    # sweeps imports this module, so its budget is imported at call time.
    from .sweeps import _check_grid_budget

    r1_values = tuple(float(v) for v in r1_grid)
    rho_values = tuple(float(v) for v in rho_grid)
    r2_values = r1_values if r2_grid is None else tuple(float(v) for v in r2_grid)
    _check_grid_budget("scan", len(r1_values) * len(r2_values) * len(rho_values))
    for name, grid in (("r1", r1_values), ("rho", rho_values), ("r2", r2_values)):
        if not grid:
            raise ValueError(f"{name} grid must be nonempty")
        label = f"{name} grid values"
        for value in grid:
            _check_range(label, value, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("margin", margin, 0.0, math.inf, hi_open=True)
    r2_descending = sorted(r2_values, reverse=True)
    inverse = {v: entropy.binary_entropy_inv(v) for v in dict.fromkeys(r1_values + r2_values)}
    rho_terms = [(rho, _rho_logs(rho), _zero_error_terms(rho)) for rho in rho_values]

    def excluded(r1: float, r2: float) -> bool:
        ca, cb = 1.0 - r1, 1.0 - r2
        low = star(inverse[r1], inverse[r2])
        crossing = _cap_crossing(r1 + r2)
        h_crossing = binary_entropy(crossing)
        for rho, logs, terms in rho_terms:
            upper, _ = _zero_error_from_crossing(crossing, h_crossing, terms)
            lower = min(_morss(ca, cb, rho), _avgdist(ca, cb, low, logs))
            if upper > lower + margin:
                return True
        return False

    frontier: list[float | None] = []
    for r1 in r1_values:
        best: float | None = None
        for r2 in r2_descending:
            if not excluded(r1, r2):
                best = r2
                break
        frontier.append(best)
    return FeasibilityFrontier(
        r1_values, tuple(frontier), tuple(r2_values), rho_values, margin
    )
