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
from functools import lru_cache

import numpy as np

from .entropy import binary_entropy, phi
from .exponents import (
    ExponentBound,
    KIND_DIRECTION,
    _avgdist_from_phi,
    morss_lower_exponent,
)
from .optimize import golden_section_maximize

__all__ = [
    "RatePair",
    "FeasibilityFrontier",
    "van_tilborg_wd_cap",
    "zero_error_upper_exponent",
    "feasibility_scan",
]

_DEFAULT_GRID_POINTS = 10_000
_DEFAULT_MARGIN = 1e-9


@dataclass(frozen=True)
class RatePair:
    """Code rates (bits/symbol) for the two users."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        for name, value in (("r1", self.r1), ("r2", self.r2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

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
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"normalized distance must lie in [0, 1], got {d!r}")
    return min(pair.total, binary_entropy(d) + min(d, 1.0 - d))


# Keyed on the grid size, which callers almost never vary.
@lru_cache(maxsize=8)
def _entropy_grid(grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    d = np.linspace(0.0, 1.0, grid_points)
    inner = d[1:-1]
    h = np.zeros_like(d)
    h[1:-1] = -(inner * np.log2(inner) + (1.0 - inner) * np.log2(1.0 - inner))
    return d, h + np.minimum(d, 1.0 - d)


# A feasibility scan looks up each (R1 + R2, rho) several times; a
# 30-rate by 79-rho scan needs about 1.3k entries.  The bound stops float
# keys that never repeat across scans from growing the cache without limit.
_TOTAL_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_TOTAL_CACHE_SIZE)
def _zero_error_from_total(
    total: float, rho: float, grid_points: int
) -> tuple[float, float]:
    distance_log = math.log2((1.0 - rho) / (1.0 + rho)) if rho > 0.0 else 0.0
    d, pair_term = _entropy_grid(grid_points)
    values = np.minimum(total, pair_term) + d * distance_log
    k = int(np.argmax(values))
    pair = RatePair(min(total, 1.0), total - min(total, 1.0))

    def objective(x: float) -> float:
        return van_tilborg_wd_cap(x, pair) + x * distance_log

    d_opt, peak = golden_section_maximize(
        objective, d[max(k - 1, 0)], d[min(k + 1, grid_points - 1)]
    )
    if values[k] > peak:
        d_opt, peak = float(d[k]), float(values[k])
    return 2.0 - math.log2(1.0 + rho) - peak, d_opt


def zero_error_upper_exponent(
    pair: RatePair, rho: float, grid_points: int = _DEFAULT_GRID_POINTS
) -> ExponentBound:
    """Upper direction for every zero-error code of the given rates:

        E = min_d [2 - log2(1+rho) - cap(d) - d log2((1-rho)/(1+rho))]

    so P <= 2^(-n(E + o(1))) whenever (A, B) is zero-error.  The cap only
    depends on R1 + R2.  The objective is concave with kinks (at d = 1/2
    and at the counting-cap crossover), handled by a dense grid plus
    golden-section refinement in the best bracket.  ``d_opt`` is the
    distance attaining the inner optimum.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation must lie in [0, 1), got {rho!r}")
    if grid_points < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid_points!r}")
    value, d_opt = _zero_error_from_total(pair.total, rho, grid_points)
    return ExponentBound(
        value, "zero_error_upper", KIND_DIRECTION["zero_error_upper"], d_opt=d_opt
    )


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


def _check_open_unit_grid(grid, name: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in grid)
    if not values:
        raise ValueError(f"{name} must be nonempty")
    if any(not 0.0 < v < 1.0 for v in values):
        raise ValueError(f"{name} values must lie in (0, 1)")
    return values


def feasibility_scan(
    r1_grid,
    rho_grid,
    r2_grid=None,
    margin: float = _DEFAULT_MARGIN,
    grid_points: int = _DEFAULT_GRID_POINTS,
) -> FeasibilityFrontier:
    """Exclusion frontier: for each R1, the largest grid R2 not excluded.

    (R1, R2) is excluded when some rho in the grid has

        zero_error_upper_exponent > min(morss, avgdist) + margin,

    i.e. every zero-error code of those rates would need to be less
    probable than any set pair of those sizes can be.  R2 candidates
    default to the R1 grid.
    """
    r1_values = _check_open_unit_grid(r1_grid, "r1 grid")
    rho_values = _check_open_unit_grid(rho_grid, "rho grid")
    r2_values = (
        r1_values
        if r2_grid is None
        else _check_open_unit_grid(r2_grid, "r2 grid")
    )
    r2_descending = sorted(r2_values, reverse=True)

    def excluded(r1: float, r2: float) -> bool:
        # phi does not depend on rho; the grids are already checked.
        low = phi(r1, r2)
        for rho in rho_values:
            upper, _ = _zero_error_from_total(r1 + r2, rho, grid_points)
            lower = min(
                morss_lower_exponent(r1, r2, rho).value,
                _avgdist_from_phi(r1, r2, rho, low).value,
            )
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
