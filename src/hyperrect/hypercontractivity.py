"""Support-aware hypercontractivity: the C function, the drive ODE, the
shooting solve for the norm index q(t), and the induced rectangle bound.

The machinery certifies inequalities of the form

    ||T_{e^-t} 1_A||_q0  <=  ||1_A||_q(t)

where q(t) < q0 improves on the support-free norm index because A is
exponentially small.  q(t) = 1 + e^a is recovered by shooting: pick the
initial condition a so that the scalar ODE

    u'(s) = C(b (1 + e^{-u(s)})),   u(0) = a,
    b = (1 - alpha) ln 2 / (1 + e^{-a}),

lands on u(t) = ln(q0 - 1).  ODE and C: Polyanskiy-Samorodnitsky (2019).

Unit conventions: rates come in bits, but a, b, u and C's argument are
all in nats (this module's internals are natural-log throughout); the
conversion constant ln 2 appears only at the module boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .entropy import LN2, _check_range, binary_entropy_inv
from .exponents import ExponentBound
from .oracle import CubeFunction, noise_operator, p_norm

__all__ = [
    "C_DOMAIN_TOL",
    "DomainViolationError",
    "HcSolution",
    "HcCertificate",
    "c_function",
    "solve_u",
    "solve_q",
    "psi_bound",
    "verify_hc_inequality",
]

# Arguments within this tolerance of [0, ln 2] are treated as roundoff
# and clamped; beyond it the hypothesis of the norm inequality is
# genuinely violated and the operation errors.
C_DOMAIN_TOL = 1e-9

# Below this the closed form for C is 0/0; the series 2 + lam/3 agrees
# with it to O(lam^2) ~ 1e-12 at the seam.
_C_SERIES_CUTOFF = 1e-6

_SHOOT_A_TOL = 1e-14
_RESIDUAL_LIMIT = 1e-9
_STEP_TOL = 1e-11
_MAX_STEPS = 1 << 20

# Gauss-Legendre nodes per shot; test_hypercontractivity's mpmath
# references hold q to 1e-12 relative with them.
_QUAD_NODES = 48

# Longest t the step-halving solve_u accepts.  Once u(t) >= a + 2t nears
# 90, summed roundoff keeps successive passes from agreeing to _STEP_TOL:
# drives with a in [-2, 2] converged at t = 30, but a = -1 halved to
# _MAX_STEPS and failed at t = 40, and a = 0 at t = 50.
_MAX_SOLVE_T = 30.0


class DomainViolationError(ValueError):
    """C's argument fell outside [0, ln 2]; ``t`` locates the violation
    along a trajectory and is None for a direct evaluation."""

    def __init__(self, argument: float, t: float | None = None):
        where = f" at t={t!r}" if t is not None else ""
        super().__init__(
            f"C argument {argument!r} outside [0, ln 2]{where} "
            f"(beyond the {C_DOMAIN_TOL} roundoff tolerance)"
        )
        self.argument = argument
        self.t = t


def c_function(lam: float) -> float:
    """The increasing bijection C : [0, ln 2] -> [2, 2/ln 2].

    Defined by the parametrization C(ln 2 (1 - h(y))) =
    (2 - 4 sqrt(y(1-y))) / (ln 2 (1 - h(y))) for y in [0, 1/2]; the
    inversion runs through the Newton-in-bracket entropy inverse.  lam = 0
    is a removable singularity handled by a short series.  NaN is a domain
    violation like any other argument outside the interval.
    """
    if not -C_DOMAIN_TOL <= lam <= LN2 + C_DOMAIN_TOL:
        raise DomainViolationError(lam)
    lam = min(max(lam, 0.0), LN2)
    if lam < _C_SERIES_CUTOFF:
        return 2.0 + lam / 3.0
    y = binary_entropy_inv(1.0 - lam / LN2)
    return (2.0 - 4.0 * math.sqrt(y * (1.0 - y))) / lam


def _drive(u: float, b: float, t: float) -> float:
    argument = b * (1.0 + math.exp(-u))
    if not -C_DOMAIN_TOL <= argument <= LN2 + C_DOMAIN_TOL:
        raise DomainViolationError(argument, t)
    return c_function(argument)


def _rk4(a: float, b: float, t: float, steps: int) -> float:
    h = t / steps
    u = a
    s = 0.0
    for _ in range(steps):
        k1 = _drive(u, b, s)
        k2 = _drive(u + 0.5 * h * k1, b, s + 0.5 * h)
        k3 = _drive(u + 0.5 * h * k2, b, s + 0.5 * h)
        k4 = _drive(u + h * k3, b, s + h)
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
    return u


def solve_u(
    a: float, b: float, t: float, *, tol: float = _STEP_TOL, steps: int | None = None
) -> float:
    """u(t) for the drive ODE u' = C(b(1 + e^-u)), u(0) = a.

    Fixed-step 4th-order integration with step halving until successive
    results differ by less than ``tol``; passing ``steps`` runs a single
    fixed-step pass instead (an order-of-convergence diagnostic).
    `solve_q` does not call it; it is the quadrature's cross-check.
    Nondecreasing in t since C >= 2 > 0; t = 0 returns a exactly.  The
    step-halving path raises ValueError for t > 30 (_MAX_SOLVE_T), where the
    default tolerance is out of reach.
    """
    _check_range("time", t, 0.0, math.inf, hi_open=True)
    _check_range("a", a, -math.inf, math.inf, lo_open=True, hi_open=True)
    _check_range("b", b, -math.inf, math.inf, lo_open=True, hi_open=True)
    initial = b * (1.0 + math.exp(-a))
    if not -C_DOMAIN_TOL <= initial <= LN2 + C_DOMAIN_TOL:
        raise DomainViolationError(initial, 0.0)
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps!r}")
        return a if t == 0.0 else _rk4(a, b, t, steps)
    if t > _MAX_SOLVE_T:
        raise ValueError(f"time {t!r} exceeds {_MAX_SOLVE_T}, past which {tol} is unreachable")
    if t == 0.0:
        return a
    # Clamped before ceil so a huge t cannot overflow to an infinite count.
    steps = max(4, math.ceil(min(t / 0.01, 1 << 12)))
    prev = _rk4(a, b, t, steps)
    while math.isfinite(prev) and steps < _MAX_STEPS:
        steps *= 2
        cur = _rk4(a, b, t, steps)
        if abs(cur - prev) < tol:
            return cur
        prev = cur
    if not math.isfinite(prev):
        raise ValueError(f"integration to t={t!r} returned {prev!r} after {steps} steps")
    raise RuntimeError(
        f"step halving did not converge below {tol} within {_MAX_STEPS} steps"
    )


@dataclass(frozen=True)
class HcSolution:
    """Solved shooting state for the norm-index boundary problem.

    ``q = 1 + e^a`` is the improved norm index at time t, and ``b`` is
    derived from a and alpha by the drive constraint; ``residual``
    bounds the terminal mismatch |u(t) - ln(q0 - 1)| by (2/ln 2)|t(a) - t|,
    since u' <= 2/ln 2; ``evaluations`` counts the shots, each one
    quadrature of the time integral t(a) (the two bracket ends plus the
    root iterations, the last of which gives the residual); ``steps``
    counts the C evaluations across them.
    """

    t: float
    alpha: float
    q0: float
    a: float
    q: float
    residual: float
    steps: int
    evaluations: int

    @property
    def b(self) -> float:
        return (1.0 - self.alpha) * LN2 / (1.0 + math.exp(-self.a))

    def __post_init__(self) -> None:
        if self.residual > _RESIDUAL_LIMIT:
            raise ValueError(
                f"terminal residual {self.residual!r} exceeds {_RESIDUAL_LIMIT}"
            )
        if not 1.0 < self.q <= self.q0:
            raise ValueError(f"norm index {self.q!r} outside (1, q0={self.q0!r}]")


def _brent_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float
) -> tuple[float, float, int]:
    """Root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4, the zeroin algorithm): inverse
    quadratic or secant steps, replaced by a bisection step whenever they
    would leave the bracket or shrink it too slowly.  Stops once the
    bracket around the best point b is narrower than ``tol`` plus
    4 macheps |b|, so a ``tol`` below the float spacing at b still ends;
    returns (b, f(b), iterations).
    """
    c, fc = a, fa
    d = e = b - a
    iterations = 0
    while True:
        if fb * math.copysign(1.0, fc) > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(1.0) * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b, fb, iterations
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)
        iterations += 1


@functools.cache
def _quad_rule() -> tuple[tuple[float, float], ...]:
    """Gauss-Legendre nodes and weights on [-1, 1] for one shot's time
    integral, built on first use: importing the package skips numpy's
    polynomial module and the eigensolve behind it."""
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_NODES)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _shot_time(alpha: float, a: float, target: float) -> float:
    """t(a) = integral from a to target of du / C(b(1 + e^-u)), by the
    Gauss-Legendre rule in s, where u = u* + R s^2 (see `solve_q`)."""
    b = (1.0 - alpha) * LN2 / (1.0 + math.exp(-a))
    # u* = ln(1 - alpha) - ln(alpha + e^-a) and a - u*, free of cancellation.
    singular = math.log1p(-alpha) - math.log(alpha + math.exp(-a))
    span = target - singular
    start = math.sqrt((math.log1p(alpha * math.exp(a)) - math.log1p(-alpha)) / span)
    mid, half = 0.5 * (1.0 + start), 0.5 * (1.0 - start)
    total = 0.0
    for x, w in _quad_rule():
        s = mid + half * x
        u = singular + span * s * s
        total += w * s / c_function(b * (1.0 + math.exp(-u)))
    return 2.0 * span * half * total


def solve_q(alpha: float, q0: float, t: float) -> HcSolution:
    """Shooting solve: the a with b = (1-alpha) ln 2 / (1 + e^-a) such
    that the drive ODE started at u(0) = a reaches ln(q0 - 1) at time t.

    The ODE u' = C(lam(u)), lam(u) = b(1 + e^-u), is scalar and
    autonomous with C >= 2 > 0, so it separates: the shot from a reaches
    U = ln(q0 - 1) at time

        t(a) = integral_a^U du / C(b(1 + e^-u)),

    and the solve is the root of t(a) = t.  Along the path lam falls from
    (1 - alpha) ln 2 at u = a to b q0 / (q0 - 1) > b at u = U, so it stays
    in (b, (1 - alpha) ln 2], inside C's domain, for every t.  Since
    2 <= C <= 2/ln 2, (U - a) ln 2 / 2 <= t(a) <= (U - a) / 2: the root
    lies in [U - 2t/ln 2, U - 2t] for every t > 0, and it is unique since
    t(a) decreases in a.  Brent's method runs on that bracket.

    Near lam = ln 2, C departs from 2/ln 2 like -sqrt(ln 2 - lam), up to
    a logarithmic factor.  lam reaches ln 2 at
    u* = -ln(ln 2/b - 1) = ln(1 - alpha) - ln(alpha + e^-a) < a, and
    ln 2 - lam grows linearly in u - u* there.  The substitution
    u = u* + R s^2, R = U - u*, makes it quadratic in s, so the square
    root turns linear and the integrand 2 R s / C has no branch point on
    [s_a, 1], s_a^2 = (a - u*)/R.  Each shot is one fixed 48-node
    Gauss-Legendre rule; against 30-digit mpmath references q agrees to
    1e-12 relative.  `solve_u` (RK4) stays as the independent cross-check.

    t = 0 returns q = q0 exactly; q(t) decreases in t.  A t with
    ln(q0 - 1) - 2t <= -53 ln 2 raises ValueError: q would round to 1.
    alpha = 0 is rejected: the drive would start exactly at the ln 2
    endpoint of C's domain.  Callers certifying a singleton should pass
    any positive rate covering it (1/n does).  NaN and infinite arguments
    are rejected with ValueError.
    """
    _check_range("rate", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("norm index", q0, 1.0, math.inf, lo_open=True, hi_open=True)
    _check_range("time", t, 0.0, math.inf, hi_open=True)
    target = math.log(q0 - 1.0)
    # q = 1 + e^a rounds to 1 once e^a <= 2^-53 (half an ulp of 1; the tie
    # rounds to even, down).  C > 2 on every drive path gives
    # a < ln(q0 - 1) - 2t, so ln(q0 - 1) - 2t <= -53 ln 2 means q = 1.0.
    if target - 2.0 * t <= -53.0 * LN2:
        raise ValueError(
            f"at t={t!r} the norm index 1 + e^a < 1 + (q0 - 1) e^(-2t) "
            "rounds to 1 in double precision"
        )

    if t == 0.0:
        return HcSolution(t=0.0, alpha=alpha, q0=q0, a=target, q=q0, residual=0.0,
                          steps=0, evaluations=0)

    def miss(a: float) -> float:
        return _shot_time(alpha, a, target) - t

    lo, hi = target - 2.0 * t / LN2, target - 2.0 * t
    root, f_root, iterations = _brent_root(miss, lo, hi, miss(lo), miss(hi), _SHOOT_A_TOL)
    shots = 2 + iterations
    return HcSolution(
        t=t,
        alpha=alpha,
        q0=q0,
        a=root,
        q=1.0 + math.exp(root),
        residual=abs(f_root) * 2.0 / LN2,
        steps=shots * _QUAD_NODES,
        evaluations=shots,
    )


def psi_bound(alpha: float, rho: float, split: float = 0.5) -> ExponentBound:
    """Upper exponent psi(alpha, rho) with P <= 2^(-n psi) for equal rates.

    Factorizes T_rho across the two sets with rho = e^(-2t), bounds each
    factor by the solved norm index at q0 = 2 (the symmetric split is the
    Cauchy-Schwarz step), giving psi = 2 (1 - alpha) / q(t) with
    t = -ln(rho) / 2.  ``split`` unbalances the factorization
    experimentally (t1 = split * (-ln rho), t2 the rest); the default is
    the symmetric split.  rho = 1 gives (1 - alpha) exactly; every
    rho > 0 solves, until q(t) rounds to 1 (ValueError from `solve_q`,
    near rho = 1e-16 for the symmetric split).
    """
    _check_range("rate", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("correlation", rho, 0.0, 1.0, lo_open=True)
    _check_range("split", split, 0.0, 1.0, lo_open=True, hi_open=True)
    horizon = -math.log(rho)
    first = solve_q(alpha, 2.0, split * horizon).q
    second = first if split == 0.5 else solve_q(alpha, 2.0, (1.0 - split) * horizon).q
    return ExponentBound((1.0 - alpha) / first + (1.0 - alpha) / second, "psi_upper")


@dataclass(frozen=True)
class HcCertificate:
    """Outcome of a direct small-n check of the norm inequality."""

    passed: bool
    lhs: float
    rhs: float
    slack: float
    q: float
    alpha: float
    q0: float
    t: float


def verify_hc_inequality(
    a_set, q0: float, t: float, alpha: float | None = None
) -> HcCertificate:
    """Check ||T_{e^-t} 1_A||_q0 <= ||1_A||_q(t) exactly on a small cube.

    The left side runs through the oracle's spectral noise operator; the
    right side is (|A| / 2^n)^(1/q) with q from the shooting solve.  The
    rate defaults to log2|A| / n, the tightest admissible, lifted to 1/n
    for a singleton since the solver needs a positive rate; an explicit
    ``alpha`` must still satisfy |A| <= 2^(n alpha).
    """
    n = a_set.n
    if n > 14:
        raise ValueError(f"direct verification capped at n=14, got {n}")
    exact_rate = math.log2(len(a_set)) / n
    if alpha is None:
        alpha = max(exact_rate, 1.0 / n)
    elif alpha < exact_rate - 1e-12:
        raise ValueError(
            f"|A| = {len(a_set)} exceeds 2^(n alpha) for alpha = {alpha!r}"
        )
    indicator = CubeFunction.indicator(a_set)
    lhs = p_norm(noise_operator(indicator, math.exp(-t)), q0)
    solution = solve_q(alpha, q0, t)
    rhs = (len(a_set) / 2.0**n) ** (1.0 / solution.q)
    slack = rhs - lhs
    return HcCertificate(
        passed=slack >= -1e-12,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        q=solution.q,
        alpha=alpha,
        q0=q0,
        t=t,
    )
