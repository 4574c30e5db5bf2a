"""Support-aware hypercontractivity: the C function, the drive ODE, the
shooting solve for the norm index q(t), and the induced rectangle bound.

The machinery certifies inequalities of the form

    ||T_{e^-t} 1_A||_q0  <=  ||1_A||_q(t)

where q(t) < q0 improves on the support-free norm index because A is
exponentially small.  q(t) = 1 + e^a is recovered by shooting: pick the
initial condition a so that the scalar ODE

    u'(s) = C(b (1 + e^{-u(s)})),   u(0) = a,
    b = (1 - alpha) ln 2 / (1 + e^{-a}),

lands on u(t) = ln(q0 - 1).

Unit conventions: rates come in bits, but a, b, u and C's argument are
all in nats (this module's internals are natural-log throughout); the
conversion constant ln 2 appears only at the module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .entropy import LN2, _check_range, binary_entropy_inv
from .exponents import ExponentBound
from .oracle import CubeFunction, noise_operator, p_norm

__all__ = [
    "C_DOMAIN_TOL",
    "DomainViolationError",
    "ShootingRangeError",
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

_SHOOT_BRACKET_WIDTH = 5.0
_SHOOT_SCAN_POINTS = 9
_SHOOT_A_TOL = 1e-12
_RESIDUAL_LIMIT = 1e-9
_STEP_TOL = 1e-11
_MAX_STEPS = 1 << 20

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


class ShootingRangeError(RuntimeError):
    """No admissible initial condition in the search bracket; the
    requested time lies beyond the empirically certified range."""


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


def _solve_u(a: float, b: float, t: float, tol: float) -> tuple[float, int]:
    if t == 0.0:
        return a, 0
    # Clamped before ceil so a huge t cannot overflow to an infinite count.
    steps = max(4, math.ceil(min(t / 0.01, 1 << 12)))
    prev = _rk4(a, b, t, steps)
    total = steps
    while math.isfinite(prev) and steps < _MAX_STEPS:
        steps *= 2
        cur = _rk4(a, b, t, steps)
        total += steps
        if abs(cur - prev) < tol:
            return cur, total
        prev = cur
    if not math.isfinite(prev):
        raise ValueError(f"integration to t={t!r} returned {prev!r} after {steps} steps")
    raise RuntimeError(
        f"step halving did not converge below {tol} within {_MAX_STEPS} steps"
    )


def solve_u(
    a: float, b: float, t: float, *, tol: float = _STEP_TOL, steps: int | None = None
) -> float:
    """u(t) for the drive ODE u' = C(b(1 + e^-u)), u(0) = a.

    Fixed-step 4th-order integration with step halving until successive
    results differ by less than ``tol``; passing ``steps`` runs a single
    fixed-step pass instead (an order-of-convergence diagnostic).
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
    return _solve_u(a, b, t, tol)[0]


@dataclass(frozen=True)
class HcSolution:
    """Solved shooting state for the norm-index boundary problem.

    ``q = 1 + e^a`` is the improved norm index at time t; ``residual``
    is the terminal mismatch |u(t) - ln(q0 - 1)|; ``steps`` counts RK4
    steps across the whole solve; ``evaluations`` counts its ODE solves,
    the scan points plus the root iterations, the last of which gives the
    residual; ``bracket_sign_changes`` reports how many roots the coarse
    scan saw (1 means locally unique).
    """

    t: float
    alpha: float
    q0: float
    a: float
    b: float
    q: float
    residual: float
    steps: int
    evaluations: int
    bracket_sign_changes: int

    def __post_init__(self) -> None:
        constraint = self.b * (1.0 + math.exp(-self.a))
        if abs(constraint - (1.0 - self.alpha) * LN2) > 1e-10:
            raise ValueError(
                f"drive constraint violated: b(1+e^-a) = {constraint!r}, "
                f"expected {(1.0 - self.alpha) * LN2!r}"
            )
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
    bracket around the best point b is narrower than ``tol``; returns
    (b, f(b), iterations).
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
        tol1 = 0.5 * tol
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


def solve_q(alpha: float, q0: float, t: float) -> HcSolution:
    """Shooting solve: the a with b = (1-alpha) ln 2 / (1 + e^-a) such
    that u(t) from `solve_u` equals ln(q0 - 1).

    A coarse sign-change scan of a over [ln(q0-1) - 5, ln(q0-1)], then
    Brent's method on the last bracket it found; no sign change means t
    is beyond the certified existence range and raises
    :class:`ShootingRangeError` rather than extrapolating.  Any t > 2.5
    raises it before the scan, since C >= 2 rules out a sign change there.
    t = 0 returns q = q0 exactly; q(t) decreases in t on the solved range.

    alpha = 0 is rejected: the drive would start exactly at the ln 2
    endpoint of C's domain, where C has a square-root singularity that
    ruins the integrator's convergence order.  Callers certifying a
    singleton should pass any positive rate covering it (1/n does).
    NaN and infinite arguments are rejected with ValueError.
    """
    _check_range("rate", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("norm index", q0, 1.0, math.inf, lo_open=True, hi_open=True)
    _check_range("time", t, 0.0, math.inf, hi_open=True)
    target = math.log(q0 - 1.0)
    drive_level = (1.0 - alpha) * LN2
    # C >= 2 gives u(t) >= a + 2t, so past this t every scan point from
    # target - width up overshoots the target: the scan could find no
    # sign change, and for a huge t it would step-halve toward _MAX_STEPS.
    if t > _SHOOT_BRACKET_WIDTH / 2.0:
        raise ShootingRangeError(
            f"no a in [{target - _SHOOT_BRACKET_WIDTH!r}, {target!r}] can reach "
            f"the target at t={t!r} > {_SHOOT_BRACKET_WIDTH / 2.0!r}; "
            "the time lies beyond the certified existence range"
        )

    if t == 0.0:
        return HcSolution(
            t=0.0,
            alpha=alpha,
            q0=q0,
            a=target,
            b=drive_level / (1.0 + math.exp(-target)),
            q=q0,
            residual=0.0,
            steps=0,
            evaluations=0,
            bracket_sign_changes=1,
        )

    steps_total = 0

    def miss(a: float) -> float:
        nonlocal steps_total
        b = drive_level / (1.0 + math.exp(-a))
        u_end, used = _solve_u(a, b, t, _STEP_TOL)
        steps_total += used
        return u_end - target

    scan = [
        target - _SHOOT_BRACKET_WIDTH * (1.0 - k / (_SHOOT_SCAN_POINTS - 1))
        for k in range(_SHOOT_SCAN_POINTS)
    ]
    values = [miss(a) for a in scan]
    brackets = [
        k
        for k in range(len(scan) - 1)
        if (values[k] <= 0.0) != (values[k + 1] <= 0.0)
    ]
    if not brackets:
        raise ShootingRangeError(
            f"no sign change for a in [{scan[0]!r}, {scan[-1]!r}] at t={t!r}; "
            "the time lies beyond the certified existence range"
        )
    k = brackets[-1]
    root, f_root, iterations = _brent_root(
        miss, scan[k], scan[k + 1], values[k], values[k + 1], _SHOOT_A_TOL
    )
    return HcSolution(
        t=t,
        alpha=alpha,
        q0=q0,
        a=root,
        b=drive_level / (1.0 + math.exp(-root)),
        q=1.0 + math.exp(root),
        residual=abs(f_root),
        steps=steps_total,
        evaluations=len(scan) + iterations,
        bracket_sign_changes=len(brackets),
    )


def psi_bound(alpha: float, rho: float, split: float = 0.5) -> ExponentBound:
    """Upper exponent psi(alpha, rho) with P <= 2^(-n psi) for equal rates.

    Factorizes T_rho across the two sets with rho = e^(-2t), bounds each
    factor by the solved norm index at q0 = 2 (the symmetric split is the
    Cauchy-Schwarz step), giving psi = 2 (1 - alpha) / q(t) with
    t = -ln(rho) / 2.  ``split`` unbalances the factorization
    experimentally (t1 = split * (-ln rho), t2 the rest); the default is
    the symmetric split.  rho = 1 gives (1 - alpha) exactly.  Propagates
    :class:`ShootingRangeError` when rho is too far from 1.
    """
    _check_range("rate", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("correlation", rho, 0.0, 1.0, lo_open=True)
    _check_range("split", split, 0.0, 1.0, lo_open=True, hi_open=True)
    horizon = -math.log(rho)
    if split == 0.5:
        q = solve_q(alpha, 2.0, 0.5 * horizon).q
        value = 2.0 * (1.0 - alpha) / q
    else:
        first = solve_q(alpha, 2.0, split * horizon).q
        second = solve_q(alpha, 2.0, (1.0 - split) * horizon).q
        value = (1.0 - alpha) / first + (1.0 - alpha) / second
    return ExponentBound(value, "psi_upper")


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
