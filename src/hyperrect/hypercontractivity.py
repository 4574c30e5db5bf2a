"""Support-aware hypercontractivity: the C function, the drive ODE, the
shooting solve for the norm index q(t), and the induced rectangle bound.

The machinery bounds, and checks in floats on small cubes, inequalities
of the form

    ||T_{e^-t} 1_A||_q0  <=  ||1_A||_q(t)

where q(t) < q0 improves on the support-free norm index because A is
exponentially small.  q(t) = 1 + e^a is recovered by shooting: pick the
initial condition a so that the scalar ODE

    u'(s) = C(b (1 + e^{-u(s)})),   u(0) = a,
    b = (1 - alpha) ln 2 / (1 + e^{-a}),

lands on u(t) = ln(q0 - 1).  ODE and C: Polyanskiy-Samorodnitsky (2019).
`solve_q` finds the shot by quadrature of the separated ODE; `solve_u`
integrates the ODE itself by fixed-step RK4, as the independent
cross-check.

Unit conventions: rates come in bits, but a, b, u and C's argument are
all in nats (this module's internals are natural-log throughout); the
conversion constant ln 2 appears only at the module boundary.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .entropy import LN2, _check_range, binary_entropy, binary_entropy_inv
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

# Gauss-Legendre nodes per panel, two panels per shot; test_hypercontractivity's
# mpmath references hold q to 1e-12 relative with them.
_PANEL_NODES = 24

# The panel in v = ln(2y) starts at most this many e-folds of y below its
# upper end y_m: the part of t it drops is below e^-32 y_m (ln(1/y) + 1),
# while a longer panel would lose more than that to the rule's error.
_TAIL_SPAN = 32.0

# solve_u's RK4 steps per unit of t.  Against the quadrature, on drives
# from solve_q's shots with t up to its horizon, 640 misses by at most
# 3.3e-11 and 512 by 4.9e-11, where a starts near -30.  Finer counts gain
# little: the rest is C's own error where b nears 1e-6, and summed
# roundoff on long drives.
_RK4_STEPS_PER_T = 640

# Longest t solve_u accepts: it caps one call at 30 * 640 = 19,200 steps.
_MAX_SOLVE_T = 30.0


class DomainViolationError(ValueError):
    """C's argument fell outside [0, ln 2]."""

    def __init__(self, argument: float):
        super().__init__(
            f"C argument {argument!r} outside [0, ln 2] "
            f"(beyond the {C_DOMAIN_TOL} roundoff tolerance)"
        )
        self.argument = argument


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


def _rk4(a: float, b: float, t: float, steps: int) -> float:
    h = t / steps
    u = a
    for _ in range(steps):
        k1 = c_function(b * (1.0 + math.exp(-u)))
        k2 = c_function(b * (1.0 + math.exp(-(u + 0.5 * h * k1))))
        k3 = c_function(b * (1.0 + math.exp(-(u + 0.5 * h * k2))))
        k4 = c_function(b * (1.0 + math.exp(-(u + h * k3))))
        u += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def solve_u(a: float, b: float, t: float) -> float:
    """u(t) for the drive ODE u' = C(b(1 + e^-u)), u(0) = a.

    Classical RK4 with max(4, ceil(640 t)) equal steps.  `solve_q` does
    not call it; it is the quadrature's independent cross-check.  Every
    stage slope is C >= 2 > 0, so u only rises, and C's argument moves
    monotonically from the checked b(1 + e^-a) toward b, inside C's
    domain.  t = 0 returns a exactly; t > 30 (_MAX_SOLVE_T) raises
    ValueError, which bounds one call at 19,200 steps.
    """
    _check_range("time", t, 0.0, math.inf, hi_open=True)
    # Below -ln(max float), e^-a and so C's argument would overflow.
    _check_range("a", a, -math.log(sys.float_info.max), math.inf, hi_open=True)
    _check_range("b", b, -math.inf, math.inf, lo_open=True, hi_open=True)
    c_function(b * (1.0 + math.exp(-a)))  # DomainViolationError outside C's domain
    if t > _MAX_SOLVE_T:
        raise ValueError(
            f"time {t!r} exceeds {_MAX_SOLVE_T}, the longest drive solve_u integrates"
        )
    if t == 0.0:
        return a
    return _rk4(a, b, t, max(4, math.ceil(t * _RK4_STEPS_PER_T)))


@dataclass(frozen=True)
class HcSolution:
    """Solved shooting state for the norm-index boundary problem.

    ``q = 1 + e^a`` is the improved norm index at time t; ``b`` is derived
    from a and alpha by the drive constraint, and ``bracket`` from t and
    q0: the interval [ln(q0 - 1) - 2t/ln 2, ln(q0 - 1) - 2t] that holds a
    for every drive.  ``residual`` bounds the terminal mismatch
    |u(t) - ln(q0 - 1)| by (2/ln 2)|t(a) - t|, since u' <= 2/ln 2;
    ``evaluations`` counts the shots, each one quadrature of t(a) and
    t'(a) (the Newton iterates, the last of which is a and gives the
    residual); ``steps`` counts the integrand evaluations across them,
    two panels of _PANEL_NODES per shot.
    """

    t: float
    alpha: float
    q0: float
    a: float
    q: float
    residual: float
    evaluations: int

    @property
    def b(self) -> float:
        return (1.0 - self.alpha) * LN2 / (1.0 + math.exp(-self.a))

    @property
    def bracket(self) -> tuple[float, float]:
        target = math.log(self.q0 - 1.0)
        return target - 2.0 * self.t / LN2, target - 2.0 * self.t

    @property
    def steps(self) -> int:
        return self.evaluations * 2 * _PANEL_NODES

    def __post_init__(self) -> None:
        if self.residual > _RESIDUAL_LIMIT:
            raise ValueError(
                f"terminal residual {self.residual!r} exceeds {_RESIDUAL_LIMIT}"
            )
        if not 1.0 < self.q <= self.q0:
            raise ValueError(f"norm index {self.q!r} outside (1, q0={self.q0!r}]")


@functools.cache
def _quad_rule() -> tuple[tuple[float, float], ...]:
    """Gauss-Legendre nodes and weights on [-1, 1] for one panel of a
    shot, built on first use: importing the package skips numpy's
    polynomial module and the eigensolve behind it."""
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    return tuple(zip(nodes.tolist(), weights.tolist()))


def _c_terms(lam: float, y: float) -> tuple[float, float]:
    """(1/C(lam), g(lam)) with g = lam C'(lam) / C(lam)^2 >= 0, where y is
    C's parameter, h(y) = 1 - lam / ln 2: with x = 1 - 2y, r = sqrt(1 - x^2)
    and 1/C = lam / D, D = 2x^2 / (1 + r), dD/dx = 2x/r and dlam/dx =
    atanh x give g = (lam/D)(2x (lam/D) / (r atanh x) - 1).  Below C's
    series cutoff, C = 2 + lam/3 and g = lam/12."""
    if lam < _C_SERIES_CUTOFF:
        return 1.0 / (2.0 + lam / 3.0), lam / 12.0
    x, two_y = 1.0 - 2.0 * y, max(2.0 * y, sys.float_info.min)
    r = math.sqrt(two_y * (1.0 + x))
    inv_d = lam * (1.0 + r) / (2.0 * x * x)
    return inv_d, inv_d * (4.0 * x * inv_d / (r * (math.log1p(x) - math.log(two_y))) - 1.0)


def _shot(
    alpha: float, a: float, target: float, y_a: float, inv_c_beta: float
) -> tuple[float, float]:
    """(t(a), t'(a)) from the same 48 nodes.  t(a) is (U - a)/C(b) plus the
    pole-free integral over y in [y_a, y_U], by one Gauss-Legendre panel
    in v = ln(2y) and one linear in y (see `solve_q`).  Differentiating in
    a gives t'(a) = -1/C(beta) - integral_a^U g(lam(u)) du / (1 + e^a),
    beta = (1 - alpha) ln 2, whose integral takes the same pole split:
    g(b)(U - a) plus that of atanh(x) (g(lam) - g(b)) / (lam - b).  Nodes
    get 2y = 1 - x and ln(2y) to full relative precision, so nothing
    cancels as y -> 0 or y -> 1/2."""
    exp_minus_a, one_plus_exp_a = math.exp(-a), 1.0 + math.exp(a)
    b = (1.0 - alpha) * LN2 / (1.0 + exp_minus_a)
    # h(y_b) = 1 - b / ln 2 and h(y_U) = 1 - b (1 + e^-U) / ln 2, free of cancellation.
    inv_c_b, g_b = _c_terms(b, binary_entropy_inv((alpha + exp_minus_a) / (1.0 + exp_minus_a)))
    y_u = binary_entropy_inv(alpha - (1.0 - alpha) * math.expm1(a - target) / one_plus_exp_a)
    # The floor only keeps ln(2 y_m) finite when y_U rounds to 0.
    y_m = max(math.sqrt(y_a * y_u), 0.25 * y_u, sys.float_info.min)
    v_m = math.log(2.0 * y_m)
    v_lo = math.log(2.0 * max(y_a, y_m * math.exp(-_TAIL_SPAN)))
    mid, half = 0.5 * (v_m + v_lo), 0.5 * (v_m - v_lo)
    near_zero = near_zero_slope = 0.0
    for z, w in _quad_rule():
        v = mid + half * z
        two_y = math.exp(v)
        x = -math.expm1(v)
        log_1px = math.log1p(x)
        atanh_x = 0.5 * (log_1px - v)
        lam = x * atanh_x + 0.5 * math.log1p(-x * x) if x < 0.5 else log_1px - two_y * atanh_x
        # Only a shot whose whole lam range lies within rounding of b puts
        # a node here, and its remainder is of the order of that rounding.
        if lam > b:
            r = math.sqrt(two_y * (1.0 + x))
            inv_d = lam / (2.0 * x * x / (1.0 + r))
            scale = w * two_y * atanh_x / (lam - b)
            near_zero += scale * (inv_d - inv_c_b)
            near_zero_slope += scale * (inv_d * (2.0 * x * inv_d / (r * atanh_x) - 1.0) - g_b)
    near_pole = near_pole_slope = 0.0
    for z, w in _quad_rule():
        two_y = y_m + y_u + (y_u - y_m) * z
        x = 1.0 - two_y
        log_1px = math.log1p(x)
        atanh_x = 0.5 * (log_1px - math.log(two_y))
        lam = x * atanh_x + 0.5 * math.log1p(-x * x) if x < 0.5 else log_1px - two_y * atanh_x
        if lam > b:
            r = math.sqrt(two_y * (1.0 + x))
            inv_d = lam / (2.0 * x * x / (1.0 + r))
            scale = w * atanh_x / (lam - b)
            near_pole += scale * (inv_d - inv_c_b)
            near_pole_slope += scale * (inv_d * (2.0 * x * inv_d / (r * atanh_x) - 1.0) - g_b)
    span = target - a
    g_integral = g_b * span + half * near_zero_slope + (y_u - y_m) * near_pole_slope
    return (span * inv_c_b + half * near_zero + (y_u - y_m) * near_pole,
            -inv_c_beta - g_integral / one_plus_exp_a)


def solve_q(alpha: float, q0: float, t: float) -> HcSolution:
    """Shooting solve: the a with b = (1-alpha) ln 2 / (1 + e^-a) such
    that the drive ODE started at u(0) = a reaches ln(q0 - 1) at time t.

    The ODE u' = C(lam(u)), lam(u) = b(1 + e^-u), is scalar and
    autonomous with C >= 2 > 0, so it separates: the shot from a reaches
    U = ln(q0 - 1) at time

        t(a) = integral_a^U du / C(b(1 + e^-u)),

    and the solve is the root of t(a) = t.  Along the path lam falls from
    lam_a = (1 - alpha) ln 2 at u = a to lam_U = b q0 / (q0 - 1) > b at
    u = U, so it stays in (b, lam_a], inside C's domain, for every t.
    Since 2 <= C <= 2/ln 2, (U - a) ln 2 / 2 <= t(a) <= (U - a) / 2: the
    root lies in [U - 2t/ln 2, U - 2t] for every t > 0, and it is unique
    since t(a) decreases in a.

    Newton's method runs on that bracket from the ODE's second-order
    expansion in t, with t'(a) from each shot's own nodes (see `_shot`).
    t' <= -1/C(beta) since g >= 0, so a shot's miss puts the root within
    C(beta) |t(a) - t| of a, on the side its sign gives; each shot narrows
    the bracket by both, and the last shot is returned once the bracket
    is at most 2 tol wide, tol = 2 macheps |a| + 5e-15 as in Brent's
    method.  A Newton step that leaves the bracket, or follows a shot that
    failed to halve it, becomes a bisection, so a solve takes at most
    2 ceil(log2(width / 1e-14)) shots; psi_bound's drives take 2 or 3.

    Each shot integrates in C's own parameter y in [0, 1/2], with
    x = 1 - 2y: lam = ln 2 (1 - h(y)) = x atanh x + ln(1 - x^2) / 2 and
    C = D / lam, D = 2 - 4 sqrt(y(1 - y)) = 2x^2 / (1 + sqrt(1 - x^2)).
    Since dlam/dx = atanh x and du = -dlam / (lam - b),

        t(a) = integral_{x_U}^{x_a} atanh(x) lam / ((lam - b) D) dx,

    where lam(x_a) = lam_a, so y_a = h^-1(alpha) serves every shot, and
    lam(x_U) = lam_U.  The pole at lam = b lies just below x_U when q0 is
    large or b is small.  Writing lam / D = 1/C(b) + (1/C(lam) - 1/C(b))
    splits it off exactly: the first part integrates to
    ln((lam_a - b) / (lam_U - b)) / C(b) = (U - a) / C(b), and the rest,
    atanh(x) (1/C(lam) - 1/C(b)) / (lam - b), is bounded on [x_U, x_a].
    Its one singular point near the path is y = 0, where atanh, lam and D
    carry ln y and sqrt y.  Two 24-node Gauss-Legendre panels take it,
    split at y_m = max(sqrt(y_a y_U), y_U / 4): one in v = ln(2y) on
    [y_a, y_m], which sends y = 0 to -inf and turns y^k ln y into
    polynomials times exponentials in v, and one linear in y on
    [y_m, y_U], which keeps y = 0 at least a third of its length away.  A
    shot inverts the entropy twice, for y_U and for y_b; every node is
    explicit.  q agrees with 32-digit mpmath references to about 1e-13,
    and the tests hold it to 1e-12.  `solve_u` (RK4) stays as the
    independent cross-check.

    t = 0 returns q = q0 exactly, and so does a t too small to move
    ln(q0 - 1) - 2t off ln(q0 - 1); q(t) decreases in t.  A t with
    ln(q0 - 1) - 2t <= -53 ln 2 raises ValueError: q would round to 1.
    alpha = 0 is rejected: the drive would start exactly at the ln 2
    endpoint of C's domain.  Callers checking a singleton should pass
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

    lo, hi = target - 2.0 * t / LN2, target - 2.0 * t
    if hi == target:
        # The bracket's upper end is a = U itself, whose shot takes no time,
        # so the miss is t and u' <= 2/ln 2 bounds the residual.
        return HcSolution(t=t, alpha=alpha, q0=q0, a=target, q=q0,
                          residual=2.0 * t / LN2, evaluations=0)

    y_a = binary_entropy_inv(alpha)
    # The inverse stops at an absolute 1e-13 in p, which leaves y_a up to 20%
    # off for alpha near 1e-12; y_a ends the integral, where 1/C's square-root
    # slope near lam = ln 2 amplifies that error.  From there two Newton steps
    # on h(y) = alpha are in quadratic reach, and below y = 1/4, h' >= log2 3.
    if 0.0 < y_a < 0.25:
        for _ in range(2):
            y_a -= (binary_entropy(y_a) - alpha) / math.log2((1.0 - y_a) / y_a)

    # u(t) = a + C(beta) t - g(beta) C(beta)^3 t^2 / (2 (1 + e^a)) + O(t^3).
    inv_c_beta, g_beta = _c_terms((1.0 - alpha) * LN2, y_a)
    a = target - t / inv_c_beta
    a += 0.5 * g_beta * (t / inv_c_beta) ** 2 / inv_c_beta / (1.0 + math.exp(a))
    a = min(max(a, lo), hi)
    shots = 0
    while True:
        time, slope = _shot(alpha, a, target, y_a, inv_c_beta)
        miss = time - t
        shots += 1
        # The root lies beyond a on the side of the miss's sign, and within C(beta) |miss|.
        width, reach = hi - lo, a + miss / inv_c_beta
        lo, hi = (a, min(hi, reach)) if miss > 0.0 else (max(lo, reach), a)
        if hi - lo <= 2.0 * (2.0 * math.ulp(1.0) * abs(a) + 0.5 * _SHOOT_A_TOL):
            break
        a -= miss / slope
        if not (lo <= a <= hi and hi - lo <= 0.5 * width):
            a = 0.5 * (lo + hi)
    return HcSolution(t=t, alpha=alpha, q0=q0, a=a, q=1.0 + math.exp(a),
                      residual=abs(miss) * 2.0 / LN2, evaluations=shots)


def psi_bound(alpha: float, rho: float) -> ExponentBound:
    """Upper exponent psi(alpha, rho) with P <= 2^(-n psi) for equal rates.

    Factorizes T_rho = T_{e^-t} T_{e^-t} across the two sets with
    rho = e^(-2t), bounds each factor by the solved norm index at q0 = 2
    (the Cauchy-Schwarz step), giving psi = 2 (1 - alpha) / q(t) with
    t = -ln(rho) / 2.  An unequal split, times s h and (1 - s) h with
    h = -ln rho, gives (1 - alpha)(1/q(s h) + 1/q((1 - s) h)), which
    Jensen's inequality keeps at or below the symmetric value since
    1/q(t) is concave in t.  rho = 1 gives (1 - alpha) exactly; every
    rho > 0 solves, until q(t) rounds to 1 (ValueError from `solve_q`,
    near rho = 1e-16).
    """
    _check_range("rate", alpha, 0.0, 1.0, lo_open=True, hi_open=True)
    _check_range("correlation", rho, 0.0, 1.0, lo_open=True)
    q = solve_q(alpha, 2.0, -math.log(rho) / 2.0).q
    return ExponentBound(2.0 * (1.0 - alpha) / q, "psi_upper")


@dataclass(frozen=True)
class HcCertificate:
    """Outcome of a direct small-n check of the norm inequality; it passes
    when rhs - lhs is at least -1e-12."""

    lhs: float
    rhs: float
    q: float
    alpha: float
    q0: float
    t: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -1e-12


def verify_hc_inequality(
    a_set, q0: float, t: float, alpha: float | None = None
) -> HcCertificate:
    """Check ||T_{e^-t} 1_A||_q0 <= ||1_A||_q(t) exactly on a small cube.

    The left side runs through the oracle's spectral noise operator, whose
    dense 2^n array caps n at MAX_FUNCTION_DIM, as CubeSet does; the
    right side is (|A| / 2^n)^(1/q) with q from the shooting solve.  The
    rate defaults to log2|A| / n, the tightest admissible, lifted to 1/n
    for a singleton since the solver needs a positive rate; an explicit
    ``alpha`` must still satisfy |A| <= 2^(n alpha).  The full cube has
    rate 1, outside the solver's domain, and raises ValueError: both
    sides equal 1 there for every q.
    """
    _check_range("norm index", q0, 1.0, math.inf, lo_open=True, hi_open=True)
    _check_range("time", t, 0.0, math.inf, hi_open=True)
    n = a_set.n
    if len(a_set) == 1 << n:
        raise ValueError(
            f"A is the full cube {{0,1}}^{n}: its rate 1 lies outside the "
            "solver's (0, 1), and both sides equal 1"
        )
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
    return HcCertificate(
        lhs=lhs,
        rhs=rhs,
        q=solution.q,
        alpha=alpha,
        q0=q0,
        t=t,
    )
