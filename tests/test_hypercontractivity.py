"""Tests for the improved hypercontractivity machinery.

The C function is pinned at its exact endpoints and at an independently
computed interior point of its parametrization; the ODE and shooting
layers are checked against the identities they must satisfy at t = 0,
their stated first-order expansions, and a direct finite-n verification
of the norm inequality they certify.
"""

import math
import random
import time

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperrect.hypercontractivity as hc_module
from hyperrect import (
    CubeSet,
    DomainViolationError,
    binary_entropy,
    c_function,
    hct_upper_exponent,
    psi_bound,
    solve_q,
    solve_u,
    sphere_exponent,
    thm1_expansion,
    verify_hc_inequality,
)

LN2 = math.log(2)


def bisection_q(alpha, q0, t):
    """Independent RK4 oracle for q(t), valid for t <= 2.5: a 9-point
    sign-change scan of a over [ln(q0-1) - 5, ln(q0-1)] through
    `solve_u`, then plain bisection on the last bracket down to width
    1e-12."""
    target = math.log(q0 - 1)
    level = (1 - alpha) * LN2

    def miss(a):
        return solve_u(a, level / (1 + math.exp(-a)), t) - target

    scan = [target - 5 + 5 * k / 8 for k in range(9)]
    values = [miss(a) for a in scan]
    k = max(k for k in range(8) if (values[k] <= 0) != (values[k + 1] <= 0))
    lo, hi, f_lo = scan[k], scan[k + 1], values[k]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = miss(mid)
        if (f_mid <= 0) == (f_lo <= 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 1 + math.exp(0.5 * (lo + hi))


def mpmath_q(alpha, q0, t, a_start):
    """32-digit q(t), independent of the float quadrature.

    With lam = ln2 (1 - h(y)) (C's own parametrization), du = ln((1-y)/y)
    dy / (lam - b) and 1/C = lam / (2 - 4 sqrt(y(1-y))), so the time to
    reach ln(q0-1) is an elementary integral over y from h^-1(alpha) to
    the yT with lam(yT) = b q0/(q0-1).  mpmath's tanh-sinh rule integrates
    it and its secant method solves t(a) = t, started at ``a_start``.
    h^-1 brackets its root: 2y <= h(y) <= 2 sqrt(y) on [0, 1/2] put
    h^-1(level) in [level^2/4, level/2].
    """
    with mpmath.workdps(32):
        alpha, q0, t = mpmath.mpf(alpha), mpmath.mpf(q0), mpmath.mpf(t)
        ln2 = mpmath.log(2)

        def h(y):
            return -(y * mpmath.log(y) + (1 - y) * mpmath.log(1 - y)) / ln2

        def h_inv(level):
            return mpmath.findroot(lambda y: h(y) - level, (level**2 / 4, level / 2),
                                   solver="anderson")

        y0 = h_inv(alpha)

        def time_to_target(a):
            b = (1 - alpha) * ln2 / (1 + mpmath.exp(-a))
            y_end = h_inv(1 - b * q0 / ((q0 - 1) * ln2))

            def integrand(y):
                lam = ln2 * (1 - h(y))
                return (mpmath.log((1 - y) / y) * lam
                        / ((lam - b) * (2 - 4 * mpmath.sqrt(y * (1 - y)))))

            return mpmath.quad(integrand, [y0, y_end])

        a_start = mpmath.mpf(a_start)
        root = mpmath.findroot(lambda a: time_to_target(a) - t, (a_start, a_start - 1e-9))
        return 1 + mpmath.exp(root)


def lam_at(y):
    """The C parametrization: lambda = ln2 * (1 - h(y)) for y in [0, 1/2]."""
    return LN2 * (1 - binary_entropy(y))


class TestCFunction:
    def test_lower_endpoint(self):
        assert c_function(0.0) == 2.0

    def test_upper_endpoint(self):
        assert c_function(LN2) == pytest.approx(2 / LN2, abs=1e-12)

    def test_interior_point_quarter(self):
        lam = lam_at(0.25)
        expected = (2 - 4 * math.sqrt(3 / 16)) / lam
        assert c_function(lam) == pytest.approx(expected, abs=1e-10)

    def test_parametrization_grid(self):
        # C(ln2 (1-h(y))) = (2 - 4 sqrt(y(1-y))) / (ln2 (1-h(y))).
        for y in [0.05, 0.1, 0.2, 0.3, 0.4, 0.45]:
            lam = lam_at(y)
            expected = (2 - 4 * math.sqrt(y * (1 - y))) / lam
            assert c_function(lam) == pytest.approx(expected, abs=1e-9)

    def test_strictly_increasing(self):
        lams = [LN2 * i / 1000 for i in range(1001)]
        vals = [c_function(lam) for lam in lams]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_midpoint_convex(self):
        lams = [LN2 * i / 1000 for i in range(1001)]
        vals = [c_function(lam) for lam in lams]
        for i in range(1, 1000):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12

    def test_range(self):
        for i in range(101):
            lam = LN2 * i / 100
            assert 2 - 1e-9 <= c_function(lam) <= 2 / LN2 + 1e-9

    def test_series_branch_continuity(self):
        # Values just below and above the small-lambda series cutoff agree.
        assert c_function(9e-7) == pytest.approx(c_function(1.1e-6), abs=1e-7)

    def test_domain_clamp_within_tolerance(self):
        assert c_function(-1e-10) == 2.0
        assert c_function(LN2 + 1e-10) == pytest.approx(2 / LN2, abs=1e-9)

    def test_domain_rejected_beyond_tolerance(self):
        with pytest.raises(DomainViolationError):
            c_function(-1e-6)
        with pytest.raises(DomainViolationError):
            c_function(LN2 + 1e-6)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_domain_violation(self, lam):
        with pytest.raises(DomainViolationError):
            c_function(lam)


class TestSolveU:
    def test_identity_at_zero(self):
        for a in [-2.0, 0.0, 0.7]:
            b = 0.3 * LN2 / (1 + math.exp(-a))
            assert solve_u(a, b, 0.0) == a

    def test_initial_slope(self):
        # du/dt at 0 equals C(b(1+e^{-a})).
        a = 0.0
        b = 0.4 * LN2 / (1 + math.exp(-a))
        h = 1e-6
        slope = (solve_u(a, b, h) - a) / h
        assert slope == pytest.approx(c_function(b * (1 + math.exp(-a))), abs=1e-5)

    def test_b_derivative_vanishes_at_zero(self):
        # At fixed small t, du/db = O(t); the t=0 partial is zero.
        a = 0.0
        b = 0.3 * LN2 / (1 + math.exp(-a))
        db = 1e-7
        for t, cap in [(1e-4, 1e-3), (1e-5, 1e-4)]:
            du = solve_u(a, b + db, t) - solve_u(a, b - db, t)
            assert abs(du / (2 * db)) < cap

    def test_nondecreasing_in_t(self):
        a, q0 = -0.5, 2.0
        b = 0.5 * LN2 / (1 + math.exp(-a))
        ts = [0.0, 0.05, 0.1, 0.2, 0.4]
        us = [solve_u(a, b, t) for t in ts]
        assert all(x < y for x, y in zip(us, us[1:]))

    def test_growth_rate_bracket(self):
        # C is between 2 and 2/ln2, so u grows at least 2t and at most
        # (2/ln2) t over any horizon inside the domain.
        a = 0.0
        b = 0.5 * LN2 / (1 + math.exp(-a))
        t = 0.3
        u = solve_u(a, b, t)
        assert a + 2 * t - 1e-9 <= u <= a + (2 / LN2) * t + 1e-9

    def test_domain_violation_rejected(self):
        with pytest.raises(DomainViolationError):
            solve_u(0.0, 1.01 * LN2 / 2, 0.1)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            solve_u(0.0, 0.1, -0.01)

    @pytest.mark.parametrize(
        "a, b, t",
        [(math.nan, 0.1, 0.1), (0.0, math.nan, 0.1), (0.0, math.inf, 0.1),
         (-math.inf, 0.1, 0.1), (0.0, 0.1, math.nan), (0.0, 0.1, math.inf)],
    )
    def test_non_finite_rejected(self, a, b, t):
        with pytest.raises(ValueError):
            solve_u(a, b, t)

    @pytest.mark.parametrize("t", [100.0, 1e4])
    def test_unreachable_tolerance_rejected_fast(self, t):
        # Past t = 30 the drive is refused before its first step.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds"):
            solve_u(0.0, 0.3, t)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "a, b, t, expected",
        [(0.0, 0.3, 0.5, 1.13550987139921), (0.0, 0.3, 2.0, 4.35778166860962),
         (0.0, 0.3, 10.0, 21.403414916465955), (-2.0, 0.05, 10.0, 18.248389157094394)],
    )
    def test_bits_unchanged_below_the_limit(self, a, b, t, expected):
        # Recorded from an adaptive solve, each within 2.2e-13 of the
        # quadrature's u(t); the fixed step count lands within 1.8e-13.
        assert solve_u(a, b, t) == pytest.approx(expected, abs=1e-11)

    def test_matches_a_finer_fixed_step_pass(self):
        a = -0.3
        b = 0.4 * LN2 / (1 + math.exp(-a))
        assert solve_u(a, b, 0.2) == pytest.approx(hc_module._rk4(a, b, 0.2, 4096), abs=1e-12)


class TestSolveQ:
    def test_t_zero_exact(self):
        for alpha, q0 in [(0.5, 2.0), (0.3, 1.5), (0.8, 4.0)]:
            sol = solve_q(alpha, q0, 0.0)
            assert sol.q == q0
            assert sol.residual == 0.0

    def test_system_invariant(self):
        sol = solve_q(0.5, 2.0, 0.05)
        assert sol.b * (1 + math.exp(-sol.a)) == pytest.approx(
            0.5 * LN2, abs=1e-10
        )
        assert sol.residual <= 1e-9
        assert 1.0 < sol.q <= sol.q0

    def test_frozen_value(self):
        # Pinned from the first converged run; guards against regressions.
        sol = solve_q(0.5, 2.0, 0.05)
        assert sol.q == pytest.approx(1.8979388012687473, abs=1e-9)

    def test_first_order_slope(self):
        # (q0 - q(t))/t -> (q0-1) C((1-alpha) ln2) as t -> 0.
        alpha, q0 = 0.5, 2.0
        limit = (q0 - 1) * c_function((1 - alpha) * LN2)
        t = 0.005
        sol = solve_q(alpha, q0, t)
        assert (q0 - sol.q) / t == pytest.approx(limit, rel=0.1)

    def test_a_dot_at_zero(self):
        # a(t) = ln(q(t)-1) has initial slope -C((1-alpha) ln2).
        alpha, q0 = 0.4, 2.0
        expected = -c_function((1 - alpha) * LN2)
        t = 0.002
        sol = solve_q(alpha, q0, t)
        a0 = math.log(q0 - 1)
        assert (sol.a - a0) / t == pytest.approx(expected, rel=0.05)

    def test_q_decreasing_in_t(self):
        qs = [solve_q(0.5, 2.0, t).q for t in [0.02, 0.05, 0.1, 0.2]]
        assert all(x > y for x, y in zip(qs, qs[1:]))

    def test_slope_richardson(self):
        # |q(t) - q0 + (q0-1) C((1-alpha)ln2) t| / t^2 stays bounded.
        alpha, q0 = 0.5, 2.0
        c0 = (q0 - 1) * c_function((1 - alpha) * LN2)
        ratios = []
        for t in [0.02, 0.01, 0.005]:
            sol = solve_q(alpha, q0, t)
            ratios.append(abs(sol.q - q0 + c0 * t) / t**2)
        assert max(ratios) <= 4 * min(ratios)

    def test_single_root_bracket(self):
        # 2 <= C <= 2/ln2 puts the one root in [U - 2t/ln2, U - 2t].
        for alpha, q0, t in [(0.5, 2.0, 0.05), (0.1, 100.0, 3.45), (0.9, 1.5, 10.0)]:
            sol = solve_q(alpha, q0, t)
            target = math.log(q0 - 1)
            assert target - 2 * t / LN2 <= sol.a <= target - 2 * t

    def test_out_of_range_reported(self):
        # Past ln(q0-1) - 2t = -53 ln2 the norm index rounds to 1.
        horizon = 53 * LN2 / 2
        with pytest.raises(ValueError, match="rounds to 1"):
            solve_q(0.5, 2.0, horizon)
        assert solve_q(0.5, 2.0, horizon - 0.5).q > 1.0

    def test_huge_t_refused_fast(self):
        start = time.perf_counter()
        for t in (1e3, 1e307):
            with pytest.raises(ValueError):
                solve_q(0.5, 2.0, t)
        assert time.perf_counter() - start < 0.1

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            solve_q(0.0, 2.0, 0.01)
        with pytest.raises(ValueError):
            solve_q(1.0, 2.0, 0.01)

    def test_bad_q0(self):
        with pytest.raises(ValueError):
            solve_q(0.5, 1.0, 0.01)

    @pytest.mark.parametrize(
        "alpha, q0, t",
        [(0.5, math.inf, 0.1), (0.5, math.nan, 0.1), (0.5, 2.0, math.nan),
         (0.5, 2.0, math.inf), (math.nan, 2.0, 0.1)],
    )
    def test_non_finite_rejected(self, alpha, q0, t):
        with pytest.raises(ValueError):
            solve_q(alpha, q0, t)

    def test_matches_bisection_oracle(self):
        rng = random.Random(23)
        for _ in range(6):
            alpha, q0, t = rng.uniform(0.1, 0.9), rng.uniform(1.5, 4.0), rng.uniform(0.01, 0.12)
            assert solve_q(alpha, q0, t).q == pytest.approx(bisection_q(alpha, q0, t), abs=1e-10)

    def test_root_finder_step_count(self):
        # steps counts integrand evaluations, two 24-node panels per shot:
        # 288 here, where RK4 shooting made 2680 C evaluations.
        assert solve_q(0.5, 2.0, 0.1).steps <= 400

    def test_evaluations_count_the_ode_solves(self, monkeypatch):
        # Each shot evaluates the pole-free integrand at 2 x 24 nodes and
        # inverts the entropy twice, for y_U and for the pole inside C(b);
        # y_a = h^-1(alpha) is inverted once per solve.
        nodes, inversions, c_calls = [], [], []
        real_node = hc_module._pole_free
        real_inv = hc_module.binary_entropy_inv
        real_c = hc_module.c_function

        def counted_node(*args):
            nodes.append(args)
            return real_node(*args)

        def counted_inv(y):
            inversions.append(y)
            return real_inv(y)

        def counted_c(lam):
            c_calls.append(lam)
            return real_c(lam)

        monkeypatch.setattr(hc_module, "_pole_free", counted_node)
        monkeypatch.setattr(hc_module, "binary_entropy_inv", counted_inv)
        monkeypatch.setattr(hc_module, "c_function", counted_c)
        sol = solve_q(0.5, 2.0, 0.1)
        # One quadrature per shot: the two bracket ends, then at least
        # one root iteration.
        assert 2 < sol.evaluations < 2 + 40
        assert sol.steps == len(nodes) == sol.evaluations * 48
        assert len(c_calls) == sol.evaluations
        assert len(inversions) == 1 + 2 * sol.evaluations
        assert solve_q(0.5, 2.0, 0.0).evaluations == 0

    def test_time_below_float_resolution_returns_q0(self):
        # 2t vanishes against ln(q0 - 1), so the bracket is one point; its
        # zero-length shot used to divide by zero.
        sol = solve_q(1e-320, 1.5, 1e-320)
        assert sol.q == 1.5
        assert sol.evaluations == 0
        assert sol.residual <= 1e-319

    @pytest.mark.parametrize(
        "alpha, q0, t",
        [(1e-9, 2.0, 0.05), (1e-5, 2.0, 0.05), (0.5, 2.0, 1e-5), (0.5, 2.0, 0.1),
         (0.3, 100.0, 0.2), (0.5, 2.0, -math.log(1e-3) / 2), (0.1, 100.0, 3.45),
         (0.9999, 2.0, 0.5), (0.02, 8.0, 2.0), (0.5, 2.0, 5.0),
         (1e-7, 2.0, 1.0), (0.12, 90.0, 3.1), (0.5, 1.01, 0.01),
         (1e-12, 1e3, 0.5), (1e-12, 1e4, 0.5), (3e-12, 1e5, 0.5)],
    )
    def test_matches_mpmath(self, alpha, q0, t):
        # The old fixed scan refused the three points with t > 2.5; the last
        # three sent the reference's unbracketed h^-1 out of (0, 1/2).
        sol = solve_q(alpha, q0, t)
        assert sol.q == pytest.approx(float(mpmath_q(alpha, q0, t, sol.a)), rel=1e-12)

    def test_small_rate_large_norm_index_matches_mpmath(self):
        # y_a = h^-1(alpha) ends the integral; the entropy inverse alone
        # leaves it 6e-4 off at alpha = 1e-11, which q0 = 1e6 turned into
        # a 1.1e-12 error in q.
        alpha, q0, t = 1e-11, 1e6, 0.5
        sol = solve_q(alpha, q0, t)
        assert sol.q == pytest.approx(float(mpmath_q(alpha, q0, t, sol.a)), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha, q0, t",
        # lam - b within rounding at every node; y_U rounds to 0.
        [(5e-324, 1e16, 0.5), (5e-324, 1.7e308, 1e-13)],
    )
    def test_degenerate_shots_solve(self, alpha, q0, t):
        sol = solve_q(alpha, q0, t)
        assert 1.0 < sol.q <= q0
        assert sol.residual <= 1e-12

    def test_never_integrates_rk4(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("RK4 on the shooting path")

        monkeypatch.setattr(hc_module, "_rk4", refuse)
        solve_q(0.5, 2.0, 0.1)
        psi_bound(0.5, 0.8)

    def test_small_rate_is_fast(self):
        # Step halving near C's singular endpoint used to take 11.6 s here.
        start = time.perf_counter()
        solve_q(1e-5, 2.0, 0.05)
        assert time.perf_counter() - start < 0.1


class TestPsiBound:
    def test_rho_one_limit(self):
        for alpha in [0.2, 0.5, 0.8]:
            b = psi_bound(alpha, 1.0)
            assert b.value == pytest.approx(1 - alpha, abs=1e-12)

    def test_kind_direction(self):
        b = psi_bound(0.5, 0.95)
        assert b.kind == "psi_upper"
        assert b.direction == "upper_on_P"

    def test_first_order_matches_expansion(self):
        # psi and the rho->1 closed-form expansion share value and slope.
        alpha = 0.5
        residuals = []
        for rho in [0.9, 0.95, 0.975]:
            psi = psi_bound(alpha, rho).value
            ref = thm1_expansion(alpha, rho).value
            residuals.append(abs(psi - ref) / (1 - rho))
        # Scaled residual shrinks as rho -> 1: the difference is o(1-rho).
        assert residuals[1] < residuals[0]
        assert residuals[2] < residuals[1]

    def test_below_sphere_exponent(self):
        psi = psi_bound(0.5, 0.95).value
        sphere = sphere_exponent(0.5, 0.5, 0.95, centers="same").value
        assert psi <= sphere + 1e-6

    def test_split_symmetry(self):
        # The retired split: times s h and (1-s) h, h = -ln rho, give
        # (1-alpha)(1/q(s h) + 1/q((1-s) h)).  1/q(t) is concave in t, so
        # by Jensen no split beats the symmetric one that psi_bound uses.
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            for rho in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
                psi = psi_bound(alpha, rho).value
                h = -math.log(rho)
                for s in (0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.8, 0.9):
                    legs = (1 / solve_q(alpha, 2.0, s * h).q
                            + 1 / solve_q(alpha, 2.0, (1 - s) * h).q)
                    assert (1 - alpha) * legs <= psi + 1e-12

    def test_symmetric_split_matches_explicit(self):
        # One solve at t = -ln(rho)/2, bit for bit the old two-leg sum.
        for alpha, rho in [(0.5, 0.95), (0.2, 0.6), (0.9, 0.999)]:
            q = solve_q(alpha, 2.0, -math.log(rho) / 2).q
            value = psi_bound(alpha, rho).value
            assert value == 2 * (1 - alpha) / q
            assert value == (1 - alpha) / q + (1 - alpha) / q

    def test_bad_split(self):
        # The split option is retired.
        with pytest.raises(TypeError):
            psi_bound(0.5, 0.95, split=0.3)

    def test_matches_bisection_oracle(self):
        for alpha, rho in [(0.3, 0.9), (0.5, 0.8), (0.7, 0.95)]:
            q = bisection_q(alpha, 2.0, -math.log(rho) / 2)
            assert psi_bound(alpha, rho).value == pytest.approx(
                2 * (1 - alpha) / q, abs=1e-10
            )

    def test_propagates_out_of_range(self):
        # rho = e^-2t with t past the horizon where q(t) rounds to 1.
        with pytest.raises(ValueError, match="rounds to 1"):
            psi_bound(0.5, 1e-17)

    def test_small_rho_solves(self):
        # The old fixed scan refused every rho < e^-5.
        alpha, rho = 0.5, 1e-4
        psi = psi_bound(alpha, rho).value
        sol = solve_q(alpha, 2.0, -math.log(rho) / 2)
        assert psi == pytest.approx(
            float(2 * (1 - alpha) / mpmath_q(alpha, 2.0, sol.t, sol.a)), rel=1e-12
        )
        assert hct_upper_exponent(alpha, rho).value <= psi
        assert psi <= sphere_exponent(alpha, alpha, rho).value


class TestVerifyHcInequality:
    def test_singleton(self):
        a = CubeSet.from_strings(6, ["000000"])
        cert = verify_hc_inequality(a, 2.0, 0.03)
        assert cert.passed
        assert cert.slack >= 0.0
        assert cert.lhs <= cert.rhs + 1e-12
        # The default rate for a singleton is lifted to 1/n.
        assert cert.alpha == pytest.approx(1 / 6)
        assert cert.rhs == pytest.approx((1 / 2**6) ** (1 / cert.q), abs=1e-12)

    def test_t_zero_equality(self):
        a = CubeSet(8, tuple(range(16)))
        cert = verify_hc_inequality(a, 2.0, 0.0)
        assert cert.passed
        assert cert.lhs == pytest.approx(cert.rhs, abs=1e-14)
        assert cert.q == 2.0

    def test_right_side_formula(self):
        a = CubeSet(10, tuple(range(32)))
        cert = verify_hc_inequality(a, 2.0, 0.05)
        assert cert.rhs == pytest.approx(
            (32 / 2**10) ** (1 / cert.q), abs=1e-12
        )

    def test_random_sets_small(self):
        rng = random.Random(61)
        n = 10
        for _ in range(15):
            size = rng.randint(1, 2 ** (n // 2))
            members = tuple(sorted(rng.sample(range(2**n), size)))
            cert = verify_hc_inequality(CubeSet(n, members), 2.0, 0.04)
            assert cert.passed

    def test_explicit_alpha_must_cover_rate(self):
        a = CubeSet(8, tuple(range(16)))  # rate 0.5
        with pytest.raises(ValueError):
            verify_hc_inequality(a, 2.0, 0.03, alpha=0.3)

    def test_explicit_alpha_above_rate_allowed(self):
        a = CubeSet(8, tuple(range(16)))
        cert = verify_hc_inequality(a, 2.0, 0.03, alpha=0.75)
        assert cert.passed
        assert cert.alpha == 0.75

    def test_dimension_cap(self):
        # The dense 2^n array of the noise operator caps n at 20, and
        # explicit sets share that cap, so no set above it reaches the check.
        with pytest.raises(ValueError, match=r"\[1, 20\]"):
            CubeSet(21, (0,))

    @pytest.mark.parametrize("n", [18, 20])
    def test_wide_dimensions(self, n):
        # Only the noise operator's dense array, n <= 20, bounds n.
        a = CubeSet(n, tuple(range(0, 1 << n, 1 << (n // 2))))
        cert = verify_hc_inequality(a, 2.0, 0.05)
        assert cert.passed
        assert cert.alpha == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 4])
    def test_full_cube_rejected(self, n):
        # Rate 1 is outside the solver's domain; the error names the cube.
        with pytest.raises(ValueError, match="full cube"):
            verify_hc_inequality(CubeSet.full(n), 2.0, 0.05)


class TestIntegratorOrder:
    def test_step_halving_gain(self):
        # Fourth-order integration: halving the step cuts the error by
        # about 16x against a fine-step reference.
        a = -0.4
        b = 0.45 * LN2 / (1 + math.exp(-a))
        t = 0.5
        ref = hc_module._rk4(a, b, t, 1 << 14)
        err_coarse = abs(hc_module._rk4(a, b, t, 32) - ref)
        err_fine = abs(hc_module._rk4(a, b, t, 64) - ref)
        assert err_coarse / err_fine >= 8.0


# Values at and past the edges of every domain: NaN, +-inf, signed zeros,
# subnormals, the ends of (0, 1) and (1, inf), and the float extremes.
_HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-320,
            2.2250738585072014e-308, 1e-300, 1e-16, 0.5, 1.0 - 2**-53, 1.0,
            1.0 + 2**-52, 2.0, LN2, LN2 + 1e-9, 31.0, 1e15, 1e300, -1.0,
            1.7976931348623157e308, -1.7976931348623157e308)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), st.floats())
# solve_u takes up to 19,200 RK4 steps on long valid drives; hostile times
# still reach them through the pool, but random ones stay short.
_SHORT_TIME = st.one_of(st.sampled_from(_HOSTILE), st.floats(0.0, 1.0))


class TestHostileInput:
    # Every public entry point either returns or raises ValueError; any
    # other exception (overflow, division by zero, domain errors from the
    # math module) fails here.

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_VALUE, _VALUE, _VALUE)
    def test_solve_q(self, alpha, q0, t):
        try:
            sol = solve_q(alpha, q0, t)
        except ValueError:
            return
        assert 1.0 < sol.q <= q0

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_VALUE, _VALUE, _SHORT_TIME)
    def test_solve_u(self, a, b, t):
        try:
            solve_u(a, b, t)
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_VALUE, _VALUE)
    def test_psi_bound(self, alpha, rho):
        try:
            psi = psi_bound(alpha, rho).value
        except ValueError:
            return
        # 1 < q <= q0 = 2 puts psi = 2 (1 - alpha) / q in [1 - alpha, 2 (1 - alpha)).
        assert 1.0 - alpha <= psi <= 2.0 * (1.0 - alpha)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_VALUE)
    def test_c_function(self, lam):
        try:
            c = c_function(lam)
        except ValueError:
            return
        assert 2.0 <= c <= 2.0 / LN2 + 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_VALUE, _VALUE, st.one_of(st.none(), _VALUE))
    def test_verify_hc_inequality(self, q0, t, alpha):
        a_set = CubeSet(3, (0, 5))
        try:
            verify_hc_inequality(a_set, q0, t, alpha)
        except ValueError:
            pass
