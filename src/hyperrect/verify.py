"""Seeded self-verification suites over the package's numerical invariants.

Each suite returns CheckResult records, which the CLI prints and
tests/test_verify.py asserts, so the two run the same checks; some unit
and acceptance tests check the same properties again on their own grids.
Sizes are kept modest: the full run is meant to finish in well under a
minute.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import entropy, exponents, hypercontractivity as hc, oracle

__all__ = ["CheckResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; ``elapsed`` is the seconds spent computing it."""

    suite: str
    name: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0


class _Checks(list):
    """One suite's results, each timed from the previous record or the
    suite's start, so that the check times add up to the suite's time."""

    def __init__(self, suite: str) -> None:
        super().__init__()
        self.suite, self._mark = suite, time.perf_counter()

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        now = time.perf_counter()
        self.append(CheckResult(self.suite, name, bool(passed), detail, now - self._mark))
        self._mark = now


def _random_set(rng: random.Random, n: int, size: int) -> oracle.CubeSet:
    return oracle.CubeSet(n, tuple(rng.sample(range(1 << n), size)))


def suite_entropy(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = _Checks("entropy")

    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 0.5)
        worst = max(worst, abs(entropy.binary_entropy_inv(entropy.binary_entropy(p)) - p))
    out.record("inverse_round_trip", worst <= 1e-9,
               f"max |h_inv(h(p)) - p| = {worst:.3e} over 1000 draws")

    violation = 0.0
    for _ in range(10_000):
        x1, y1 = rng.random(), rng.random()
        x2, y2 = rng.random(), rng.random()
        mid = entropy.phi(0.5 * (x1 + x2), 0.5 * (y1 + y2))
        violation = max(violation, mid - 0.5 * (entropy.phi(x1, y1) + entropy.phi(x2, y2)))
    out.record("phi_midpoint_convexity", violation <= 1e-12,
               f"max convexity violation = {violation:.3e} over 10000 pairs")

    grid = [k / 1000 for k in range(1, 1000)]
    increasing = all(
        entropy.v_func(grid[k]) < entropy.v_func(grid[k + 1])
        for k in range(len(grid) - 1)
        if grid[k + 1] < 0.5
    )
    out.record("v_strictly_increasing", increasing, "999-point grid on (0, 1/2)")

    lows = [10.0 ** (6.0 * k / 999) for k in range(1000)]
    g_min = min(entropy.g_func(y) for y in lows)
    out.record("g_nonnegative", g_min >= -1e-12, f"min g = {g_min:.3e} on log grid [1, 1e6]")

    worst_lb = 0.0
    for n in (65, 100, 500, 4096):
        for k in (0, 1, n // 3, n // 2, n):
            approx = entropy.log_binomial(n, k)
            exact = math.log2(math.comb(n, k)) if k > 0 else 0.0
            scale = max(1.0, abs(exact))
            worst_lb = max(worst_lb, abs(approx - exact) / scale)
    out.record("log_binomial_paths_agree", worst_lb <= 1e-10,
               f"max relative disagreement = {worst_lb:.3e}")
    return out


def suite_oracle(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = _Checks("oracle")

    mismatch = 0.0
    exact_ok = True
    for _ in range(50):
        n = rng.randint(2, 10)
        a = _random_set(rng, n, rng.randint(1, 1 << n))
        b = _random_set(rng, n, rng.randint(1, 1 << n))
        rho = rng.random() * 0.95
        profile = oracle.pair_distance_profile(a, b)
        via_profile = oracle.rectangle_prob(profile, rho)
        direct = math.log2(oracle.rectangle_prob_direct(a, b, rho))
        mismatch = max(mismatch, abs(via_profile - direct))
        frac_rho = Fraction(rng.randint(0, 3), 4)
        if oracle.rectangle_prob_fraction(profile, frac_rho) != \
                oracle.rectangle_prob_direct(a, b, frac_rho):
            exact_ok = False
    out.record("profile_vs_direct_float", mismatch <= 1e-11,
               f"max |log2 P difference| = {mismatch:.3e} over 50 pairs")
    out.record("profile_vs_direct_exact", exact_ok, "rational-mode equality over 50 pairs")

    closed_ok = True
    for n in range(1, 9):
        for i in range(n + 1):
            for j in range(i, n + 1):
                closed = oracle.sphere_distance_profile(n, i, j)
                enumerated = oracle.pair_distance_profile(
                    oracle.CubeSet.sphere(n, i), oracle.CubeSet.sphere(n, j)
                )
                if closed != enumerated:
                    closed_ok = False
    out.record("sphere_profile_closed_form", closed_ok, "all sphere pairs up to n=8")

    reversal_ok = True
    for _ in range(20):
        n = rng.randint(2, 8)
        a = _random_set(rng, n, rng.randint(1, 1 << n))
        b = _random_set(rng, n, rng.randint(1, 1 << n))
        forward = oracle.pair_distance_profile(a, b)
        reflected = oracle.pair_distance_profile(a, oracle.complement_set(b))
        if forward.reversed() != reflected:
            reversal_ok = False
    out.record("complement_reverses_profile", reversal_ok, "20 random pairs")

    n = 8
    f = oracle.CubeFunction(n, [rng.gauss(0, 1) for _ in range(1 << n)])
    g = oracle.CubeFunction(n, [rng.gauss(0, 1) for _ in range(1 << n)])
    rho1, rho2 = 0.6, 0.7
    t_f = oracle.noise_operator(f, rho1)
    adjoint_gap = abs(
        oracle.inner_product(t_f, g) - oracle.inner_product(f, oracle.noise_operator(g, rho1))
    )
    out.record("noise_operator_self_adjoint", adjoint_gap <= 1e-12,
               f"|<Tf,g> - <f,Tg>| = {adjoint_gap:.3e}")

    semigroup_gap = float(
        max(
            abs(
                oracle.noise_operator(t_f, rho2).values
                - oracle.noise_operator(f, rho1 * rho2).values
            )
        )
    )
    out.record("noise_operator_semigroup", semigroup_gap <= 1e-12,
               f"max |T_s T_r f - T_sr f| = {semigroup_gap:.3e}")

    a = _random_set(rng, n, 37)
    b = _random_set(rng, n, 11)
    rho = 0.45
    spectral = oracle.inner_product(
        oracle.CubeFunction.indicator(b), oracle.noise_operator(oracle.CubeFunction.indicator(a), rho)
    )
    direct = 2.0 ** oracle.rectangle_prob(oracle.pair_distance_profile(a, b), rho)
    out.record("rectangle_prob_spectral_form", abs(spectral - direct) <= 1e-12,
               f"|<1_B, T 1_A> - P| = {abs(spectral - direct):.3e}")
    return out


def suite_exponents(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = _Checks("exponents")

    concave_violation = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.05, 1.0)
        lo, hi = exponents.feasible_distance_interval(alpha, beta)
        d1 = rng.uniform(lo, hi)
        d2 = rng.uniform(lo, hi)
        mid = exponents.w_d(alpha, beta, 0.5 * (d1 + d2))
        chord = 0.5 * (exponents.w_d(alpha, beta, d1) + exponents.w_d(alpha, beta, d2))
        concave_violation = max(concave_violation, chord - mid)
    out.record("w_d_midpoint_concavity", concave_violation <= 1e-12,
               f"max violation = {concave_violation:.3e} over 100 rate pairs")

    # At rho = 0 the closed-form argmax of the sphere exponent is phi.
    phi_gap = peak_gap = grid_excess = 0.0
    for _ in range(25):
        alpha, beta = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)
        d_opt = exponents.sphere_exponent(alpha, beta, 0.0).d_opt
        peak = exponents.w_d(alpha, beta, d_opt)
        lo, hi = exponents.feasible_distance_interval(alpha, beta)
        grid_best = max(exponents.w_d(alpha, beta, lo + (hi - lo) * k / 200) for k in range(201))
        phi_gap = max(phi_gap, abs(d_opt - entropy.phi(alpha, beta)))
        peak_gap = max(peak_gap, abs(peak - (alpha + beta)))
        grid_excess = max(grid_excess, grid_best - peak)
    out.record("w_d_peak_at_phi",
               phi_gap <= 1e-14 and peak_gap <= 1e-14 and grid_excess <= 2e-15,
               f"|d_opt - phi| = {phi_gap:.1e}, |w_d(d_opt) - alpha - beta| = "
               f"{peak_gap:.1e}, 201-point grid above by {grid_excess:.1e}, 25 draws")

    collapse = max(
        abs(
            exponents.morss_lower_exponent(a, a, r).value
            - exponents.rhct_lower_exponent(a, r).value
        )
        for a in (0.1, 0.3, 0.5, 0.7, 0.9)
        for r in (0.0, 0.2, 0.5, 0.8)
    )
    out.record("equal_rate_collapse", collapse <= 1e-12,
               f"max |morss - rhct| = {collapse:.3e} at equal rates")

    sandwich_ok = True
    slack = 1e-9
    for i in range(1, 10):
        for j in range(0, 10):
            alpha, rho = i / 10, j / 10
            spheres = exponents.sphere_exponent(alpha, alpha, rho, "same").value
            upper = exponents.hct_upper_exponent(alpha, rho).value
            lower = min(
                exponents.morss_lower_exponent(alpha, alpha, rho).value,
                exponents.avgdist_lower_exponent(alpha, alpha, rho).value,
                exponents.rhct_lower_exponent(alpha, rho).value,
            )
            if not (upper <= spheres + slack and spheres <= lower + slack):
                sandwich_ok = False
    out.record("sandwich_ordering", sandwich_ok,
               "hct <= sphere_same <= min(morss, avgdist, rhct) on a 9x10 grid")

    def richardson_ok(residuals: list[float]) -> bool:
        return all(
            later <= 0.75 * earlier + 1e-15
            for earlier, later in zip(residuals, residuals[1:])
        )

    thm1_res = [
        abs(
            exponents.sphere_exponent(0.5, 0.5, 1.0 - eps, "same").value
            - exponents.thm1_expansion(0.5, 1.0 - eps).value
        )
        for eps in (0.2, 0.1, 0.05, 0.025)
    ]
    out.record("thm1_residual_contracts", richardson_ok(thm1_res),
               f"residuals {['%.2e' % r for r in thm1_res]}")

    thm2_res = [
        abs(
            exponents.sphere_exponent(0.5, 0.8, rho, "opposite").value
            - exponents.thm2_expansion(0.5, 0.8, rho).value
        )
        for rho in (0.2, 0.1, 0.05, 0.025)
    ]
    out.record("thm2_residual_contracts", richardson_ok(thm2_res),
               f"residuals {['%.2e' % r for r in thm2_res]}")
    return out


def suite_hc(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = _Checks("hc")

    endpoint_gap = max(
        abs(hc.c_function(0.0) - 2.0), abs(hc.c_function(entropy.LN2) - 2.0 / entropy.LN2)
    )
    out.record("c_endpoints", endpoint_gap <= 1e-9, f"max endpoint gap = {endpoint_gap:.3e}")

    grid = [entropy.LN2 * k / 1000 for k in range(1001)]
    values = [hc.c_function(lam) for lam in grid]
    monotone = all(v1 < v2 for v1, v2 in zip(values, values[1:]))
    convex_violation = max(
        values[k] - 0.5 * (values[k - 1] + values[k + 1])
        for k in range(1, len(values) - 1)
    )
    in_range = all(2.0 - 1e-9 <= v <= 2.0 / entropy.LN2 + 1e-9 for v in values)
    out.record("c_monotone_convex_in_range",
               monotone and convex_violation <= 1e-12 and in_range,
               f"1001-point grid, convexity violation {convex_violation:.3e}")

    a0, b0, t0 = math.log(1.0), 0.3, 0.4
    reference = hc._rk4(a0, b0, t0, 4096)
    coarse = abs(hc._rk4(a0, b0, t0, 16) - reference)
    fine = abs(hc._rk4(a0, b0, t0, 32) - reference)
    ratio = coarse / fine if fine > 0 else math.inf
    out.record("integrator_fourth_order", 8.0 <= ratio,
               f"error ratio per halving = {ratio:.1f} (expect ~16)")

    # RK4 from the solved initial condition must land on ln(q0 - 1).
    shots = [hc.solve_q(*point) for point in ((0.5, 2.0, 0.1), (0.05, 8.0, 0.5), (0.9, 1.5, 2.0))]
    miss = max(abs(hc.solve_u(s.a, s.b, s.t) - math.log(s.q0 - 1.0)) for s in shots)
    out.record("shooting_matches_rk4", miss <= 1e-9, f"max |u(t) - ln(q0-1)| = {miss:.2e} over 3 shots")

    sol0 = hc.solve_q(0.5, 2.0, 0.0)
    out.record("shooting_identity_at_zero",
               sol0.q == 2.0 and sol0.residual == 0.0, "t=0 returns q0")

    qs = [hc.solve_q(0.5, 2.0, t).q for t in (0.02, 0.05, 0.1, 0.2)]
    out.record("q_decreasing_in_t",
               all(q1 > q2 for q1, q2 in zip(qs, qs[1:])),
               f"q(t) = {['%.6f' % q for q in qs]}")

    slope = (2.0 - 1.0) * hc.c_function(0.5 * entropy.LN2)
    curvature = [
        abs(hc.solve_q(0.5, 2.0, t).q - 2.0 + slope * t) / (t * t)
        for t in (0.02, 0.01, 0.005)
    ]
    bounded = max(curvature) <= 4.0 * min(curvature) + 1e-9
    out.record("first_order_slope_recovered", bounded,
               f"|q - q0 + slope t| / t^2 in {['%.3f' % c for c in curvature]}")

    psi_res = []
    for rho in (0.8, 0.9, 0.95, 0.975):
        r = entropy.binary_entropy_inv(0.5)
        first_order = 0.5 + (0.5 - math.sqrt(r * (1.0 - r))) * (1.0 - rho) / entropy.LN2
        psi_res.append(
            abs(hc.psi_bound(0.5, rho).value - first_order) / (1.0 - rho)
        )
    contracting = all(
        later <= 0.75 * earlier + 1e-15 for earlier, later in zip(psi_res, psi_res[1:])
    )
    out.record("psi_expansion_residual", contracting,
               f"scaled residuals {['%.2e' % r for r in psi_res]}")

    checked = 0
    failures = 0
    for _ in range(25):
        n = 10
        size = rng.randint(2, 1 << (n // 2))
        a = _random_set(rng, n, size)
        for t in (0.01, 0.05):
            certificate = hc.verify_hc_inequality(a, 2.0, t)
            checked += 1
            if not certificate.passed:
                failures += 1
    out.record("norm_inequality_direct", failures == 0,
               f"verified {checked - failures}/{checked} random-set inequalities")
    return out


SUITES = {
    "entropy": suite_entropy,
    "oracle": suite_oracle,
    "exponents": suite_exponents,
    "hc": suite_hc,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    """Run the named suites (any iterable of suite names) with one seed."""
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            known = ", ".join(sorted(SUITES))
            raise ValueError(f"unknown suite {name!r} (known: {known})")
        results.extend(SUITES[name](seed))
    return results
