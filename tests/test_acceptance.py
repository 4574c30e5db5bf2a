"""Acceptance suite: eleven end-to-end checks, one printed line each.

Every test prints a single PASS/FAIL line (run with -s to see them all)
and asserts both the mathematical property and its stated runtime budget.
Seeds are fixed so reruns are byte-for-byte reproducible.
"""

import math
import random
import time
from fractions import Fraction

from hyperrect import (
    LN2,
    CubeSet,
    avgdist_lower_exponent,
    binary_entropy,
    c_function,
    convergence_study,
    feasibility_scan,
    g_func,
    hct_upper_exponent,
    morss_lower_exponent,
    pair_distance_profile,
    phi,
    psi_bound,
    rectangle_prob_direct,
    rectangle_prob_fraction,
    remark3_threshold,
    solve_q,
    sphere_distance_profile,
    sphere_exponent,
    thm1_expansion,
    thm2_expansion,
    v_func,
    verify_hc_inequality,
)


def _report(num, label, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    line = (
        f"{status} criterion {num:>2} {label}: {detail} "
        f"[{elapsed:.2f}s < {budget:.0f}s]"
    )
    print(line, flush=True)
    assert ok and elapsed < budget, line


def test_criterion_01_oracle_exactness():
    budget = 30.0
    start = time.perf_counter()
    rng = random.Random(1)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        space = 1 << n
        a = CubeSet(n, tuple(rng.sample(range(space), rng.randint(1, min(space, 40)))))
        b = CubeSet(n, tuple(rng.sample(range(space), rng.randint(1, min(space, 40)))))
        den = rng.choice((2, 3, 4, 5, 7, 8, 10, 16))
        rho = Fraction(rng.randint(0, den), den)
        via_profile = rectangle_prob_fraction(pair_distance_profile(a, b), rho)
        direct = rectangle_prob_direct(a, b, rho)
        if via_profile != direct:
            mismatches += 1
    sphere_mismatches = 0
    checked = 0
    for n in range(1, 13):
        spheres = [CubeSet.sphere(n, w) for w in range(n + 1)]
        for i in range(n + 1):
            for j in range(i, n + 1):
                closed = sphere_distance_profile(n, i, j)
                enumerated = pair_distance_profile(spheres[i], spheres[j])
                checked += 1
                if closed != enumerated:
                    sphere_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and sphere_mismatches == 0
    _report(
        1, "oracle exactness", ok, budget, elapsed,
        f"200/200 random pairs exact, {checked}/{checked} sphere profiles exact"
        if ok else
        f"{mismatches} pair mismatches, {sphere_mismatches} sphere mismatches",
    )


def test_criterion_02_finite_n_convergence():
    budget = 30.0
    start = time.perf_counter()
    table = convergence_study(0.5, 0.5, [256, 1024, 4096])
    gaps = table.column("gap")
    allowed = [(2.0 * math.log2(n) + 2.0) / n for n in table.column("n")]
    below = all(g < a for g, a in zip(gaps, allowed))
    decreasing = all(gaps[k + 1] < gaps[k] for k in range(len(gaps) - 1))
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        f"n={n}: gap {g:.6f} < {a:.6f}"
        for n, g, a in zip(table.column("n"), gaps, allowed)
    )
    _report(2, "finite-n convergence", below and decreasing, budget, elapsed, detail)


def test_criterion_03_thm1_richardson():
    budget = 5.0
    start = time.perf_counter()
    eps_list = [0.2, 0.1, 0.05, 0.025]
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        residuals = [
            abs(
                sphere_exponent(alpha, alpha, 1.0 - eps).value
                - thm1_expansion(alpha, 1.0 - eps).value
            )
            for eps in eps_list
        ]
        for k in range(len(residuals) - 1):
            worst = max(worst, residuals[k + 1] / residuals[k])
    elapsed = time.perf_counter() - start
    _report(
        3, "thm1 expansion order", worst <= 0.75, budget, elapsed,
        f"worst residual ratio per eps halving {worst:.3f} <= 0.75",
    )


def test_criterion_04_thm2_richardson():
    budget = 5.0
    start = time.perf_counter()
    rho_list = [0.2, 0.1, 0.05, 0.025]
    worst = 0.0
    for alpha, beta in ((0.3, 0.3), (0.5, 0.8)):
        residuals = [
            abs(
                sphere_exponent(alpha, beta, rho).value
                - thm2_expansion(alpha, beta, rho).value
            )
            for rho in rho_list
        ]
        for k in range(len(residuals) - 1):
            worst = max(worst, residuals[k + 1] / residuals[k])
    elapsed = time.perf_counter() - start
    _report(
        4, "thm2 expansion order", worst <= 0.75, budget, elapsed,
        f"worst residual ratio per rho halving {worst:.3f} <= 0.75",
    )


def test_criterion_05_ode_layer():
    budget = 10.0
    start = time.perf_counter()
    end_lo = abs(c_function(0.0) - 2.0)
    end_hi = abs(c_function(LN2) - 2.0 / LN2)
    alpha, q0, t = 0.5, 2.0, 0.005
    q = solve_q(alpha, q0, t).q
    coeff = (q0 - 1.0) * c_function((1.0 - alpha) * LN2)
    slope_err = abs((q0 - q) / t - coeff)
    ok = end_lo <= 1e-9 and end_hi <= 1e-9 and slope_err <= 0.1 * coeff
    elapsed = time.perf_counter() - start
    _report(
        5, "ODE layer", ok, budget, elapsed,
        f"endpoint errors {end_lo:.1e}/{end_hi:.1e} <= 1e-9, "
        f"first-order slope error {slope_err:.4f} <= {0.1 * coeff:.4f}",
    )


def test_criterion_06_hc_inequality():
    budget = 60.0
    start = time.perf_counter()
    rng = random.Random(6)
    n = 12
    violations = 0
    checks = 0
    for _ in range(100):
        size = rng.randint(1, 64)
        a = CubeSet(n, tuple(rng.sample(range(1 << n), size)))
        for t in (0.01, 0.05):
            cert = verify_hc_inequality(a, 2.0, t)
            checks += 1
            if not cert.passed:
                violations += 1
    elapsed = time.perf_counter() - start
    _report(
        6, "norm inequality", violations == 0, budget, elapsed,
        f"{violations} violations over {checks} certified checks "
        f"(n=12, |A| <= 64, t in {{0.01, 0.05}}, q0=2)",
    )


def test_criterion_07_sandwich():
    budget = 30.0
    start = time.perf_counter()
    slack = 1e-9
    bad = 0
    for i in range(20):
        alpha = (i + 1) / 21.0
        for j in range(20):
            rho = (j + 1) / 21.0
            mid = sphere_exponent(alpha, alpha, rho).value
            lo = hct_upper_exponent(alpha, rho).value
            hi = min(
                morss_lower_exponent(alpha, alpha, rho).value,
                avgdist_lower_exponent(alpha, alpha, rho).value,
            )
            if not (lo <= mid + slack and mid <= hi + slack):
                bad += 1
    psi_checked = psi_bad = 0
    for j in (18, 19):
        rho = (j + 1) / 21.0
        for i in range(20):
            alpha = (i + 1) / 21.0
            psi = psi_bound(alpha, rho).value
            psi_checked += 1
            if psi > sphere_exponent(alpha, alpha, rho).value + 1e-6:
                psi_bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and psi_bad == 0
    _report(
        7, "bound sandwich", ok, budget, elapsed,
        f"400/400 grid points ordered, psi <= sphere at "
        f"{psi_checked - psi_bad}/{psi_checked} points (rho >= 0.9)",
    )


def test_criterion_08_remark3_threshold():
    # The threshold is a sufficient condition (it discards a nonnegative
    # term), so the guarantee is one-sided: strictly below it the average
    # distance bound must win.  The measured crossing sits above it and is
    # reported without a hard assertion.
    budget = 5.0
    start = time.perf_counter()
    step = 1.0 / 40.0
    failures = 0
    crossings = []
    for rho in (0.2, 0.4, 0.6, 0.8):
        threshold = remark3_threshold(rho)
        crossing = None
        for i in range(1, 40):
            alpha = i * step
            diff = (
                avgdist_lower_exponent(alpha, alpha, rho).value
                - morss_lower_exponent(alpha, alpha, rho).value
            )
            if alpha <= threshold - step and not diff < 0.0:
                failures += 1
            if crossing is None and diff >= 0.0:
                crossing = alpha
        crossings.append(
            f"rho={rho}: threshold {threshold:.3f}, measured crossing "
            f"{'none <= 0.975' if crossing is None else f'{crossing:.3f}'}"
        )
    elapsed = time.perf_counter() - start
    _report(
        8, "threshold guarantee", failures == 0, budget, elapsed,
        f"{failures} failures below threshold; " + "; ".join(crossings),
    )


def test_criterion_09_appendix_properties():
    budget = 5.0
    start = time.perf_counter()
    g_min = min(g_func(10.0 ** (6.0 * k / 600.0)) for k in range(601))
    v_vals = [v_func(i / 1000.0) for i in range(1, 500)]
    v_monotone = all(b > a for a, b in zip(v_vals, v_vals[1:]))
    rng = random.Random(9)
    convex_bad = 0
    for _ in range(10_000):
        x1, y1, x2, y2 = (rng.random() for _ in range(4))
        mid = phi(0.5 * (x1 + x2), 0.5 * (y1 + y2))
        if mid > 0.5 * (phi(x1, y1) + phi(x2, y2)) + 1e-12:
            convex_bad += 1
    ok = g_min >= -1e-12 and v_monotone and convex_bad == 0
    elapsed = time.perf_counter() - start
    _report(
        9, "appendix properties", ok, budget, elapsed,
        f"min g = {g_min:.2e} >= -1e-12, v strictly increasing, "
        f"{convex_bad} convexity violations in 10000 pairs",
    )


def test_criterion_10_average_distance_window():
    budget = 10.0
    start = time.perf_counter()
    rng = random.Random(10)
    n = 12
    outside = 0
    for _ in range(100):
        size_a = rng.randint(1, 512)
        size_b = rng.randint(1, 512)
        a = CubeSet(n, tuple(rng.sample(range(1 << n), size_a)))
        b = CubeSet(n, tuple(rng.sample(range(1 << n), size_b)))
        avg = float(pair_distance_profile(a, b).average_distance()) / n
        f = phi(math.log2(size_a) / n, math.log2(size_b) / n)
        if not (f - 1e-9 <= avg <= 1.0 - f + 1e-9):
            outside += 1
    elapsed = time.perf_counter() - start
    _report(
        10, "average distance window", outside == 0, budget, elapsed,
        f"{outside} of 100 random pairs outside [phi, 1 - phi]",
    )


def test_criterion_11_feasibility_scanner():
    budget = 60.0
    start = time.perf_counter()
    r1_grid = [i / 40.0 for i in range(6, 40)] + [0.999]
    rho_grid = [i / 80.0 for i in range(1, 80)]
    coarse_step = 1.0 / 40.0
    coarse = feasibility_scan(r1_grid, rho_grid, r2_grid=[i / 40.0 for i in range(1, 40)])
    fine = feasibility_scan(r1_grid, rho_grid, r2_grid=[i / 80.0 for i in range(2, 80)])

    def nonincreasing(values):
        seen_none = False
        prev = None
        for v in values:
            if v is None:
                seen_none = True
                continue
            if seen_none:
                return False
            if prev is not None and v > prev + 1e-12:
                return False
            prev = v
        return True

    monotone = nonincreasing(coarse.r2_max) and nonincreasing(fine.r2_max)
    max_move = max(
        abs(a - b)
        for a, b in zip(coarse.r2_max, fine.r2_max)
        if a is not None and b is not None
    )
    stable = max_move <= coarse_step + 1e-12
    at_one = fine.r2_max[-1]
    elapsed = time.perf_counter() - start
    _report(
        11, "feasibility scanner", monotone and stable, budget, elapsed,
        f"frontier nonincreasing, density doubling moved <= {max_move:.4f} "
        f"(one step = {coarse_step:.4f}); R1 -> 1 frontier {at_one} "
        f"(reference 0.4228, reported without tolerance)",
    )
