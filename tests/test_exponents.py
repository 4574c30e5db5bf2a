"""Tests for the asymptotic exponent computations.

Closed-form bounds are checked by independent substitution into their
defining formulas; the closed-form sphere exponent is checked against
known endpoint values, an mpmath reference, a dense grid of distances and
the near-rho=1 expansion of its argmax.
"""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperrect.exponents as exponents_module
from hyperrect import (
    NEG_INF,
    BoundComparison,
    ExponentBound,
    avg_distance_bounds,
    avgdist_lower_exponent,
    binary_entropy,
    binary_entropy_inv,
    compare_bounds,
    feasible_distance_interval,
    hct_upper_exponent,
    morss_lower_exponent,
    phi,
    remark3_threshold,
    rhct_lower_exponent,
    sphere_exponent,
    thm1_expansion,
    thm2_expansion,
    w_d,
)


def mp_sphere_exponent(alpha, beta, rho, centers):
    """Independent (E, d_opt) at 30 digits: the radii by mpmath's findroot,
    the argmax by bisection on dw/dd +- L, where dw/dd = (h'(y) - h'(x))/2
    decreases from +inf to -inf across the feasible interval (w_d is
    concave)."""
    with mpmath.workdps(30):
        alpha, beta = sorted((mpmath.mpf(alpha), mpmath.mpf(beta)))
        rho = mpmath.mpf(rho)
        sign = 1 if centers == "same" else -1
        ell = mpmath.log((1 - rho) / (1 + rho), 2)

        def h(p):
            return -(p * mpmath.log(p, 2) + (1 - p) * mpmath.log(1 - p, 2))

        def slope(p):
            return mpmath.log((1 - p) / p, 2)

        def h_inv(rate):
            if rate == 1:
                return mpmath.mpf(0.5)
            bracket = (mpmath.mpf(1e-30), mpmath.mpf(0.5))
            return mpmath.findroot(lambda r: h(r) - rate, bracket, solver="anderson")

        r_a, r_b = h_inv(alpha), h_inv(beta)

        def x(d):
            return (r_a + r_b - d) / (2 * r_a)

        def y(d):
            return (d + r_b - r_a) / (2 * (1 - r_a))

        lo, hi = r_b - r_a, r_b + r_a
        for _ in range(110):
            d = (lo + hi) / 2
            if (slope(y(d)) - slope(x(d))) / 2 + sign * ell > 0:
                lo = d
            else:
                hi = d
        w = alpha + r_a * h(x(d)) + (1 - r_a) * h(y(d))
        return float(2 - mpmath.log(1 + sign * rho, 2) - (w + sign * d * ell)), float(d)


def seeded_rates_rho(count, seed):
    """(alpha, beta, rho) draws, with the edges the closed form meets:
    rho = 0, rho near 1, equal rates and full rate."""
    rng = random.Random(seed)
    rates = lambda: (rng.uniform(0.02, 1.0), rng.uniform(0.02, 1.0))
    points = [(*rates(), rng.uniform(0.0, 0.999)) for _ in range(count)]
    points += [(*rates(), 1.0 - 10.0 ** -rng.uniform(3, 9)) for _ in range(count // 4)]
    points += [(*rates(), 0.0) for _ in range(count // 4)]
    return points + [(0.5, 0.5, 1 - 1e-9), (1.0, 1.0, 0.5), (1.0, 0.3, 1 - 1e-9), (0.3, 0.3, 0.0)]


class TestWd:
    def test_equal_rates_at_zero(self):
        for alpha in [0.2, 0.5, 0.77, 1.0]:
            assert w_d(alpha, alpha, 0.0) == pytest.approx(alpha, abs=1e-12)

    def test_peak_value_and_location(self):
        rng = random.Random(19)
        for _ in range(25):
            alpha, beta = rng.uniform(0.05, 1), rng.uniform(0.05, 1)
            d_star = phi(alpha, beta)
            assert w_d(alpha, beta, d_star) == pytest.approx(
                alpha + beta, abs=1e-9
            )
            # Nearby points are below the peak.
            for eps in [-1e-4, 1e-4]:
                lo, hi = feasible_distance_interval(alpha, beta)
                d = d_star + eps
                if lo <= d <= hi:
                    assert w_d(alpha, beta, d) <= alpha + beta + 1e-12

    def test_infeasible_distance(self):
        lo, hi = feasible_distance_interval(0.4, 0.6)
        assert w_d(0.4, 0.6, lo - 1e-6) == NEG_INF
        assert w_d(0.4, 0.6, hi + 1e-6) == NEG_INF

    def test_argument_swap(self):
        # alpha > beta is silently swapped; w is symmetric.
        for d in [0.1, 0.3, 0.5]:
            assert w_d(0.8, 0.3, d) == w_d(0.3, 0.8, d)

    def test_equal_rate_closed_form(self):
        # w_d(a, a, d) = h(r) + r h(d/2 / r) + (1-r) h(d/2 / (1-r)).
        for alpha in [0.3, 0.6, 0.9]:
            r = binary_entropy_inv(alpha)
            for d in [0.0, 0.2 * r, r, 1.5 * r]:
                if d / 2 > r:
                    continue
                expected = (
                    binary_entropy(r)
                    + r * binary_entropy(d / 2 / r)
                    + (1 - r) * binary_entropy(d / 2 / (1 - r))
                )
                assert w_d(alpha, alpha, d) == pytest.approx(expected, abs=1e-10)

    def test_midpoint_concavity(self):
        rng = random.Random(29)
        for _ in range(100):
            alpha, beta = rng.uniform(0.05, 1), rng.uniform(0.05, 1)
            lo, hi = feasible_distance_interval(alpha, beta)
            d1 = rng.uniform(lo, hi)
            d2 = rng.uniform(lo, hi)
            mid = w_d(alpha, beta, (d1 + d2) / 2)
            assert mid >= 0.5 * (w_d(alpha, beta, d1) + w_d(alpha, beta, d2)) - 1e-12

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            w_d(0.0, 0.5, 0.1)


class TestSphereExponent:
    def test_rho_zero_any_centers(self):
        for alpha, beta in [(0.3, 0.7), (0.5, 0.5), (1.0, 0.2)]:
            for centers in ["same", "opposite"]:
                b = sphere_exponent(alpha, beta, 0.0, centers=centers)
                assert b.value == pytest.approx((1 - alpha) + (1 - beta), abs=1e-9)

    def test_full_entropy_same_centers(self):
        for rho in [0.0, 0.3, 0.7, 0.9]:
            b = sphere_exponent(1.0, 1.0, rho, centers="same")
            assert b.value == pytest.approx(0.0, abs=1e-9)

    def test_optimizer_location_near_rho_one(self):
        # Same centers, alpha = 0.5: d* = eps * sqrt(r(1-r)) + o(eps).
        r = binary_entropy_inv(0.5)
        scale = math.sqrt(r * (1 - r))
        for eps in [0.2, 0.1, 0.05]:
            b = sphere_exponent(0.5, 0.5, 1 - eps, centers="same")
            predicted = eps * scale
            assert b.d_opt == pytest.approx(predicted, rel=0.25)

    def test_optimizer_location_ratio_improves(self):
        r = binary_entropy_inv(0.5)
        scale = math.sqrt(r * (1 - r))
        errs = []
        for eps in [0.2, 0.1, 0.05]:
            b = sphere_exponent(0.5, 0.5, 1 - eps, centers="same")
            errs.append(abs(b.d_opt / (eps * scale) - 1.0))
        assert errs[2] < errs[0]

    def test_kind_and_direction(self):
        same = sphere_exponent(0.5, 0.5, 0.3, centers="same")
        opp = sphere_exponent(0.5, 0.5, 0.3, centers="opposite")
        assert same.kind == "sphere_same"
        assert same.direction == "lower_on_P"
        assert opp.kind == "sphere_opposite"
        assert opp.direction == "upper_on_P"

    def test_opposite_centers_dominate(self):
        # Anti-concentric spheres are farther apart, so their probability
        # decays at least as fast: exponent(opposite) >= exponent(same).
        rng = random.Random(43)
        for _ in range(20):
            alpha = rng.uniform(0.1, 1.0)
            beta = rng.uniform(0.1, 1.0)
            rho = rng.uniform(0.0, 0.95)
            same = sphere_exponent(alpha, beta, rho, centers="same")
            opp = sphere_exponent(alpha, beta, rho, centers="opposite")
            assert opp.value >= same.value - 1e-9

    def test_matches_mpmath(self):
        for alpha, beta, rho in seeded_rates_rho(12, seed=47):
            for centers in ["same", "opposite"]:
                b = sphere_exponent(alpha, beta, rho, centers=centers)
                value, d_opt = mp_sphere_exponent(alpha, beta, rho, centers)
                point = (alpha, beta, rho, centers)
                assert b.value == pytest.approx(value, abs=1e-12), point
                assert b.d_opt == pytest.approx(d_opt, abs=1e-12), point

    def test_no_grid_point_beats_the_optimum(self):
        # E is the minimum over d, so no point of a dense d grid may give
        # a smaller value (slack: a few ulps of the objective's roundoff).
        grid = [i / 10000 for i in range(10001)]
        for alpha, beta, rho in seeded_rates_rho(4, seed=48):
            distance_log = math.log2((1 - rho) / (1 + rho))
            # w_d's arithmetic with the two entropy inverses done once.
            radii = exponents_module._sphere_radii(alpha, beta)
            w = [exponents_module._w_d_from_radii(*radii, d) for d in grid]
            for centers, sign in [("same", 1.0), ("opposite", -1.0)]:
                value = sphere_exponent(alpha, beta, rho, centers=centers).value
                best = max(wd + sign * d * distance_log for wd, d in zip(w, grid))
                prefactor = 2 - math.log2(1 + sign * rho)
                assert value <= prefactor - best + 2e-15, (alpha, beta, rho, centers)

    def test_two_entropy_inverses_per_call(self, monkeypatch):
        calls = []

        def counted(y):
            calls.append(y)
            return binary_entropy_inv(y)

        monkeypatch.setattr(exponents_module, "binary_entropy_inv", counted)
        sphere_exponent(0.5, 0.3, 0.9)
        assert sorted(calls) == [0.3, 0.5]

    def test_bad_centers(self):
        with pytest.raises(ValueError):
            sphere_exponent(0.5, 0.5, 0.3, centers="sideways")

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            sphere_exponent(0.5, 0.5, 1.0)


class TestClosedFormBounds:
    def test_hct_values(self):
        assert hct_upper_exponent(0.5, 0.0).value == pytest.approx(1.0, abs=1e-14)
        assert hct_upper_exponent(0.5, 1.0).value == pytest.approx(0.5, abs=1e-14)
        assert hct_upper_exponent(0.5, 0.5).value == pytest.approx(2 / 3, abs=1e-14)
        assert hct_upper_exponent(0.3, 0.0).value == pytest.approx(1.4, abs=1e-14)

    def test_hct_direction(self):
        b = hct_upper_exponent(0.5, 0.5)
        assert b.kind == "hct_upper" and b.direction == "upper_on_P"

    def test_rhct_values(self):
        assert rhct_lower_exponent(0.5, 0.0).value == pytest.approx(1.0, abs=1e-14)
        assert rhct_lower_exponent(1.0, 0.5).value == pytest.approx(0.0, abs=1e-14)
        assert rhct_lower_exponent(0.5, 0.5).value == pytest.approx(2.0, abs=1e-14)

    def test_rhct_rejects_rho_one(self):
        with pytest.raises(ValueError):
            rhct_lower_exponent(0.5, 1.0)

    def test_morss_collapses_to_rhct_on_diagonal(self):
        rng = random.Random(47)
        for _ in range(20):
            alpha = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.0, 0.95)
            assert morss_lower_exponent(alpha, alpha, rho).value == pytest.approx(
                rhct_lower_exponent(alpha, rho).value, abs=1e-12
            )

    def test_morss_values(self):
        assert morss_lower_exponent(0.3, 0.7, 0.0).value == pytest.approx(
            1.0, abs=1e-14
        )
        expected = (0.5 + 0.2 + 0.6 * math.sqrt(0.1)) / 0.91
        assert morss_lower_exponent(0.5, 0.8, 0.3).value == pytest.approx(
            expected, abs=1e-12
        )

    def test_avgdist_values(self):
        assert avgdist_lower_exponent(0.4, 0.6, 0.0).value == pytest.approx(
            1.0, abs=1e-14
        )
        for rho in [0.2, 0.5, 0.8]:
            expected = 0.5 * math.log2(1 / (1 - rho * rho))
            assert avgdist_lower_exponent(1.0, 1.0, rho).value == pytest.approx(
                expected, abs=1e-12
            )

    def test_avgdist_small_rho_slope(self):
        # d/d(rho) at 0+ equals log2(e) (1 - 2 phi(alpha, beta)).
        for alpha, beta in [(0.3, 0.3), (0.5, 0.8), (0.9, 0.2)]:
            slope = math.log2(math.e) * (1 - 2 * phi(alpha, beta))
            h = 1e-6
            base = avgdist_lower_exponent(alpha, beta, 0.0).value
            bumped = avgdist_lower_exponent(alpha, beta, h).value
            assert (bumped - base) / h == pytest.approx(slope, abs=1e-4)


class TestExpansions:
    def test_thm1_alpha_one(self):
        for rho in [0.9, 0.95, 1.0]:
            assert thm1_expansion(1.0, rho).value == pytest.approx(0.0, abs=1e-14)

    def test_thm1_rho_one(self):
        for alpha in [0.2, 0.5, 0.8]:
            assert thm1_expansion(alpha, 1.0).value == pytest.approx(
                1 - alpha, abs=1e-14
            )

    def test_thm1_half_at_09(self):
        r = binary_entropy_inv(0.5)
        expected = 0.5 + (0.5 - math.sqrt(r * (1 - r))) / math.log(2) * 0.1
        assert thm1_expansion(0.5, 0.9).value == pytest.approx(expected, abs=1e-12)

    def test_thm1_validity_flag(self):
        assert thm1_expansion(0.5, 0.95).valid
        assert thm1_expansion(0.5, 0.9).valid
        assert not thm1_expansion(0.5, 0.5).valid

    def test_thm2_rho_zero(self):
        for alpha, beta in [(0.3, 0.7), (0.5, 0.5)]:
            assert thm2_expansion(alpha, beta, 0.0).value == pytest.approx(
                (1 - alpha) + (1 - beta), abs=1e-14
            )

    def test_thm2_full_rates(self):
        for rho in [0.0, 0.05, 0.1]:
            assert thm2_expansion(1.0, 1.0, rho).value == pytest.approx(
                0.0, abs=1e-12
            )

    def test_thm2_half_half(self):
        expected = 1.0 + 0.05 * math.log2(math.e) * (1 - 2 * phi(0.5, 0.5))
        assert thm2_expansion(0.5, 0.5, 0.05).value == pytest.approx(
            expected, abs=1e-12
        )

    def test_thm2_validity_flag(self):
        assert thm2_expansion(0.5, 0.5, 0.05).valid
        assert thm2_expansion(0.5, 0.5, 0.1).valid
        assert not thm2_expansion(0.5, 0.5, 0.5).valid

    def test_expansion_directions(self):
        assert thm1_expansion(0.5, 0.95).direction == "lower_on_P"
        assert thm2_expansion(0.5, 0.5, 0.05).direction == "upper_on_P"


class TestAvgDistanceBounds:
    def test_full_rates(self):
        assert avg_distance_bounds(1.0, 1.0) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_vanishing_rates(self):
        lo, hi = avg_distance_bounds(1e-9, 1e-9)
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_pair(self):
        lo, hi = avg_distance_bounds(0.4, 0.7)
        assert lo == pytest.approx(phi(0.4, 0.7), abs=1e-14)
        assert lo + hi == pytest.approx(1.0, abs=1e-14)


class TestCompareBounds:
    def test_below_threshold_avgdist_wins(self):
        # rho = 0.5: threshold = 1 - 1 * log2(2) * 1/2 = 0.5, and 0.3 < 0.5.
        report = compare_bounds(0.3, 0.3, 0.5)
        assert report.threshold == pytest.approx(0.5, abs=1e-12)
        assert report.predicts_avgdist is True
        assert (
            report.bounds["avgdist_lower"].value
            < report.bounds["morss_lower"].value
        )
        assert report.tightest == "avgdist_lower"

    def test_beyond_crossing_morss_wins(self):
        # 0.9 is past the measured crossing (~0.78 at rho = 0.5), so the
        # quadratic-form bound is the smaller one there; the threshold
        # flag is also False since 0.9 > 0.5.
        report = compare_bounds(0.9, 0.9, 0.5)
        assert report.predicts_avgdist is False
        assert (
            report.bounds["morss_lower"].value
            < report.bounds["avgdist_lower"].value
        )

    def test_unequal_rates_large_rho(self):
        # For alpha != beta, avgdist eventually beats morss as rho -> 1.
        report = compare_bounds(0.6, 0.9, 0.995)
        assert (
            report.bounds["avgdist_lower"].value
            < report.bounds["morss_lower"].value
        )
        assert report.predicts_avgdist is None

    def test_tiny_rho_above_threshold(self):
        # The threshold tends to 1 - 1/(2 ln 2) ~ 0.279 as rho -> 0, so
        # alpha = 0.5 is above it however small rho is.
        assert compare_bounds(0.5, 0.5, 1e-17).predicts_avgdist is False

    def test_rhct_only_on_diagonal(self):
        assert "rhct_lower" in compare_bounds(0.5, 0.5, 0.3).bounds
        assert "rhct_lower" not in compare_bounds(0.5, 0.6, 0.3).bounds

    def test_tightest_is_minimum(self):
        rng = random.Random(53)
        for _ in range(20):
            alpha = rng.uniform(0.05, 1.0)
            beta = rng.uniform(0.05, 1.0)
            rho = rng.uniform(0.01, 0.99)
            report = compare_bounds(alpha, beta, rho)
            best = min(report.bounds.values(), key=lambda b: b.value)
            assert report.bounds[report.tightest].value == best.value


class TestRemark3Threshold:
    def test_half(self):
        assert remark3_threshold(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_small_rho_limit(self):
        assert remark3_threshold(1e-8) == pytest.approx(
            1 - 1 / (2 * math.log(2)), abs=1e-6
        )

    def test_large_rho_limit(self):
        assert remark3_threshold(1 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("rho", [1e-17, 1e-300, 5e-324])
    def test_tiny_rho_reaches_limit(self, rho):
        # The quotient log2(1/(1-rho)) / rho must not cancel to 0 (or 0/0).
        assert remark3_threshold(rho) == pytest.approx(1 - 1 / (2 * math.log(2)), rel=1e-15)

    def test_matches_mpmath_within_four_ulp(self):
        rng = random.Random(61)
        rhos = [10 ** rng.uniform(-320, 0) for _ in range(100)]
        rhos += [rng.uniform(1e-6, 1 - 1e-6) for _ in range(100)]
        with mpmath.workdps(60):
            for rho in rhos:
                r = mpmath.mpf(rho)
                exact = 1 - (1 - r) * (-mpmath.log1p(-r) / r) / (2 * mpmath.log(2))
                assert abs(remark3_threshold(rho) - exact) <= 4 * math.ulp(float(exact))

    def test_guarantee_below_threshold(self):
        # The threshold is a sufficient condition: below it the
        # average-distance bound always wins strictly.
        for rho in [0.1, 0.3, 0.5, 0.7, 0.9]:
            a_star = remark3_threshold(rho)
            for frac in [0.1, 0.5, 0.9]:
                alpha = frac * a_star
                assert (
                    avgdist_lower_exponent(alpha, alpha, rho).value
                    < morss_lower_exponent(alpha, alpha, rho).value
                )

    def test_crossing_sits_above_threshold(self):
        # The true crossing is above the threshold (the threshold drops
        # a nonnegative term), and morss wins beyond the crossing.
        for rho in [0.3, 0.5, 0.7]:
            a_star = remark3_threshold(rho)
            diff = lambda a: (
                morss_lower_exponent(a, a, rho).value
                - avgdist_lower_exponent(a, a, rho).value
            )
            # Still positive (avgdist winning) just above the threshold.
            assert diff(min(a_star + 0.02, 0.99)) > 0
            # Negative (morss winning) at alpha near 1.
            assert diff(0.999) < 0


class TestSandwich:
    def test_hct_below_sphere_below_lower_family(self):
        rng = random.Random(59)
        for _ in range(30):
            alpha = rng.uniform(0.05, 0.99)
            rho = rng.uniform(0.0, 0.95)
            sphere = sphere_exponent(alpha, alpha, rho, centers="same").value
            hct = hct_upper_exponent(alpha, rho).value
            morss = morss_lower_exponent(alpha, alpha, rho).value
            avg = avgdist_lower_exponent(alpha, alpha, rho).value
            assert hct <= sphere + 1e-9
            assert sphere <= min(morss, avg) + 1e-9


class TestExponentBoundType:
    def test_direction_derived_from_kind(self):
        for kind, direction in exponents_module.KIND_DIRECTION.items():
            assert ExponentBound(1.0, kind).direction == direction

    def test_old_positional_direction_rejected(self):
        # valid and d_opt are keyword-only, so a stale positional direction
        # cannot land in valid.
        with pytest.raises(TypeError):
            ExponentBound(1.0, "hct_upper", "lower_on_P")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExponentBound(1.0, "mystery")


# Values at and past the edges of the exponents' domains.
_HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-17, 0.5,
            1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, -1.0, 1e308, True, 3, 10**400)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), st.floats(), st.integers(-3, 3))


def _scalars(result):
    if isinstance(result, ExponentBound):
        return (result.value, result.d_opt or 0.0)
    if isinstance(result, BoundComparison):
        return (*(bound.value for bound in result.bounds.values()), result.threshold or 0.0)
    return result if isinstance(result, tuple) else (result,)


class TestHostileInput:
    # Every scalar entry point either returns or raises ValueError, and
    # what it returns holds no NaN; overflow and type errors fail here.

    @pytest.mark.parametrize(
        "fn, arity",
        [
            (feasible_distance_interval, 2),
            (w_d, 3),
            (sphere_exponent, 3),
            (hct_upper_exponent, 2),
            (rhct_lower_exponent, 2),
            (morss_lower_exponent, 3),
            (avgdist_lower_exponent, 3),
            (thm1_expansion, 2),
            (thm2_expansion, 3),
            (avg_distance_bounds, 2),
            (remark3_threshold, 1),
            (compare_bounds, 3),
        ],
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_entry_point(self, fn, arity, data):
        args = [data.draw(_VALUE) for _ in range(arity)]
        try:
            result = fn(*args)
        except ValueError:
            return
        assert not any(math.isnan(value) for value in _scalars(result))
