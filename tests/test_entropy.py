"""Tests for the scalar entropy primitives.

Expected values fall into three groups: hand-checkable identities
(endpoints, symmetry, absorbing elements), values frozen from an
independent arbitrary-precision evaluation with mpmath, and structural
properties (convexity, monotonicity) checked on grids and random draws.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrect import (
    binary_entropy,
    binary_entropy_inv,
    g_func,
    log_binomial,
    phi,
    star,
    v_func,
)
from hyperrect.entropy import _check_range


def mp_entropy(p):
    """Independent high-precision h(p) in bits."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        if p == 0 or p == 1:
            return 0.0
        q = 1 - p
        return float(-(p * mpmath.log(p, 2) + q * mpmath.log(q, 2)))


def mp_entropy_inv(y):
    """Independent h_inv(y) on [0, 1/2]: bisection at 40 digits to 4e-20."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        lo, hi = mpmath.mpf(0), mpmath.mpf(0.5)
        for _ in range(64):
            mid = (lo + hi) / 2
            if -(mid * mpmath.log(mid, 2) + (1 - mid) * mpmath.log(1 - mid, 2)) < y:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        # Frozen from mpmath at 50 digits: h(1/4) = 0.81127812445913283...
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(mp_entropy(0.25), abs=1e-15)

    def test_symmetry(self):
        for p in [0.1, 0.23, 0.4, 0.47]:
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-15)

    def test_against_mpmath_grid(self):
        for i in range(1, 50):
            p = i / 50
            assert binary_entropy(p) == pytest.approx(mp_entropy(p), abs=1e-13)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0


class TestBinaryEntropyInv:
    def test_endpoints(self):
        assert binary_entropy_inv(1.0) == 0.5
        assert binary_entropy_inv(0.0) == 0.0

    def test_known_value(self):
        assert binary_entropy_inv(0.8112781) == pytest.approx(0.25, abs=1e-7)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(1000):
            p = rng.uniform(0.0, 0.5)
            assert abs(binary_entropy_inv(binary_entropy(p)) - p) <= 1e-9

    def test_forward_residual(self):
        # The inverse is accurate enough that h(h_inv(y)) returns y to 1e-12.
        for y in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
            p = binary_entropy_inv(y)
            assert abs(binary_entropy(p) - y) <= 1e-12

    def test_monotone(self):
        ys = [i / 200 for i in range(201)]
        ps = [binary_entropy_inv(y) for y in ys]
        assert all(a < b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("y", [5e-324, 1e-300, 1e-15, 1 - 2**-52, 1 - 1e-15])
    def test_stress_points_against_mpmath(self, y):
        # Near 0 h' diverges; near 1 h flattens and h(p) - y cancels.
        assert abs(binary_entropy_inv(y) - mp_entropy_inv(y)) <= 1e-13

    def test_random_against_mpmath(self):
        rng = random.Random(11)
        ys = (
            [rng.random() for _ in range(40)]
            + [10 ** rng.uniform(-300, -1) for _ in range(20)]
            + [1 - 10 ** rng.uniform(-16, -1) for _ in range(20)]
        )
        for y in ys:
            assert abs(binary_entropy_inv(y) - mp_entropy_inv(y)) <= 1e-13, y

    def test_monotone_on_seeded_draws(self):
        rng = random.Random(5)
        ys = sorted(
            [rng.random() for _ in range(3000)]
            + [10 ** rng.uniform(-300, -1) for _ in range(500)]
            + [1 - 10 ** rng.uniform(-16, -1) for _ in range(500)]
        )
        ps = [binary_entropy_inv(y) for y in ys]
        assert all(a <= b for a, b in zip(ps, ps[1:]))

    def test_scalar_convexity_of_variance_curve(self):
        # x -> h_inv(x) * (1 - h_inv(x)) is convex; midpoint test on a grid.
        m = 10**4
        xs = [i / m for i in range(m + 1)]
        vals = [binary_entropy_inv(x) * (1 - binary_entropy_inv(x)) for x in xs]
        for i in range(1, m):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_range(self, y):
        p = binary_entropy_inv(y)
        assert 0.0 <= p <= 0.5


class TestStar:
    def test_identity_element(self):
        for q in [0.0, 0.3, 0.5, 0.9, 1.0]:
            assert star(0.0, q) == pytest.approx(q, abs=1e-15)

    def test_absorbing_element(self):
        for q in [0.0, 0.3, 0.5, 0.9, 1.0]:
            assert star(0.5, q) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_quarter(self):
        assert star(0.25, 0.25) == pytest.approx(0.375, abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_commutative_and_in_range(self, p, q):
        s = star(p, q)
        assert s == pytest.approx(star(q, p), abs=1e-15)
        assert 0.0 <= s <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_product_form(self, p, q):
        assert star(p, q) == pytest.approx(
            0.5 * (1 - (1 - 2 * p) * (1 - 2 * q)), abs=1e-14
        )


class TestPhi:
    def test_both_full(self):
        assert phi(1.0, 1.0) == 0.5

    def test_both_zero(self):
        assert phi(0.0, 0.0) == 0.0

    def test_absorbing(self):
        for x in [0.0, 0.2, 0.5, 0.8, 1.0]:
            assert phi(x, 1.0) == pytest.approx(0.5, abs=1e-13)

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(50):
            x, y = rng.random(), rng.random()
            assert phi(x, y) == pytest.approx(phi(y, x), abs=1e-15)

    def test_midpoint_convexity(self):
        rng = random.Random(11)
        for _ in range(10**4):
            x1, y1 = rng.random(), rng.random()
            x2, y2 = rng.random(), rng.random()
            mid = phi((x1 + x2) / 2, (y1 + y2) / 2)
            assert mid <= 0.5 * (phi(x1, y1) + phi(x2, y2)) + 1e-12


class TestLogBinomial:
    def test_small_exact(self):
        assert log_binomial(4, 2) == pytest.approx(math.log2(6), abs=1e-15)

    def test_k_zero(self):
        for n in [0, 1, 5, 64, 1000]:
            assert log_binomial(n, 0) == 0.0

    def test_ten_choose_five(self):
        assert log_binomial(10, 5) == pytest.approx(math.log2(252), abs=1e-15)

    def test_exact_vs_gamma_all_small(self):
        # Both paths agree to 1e-10 for every n <= 64.
        for n in range(65):
            for k in range(n + 1):
                exact = math.log2(math.comb(n, k))
                got = log_binomial(n, k)
                assert abs(got - exact) <= 1e-10

    def test_gamma_path_relative_error(self):
        for n in [65, 100, 500, 4096]:
            for k in [0, 1, n // 3, n // 2, n - 1, n]:
                exact = math.log2(math.comb(n, k))
                got = log_binomial(n, k)
                if exact == 0.0:
                    assert got == 0.0
                else:
                    assert abs(got - exact) <= 1e-12 * abs(exact) + 1e-12

    def test_strict_out_of_range(self):
        with pytest.raises(ValueError):
            log_binomial(4, 5)
        with pytest.raises(ValueError):
            log_binomial(4, -1)

    def test_sentinel_mode(self):
        # The -inf sentinel mode is retired: log_binomial is always strict.
        with pytest.raises(TypeError):
            log_binomial(4, 5, strict=False)


class TestVFunc:
    def test_quarter(self):
        assert v_func(0.25) == pytest.approx(0.5 / math.log(3), abs=1e-15)

    def test_limit_toward_half(self):
        assert abs(v_func(0.499) - 0.5) <= 1e-3

    def test_monotone_witness(self):
        assert v_func(0.3) > v_func(0.2)

    def test_strictly_increasing_grid(self):
        ts = [(i + 1) / 1001 * 0.5 for i in range(999)]
        vals = [v_func(t) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_singular_endpoints_rejected(self):
        with pytest.raises(ValueError):
            v_func(0.0)
        with pytest.raises(ValueError):
            v_func(0.5)

    @given(st.floats(min_value=1e-9, max_value=0.5, exclude_max=True))
    def test_positive(self, t):
        assert v_func(t) > 0.0


class TestGFunc:
    def test_at_one(self):
        assert g_func(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_two(self):
        assert g_func(2.0) == pytest.approx(1.5 - 2 * math.log(2), abs=1e-15)

    def test_at_ten(self):
        assert g_func(10.0) == pytest.approx(9.9 - 2 * math.log(10), abs=1e-13)
        assert g_func(10.0) > 0.0

    def test_nonnegative_log_grid(self):
        for i in range(1000):
            y = 10 ** (6 * i / 999)
            assert g_func(y) >= -1e-12

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            g_func(0.999)

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, y):
        # Unchecked, both give nan.
        with pytest.raises(ValueError):
            g_func(y)


class TestCheckRange:
    """The package's one domain check (entropy._check_range)."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_every_interval(self, value):
        for lo, hi in ((0.0, 1.0), (-math.inf, math.inf), (1.0, math.inf)):
            with pytest.raises(ValueError):
                _check_range("x", value, lo, hi, lo_open=math.isinf(lo), hi_open=math.isinf(hi))

    def test_open_and_closed_ends(self):
        _check_range("x", 0.0, 0.0, 1.0)
        _check_range("x", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            _check_range("x", 0.0, 0.0, 1.0, lo_open=True)
        with pytest.raises(ValueError):
            _check_range("x", 1.0, 0.0, 1.0, hi_open=True)

    def test_message_names_interval_and_value(self):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\], got 1\.5$"):
            _check_range("alpha", 1.5, 0.0, 1.0, lo_open=True)
        with pytest.raises(ValueError, match=r"^margin must lie in \[0, inf\), got nan$"):
            _check_range("margin", math.nan, 0.0, math.inf, hi_open=True)

    def test_fractions(self):
        _check_range("rho", Fraction(1, 3), 0, 1)
        with pytest.raises(ValueError):
            _check_range("rho", Fraction(4, 3), 0, 1)


# Values at and past the edges of the primitives' domains.
_HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 0.5,
            1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, -1.0, 100.5, 1e308, True, 10**400)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), st.floats(), st.integers(-3, 200))


class TestHostileInput:
    # Every entry point either returns or raises ValueError, and returns no
    # NaN; overflow and type errors from inside fail here.

    @pytest.mark.parametrize(
        "call",
        [
            lambda: log_binomial(math.nan, 1),
            lambda: log_binomial(5, 2.5),
            lambda: log_binomial(10**400, 3),
            lambda: log_binomial(100.5, 3),
            lambda: log_binomial(True, 0),
            lambda: g_func(10**400),
        ],
        ids=["nan-n", "float-k", "huge-n", "float-n", "bool-n", "g-huge"],
    )
    def test_known_cases(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize(
        "fn, arity",
        [
            (binary_entropy, 1),
            (binary_entropy_inv, 1),
            (star, 2),
            (phi, 2),
            (log_binomial, 2),
            (v_func, 1),
            (g_func, 1),
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
        assert not math.isnan(result)
