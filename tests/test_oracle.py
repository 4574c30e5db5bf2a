"""Tests for the exact finite-n oracle.

The oracle is the ground truth everything else is checked against, so its
own tests leave nothing to shared code paths: profiles are compared with
brute-force double loops, probabilities with exact rational arithmetic,
and the noise operator with hand-computed conditional expectations.
"""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperrect.oracle as oracle_module
from hyperrect import (
    CubeFunction,
    CubeSet,
    DistanceProfile,
    EnumerationBudgetError,
    SetFileError,
    complement_set,
    inner_product,
    noise_operator,
    p_norm,
    pair_distance_profile,
    read_set_file,
    rectangle_prob,
    rectangle_prob_direct,
    rectangle_prob_fraction,
    sphere_distance_profile,
    write_set_file,
)


def random_set(rng, n, size):
    members = rng.sample(range(2**n), size)
    return CubeSet(n, tuple(sorted(members)))


def brute_profile(a: CubeSet, b: CubeSet) -> tuple:
    counts = [0] * (a.n + 1)
    for x in a.members:
        for y in b.members:
            counts[bin(x ^ y).count("1")] += 1
    return tuple(counts)


def butterfly_fwht(values: np.ndarray) -> np.ndarray:
    """The transform as n butterfly passes on a copy, in the input's dtype."""
    out = values.copy()
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        np.subtract(top, pairs[:, 1, :], out=pairs[:, 1, :])
        h *= 2
    return out


def butterfly_profile(a: CubeSet, b: CubeSet) -> tuple:
    """The distance profile by int64 butterflies, summed level by level in int64."""
    n = a.n
    product = np.ones(1 << n, dtype=np.int64)
    for s in (a, b):
        indicator = np.zeros(1 << n, dtype=np.int64)
        indicator[list(s.members)] = 1
        product *= butterfly_fwht(indicator)
    convolution = butterfly_fwht(product) >> n
    levels = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    return tuple(int(convolution[levels == k].sum()) for k in range(n + 1))


def numpy_set(gen, n, size):
    return CubeSet(n, tuple(gen.permutation(1 << n)[:size].tolist()))


class TestCubeSet:
    def test_from_strings_bit_order(self):
        # Character j of the string is coordinate j, the low bit of the int.
        s = CubeSet.from_strings(3, ["100"])
        assert s.members == (1,)
        s = CubeSet.from_strings(3, ["001"])
        assert s.members == (4,)

    def test_round_trip(self):
        strings = ["0110", "1001", "1111"]
        s = CubeSet.from_strings(4, strings)
        assert sorted(s.to_strings()) == sorted(strings)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CubeSet(3, (1, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CubeSet(3, ())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CubeSet(2, (4,))

    @pytest.mark.parametrize("n", [0, 21, True, 3.0])
    def test_dimension_cap(self, n):
        # Explicit sets share the dense cap: the profile transforms 2^n entries.
        with pytest.raises(ValueError, match=r"\[1, 20\]"):
            CubeSet(n, (0,))
        with pytest.raises(ValueError, match=r"\[1, 20\]"):
            CubeSet.sphere(n, 0)

    def test_sphere_sizes(self):
        for n in range(1, 9):
            for w in range(n + 1):
                assert len(CubeSet.sphere(n, w)) == math.comb(n, w)

    def test_full(self):
        assert len(CubeSet.full(4)) == 16

    def test_rate(self):
        s = CubeSet.sphere(8, 4)
        assert s.rate() == pytest.approx(math.log2(math.comb(8, 4)) / 8)


class TestPairDistanceProfile:
    def test_singleton(self):
        a = CubeSet.from_strings(4, ["0000"])
        p = pair_distance_profile(a, a)
        assert p.counts == (1, 0, 0, 0, 0)

    def test_sphere_4_1(self):
        s = CubeSet.sphere(4, 1)
        p = pair_distance_profile(s, s)
        assert p.counts == (4, 0, 12, 0, 0)

    def test_complement_reverses_profile(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 10)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            direct = pair_distance_profile(a, b)
            flipped = pair_distance_profile(a, complement_set(b))
            assert flipped.counts == tuple(reversed(direct.counts))
            assert direct.reversed().counts == flipped.counts

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 9)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            assert pair_distance_profile(a, b).counts == brute_profile(a, b)

    def test_count_conservation(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 12)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            p = pair_distance_profile(a, b)
            assert sum(p.counts) == len(a) * len(b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_distance_profile(CubeSet.full(3), CubeSet.full(4))

    def test_budget(self, monkeypatch):
        # Only the direct double loop reads the pair budget, at call time;
        # the profile's transforms cost 2^n, whatever the set sizes.
        s = CubeSet.full(6)
        monkeypatch.setattr(oracle_module, "DEFAULT_PAIR_BUDGET", 100)
        with pytest.raises(EnumerationBudgetError, match="budget of 100"):
            rectangle_prob_direct(s, s, 0.5)
        assert pair_distance_profile(s, s).counts == tuple(
            math.comb(6, k) * 64 for k in range(7)
        )
        small = CubeSet.full(3)
        assert rectangle_prob_direct(small, small, Fraction(1, 2)) == 1

    def test_full_cube_at_the_cap(self):
        # Every z of weight k is x ^ y for 2^n ordered pairs of the cube.
        full = CubeSet.full(20)
        counts = pair_distance_profile(full, full).counts
        assert counts == tuple(math.comb(20, k) << 20 for k in range(21))

    @pytest.mark.parametrize("n", [10, 14, 16, 20])
    def test_matches_int64_butterflies(self, n):
        # The float64 transforms stay exact integers, so every count equals
        # the int64 butterfly route's, dense halves of the cube included.
        # At n = 20, where the reference takes about 1 s a pair, only the
        # two dense halves.
        gen = np.random.default_rng(n)
        half = 1 << (n - 1)
        sizes = [(half, half)]
        if n < 20:
            sizes += [(1, half)] + [gen.integers(1, 1 << n, size=2, endpoint=True) for _ in range(3)]
        for size_a, size_b in sizes:
            a, b = numpy_set(gen, n, size_a), numpy_set(gen, n, size_b)
            assert pair_distance_profile(a, b).counts == butterfly_profile(a, b)

    def test_peak_memory(self):
        # The transforms hold a few 2^n float64 arrays, whatever the set
        # sizes: n = 14 with 8192 x 8192 pairs stays under 2 MB.
        rng = random.Random(29)
        a, b = random_set(rng, 14, 8192), random_set(rng, 14, 8192)
        tracemalloc.start()
        try:
            profile = pair_distance_profile(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(profile.counts) == 8192 * 8192
        assert peak < 2 << 20

    def test_budget_error_is_a_value_error(self):
        # Over-budget input is bad input.
        assert issubclass(EnumerationBudgetError, ValueError)

    def test_average_distance_exact(self):
        # Mean distance in coordinates: (0 + 1 + 1 + 2) / 4 = 1.
        a = CubeSet.from_strings(2, ["00"])
        b = CubeSet.from_strings(2, ["00", "01", "10", "11"])
        p = pair_distance_profile(a, b)
        assert p.average_distance() == Fraction(1)


class TestFwht:
    @staticmethod
    def sylvester(n):
        h = np.array([[1]])
        for _ in range(n):
            h = np.kron(np.array([[1, 1], [1, -1]]), h)
        return h

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_sylvester_matrix(self, n):
        # n = 1..9 covers every n mod 4, so every width of the last pass.
        gen = np.random.default_rng(100 + n)
        values = gen.integers(-50, 51, size=1 << n)
        assert np.array_equal(oracle_module._fwht(values), self.sylvester(n) @ values)
        real = gen.standard_normal(1 << n)
        np.testing.assert_allclose(
            oracle_module._fwht(real), self.sylvester(n) @ real, rtol=0, atol=1e-12 * (1 << n)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 16])
    def test_self_inverse_and_input_untouched(self, n):
        gen = np.random.default_rng(200 + n)
        values = gen.integers(-1000, 1001, size=1 << n).astype(np.float64)
        kept = values.copy()
        twice = oracle_module._fwht(oracle_module._fwht(values))
        assert np.array_equal(values, kept)
        assert np.array_equal(twice, values * (1 << n))


class TestSphereDistanceProfile:
    def test_small_example(self):
        p = sphere_distance_profile(4, 1, 1)
        assert p.counts == (4, 0, 12, 0, 0)

    def test_origin_pair(self):
        for n in [1, 5, 30, 1000]:
            p = sphere_distance_profile(n, 0, 0)
            assert p.counts[0] == 1
            assert sum(p.counts) == 1

    def test_below_radius_gap_is_zero(self):
        p = sphere_distance_profile(10, 2, 7)
        assert all(p.counts[k] == 0 for k in range(5))
        assert p.counts[5] > 0

    def test_radius_order_enforced(self):
        with pytest.raises(ValueError):
            sphere_distance_profile(5, 3, 1)

    def test_matches_enumeration_small(self):
        # Every sphere pair up to n = 8, and one at the top of the cap.
        cases = [
            (n, i, j) for n in range(1, 9) for i in range(n + 1) for j in range(i, n + 1)
        ]
        for n, i, j in cases + [(20, 3, 5)]:
            closed = sphere_distance_profile(n, i, j)
            enum = pair_distance_profile(CubeSet.sphere(n, i), CubeSet.sphere(n, j))
            assert closed == enum

    def test_large_n(self):
        # Arbitrary-precision path: total count is a Vandermonde identity,
        # verified inside the DistanceProfile constructor.
        p = sphere_distance_profile(10**4, 100, 200)
        assert sum(p.counts) == math.comb(10**4, 100) * math.comb(10**4, 200)

    def test_dimension_capped_before_counting(self):
        assert sum(sphere_distance_profile(2**14, 1, 1).counts) == 2**28
        with mock.patch.object(math, "comb", side_effect=AssertionError):
            with pytest.raises(ValueError, match=r"2\^14"):
                sphere_distance_profile(2**14 + 1, 1, 1)


class TestDistanceProfileCounts:
    def test_fractional_counts_rejected(self):
        # These used to be floored to (0, 0, 2), with P = 1/32 at rho = 1.
        with pytest.raises(ValueError, match="0.9 is not a whole number"):
            DistanceProfile(2, (0.9, 0.9, 2.9), 2, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.5, True, "2", None])
    def test_non_integer_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="not a whole number"):
            DistanceProfile(2, (0, 0, bad), 2, 1)

    @pytest.mark.parametrize(
        "counts",
        [(0, 0, 2), (0.0, 0.0, 2.0), np.array([0, 0, 2]), np.array([0.0, 0.0, 2.0]),
         (np.int8(0), np.uint64(0), np.float32(2.0))],
    )
    def test_whole_counts_become_ints(self, counts):
        profile = DistanceProfile(2, counts, 2, 1)
        assert profile.counts == (0, 0, 2)
        assert all(type(c) is int for c in profile.counts)

    @pytest.mark.parametrize(
        "n, sizes", [("3", (1, 1)), (2.0, (1, 1)), (True, (1, 1)), (1, ("1", 1)), (1, (1, 1.0))]
    )
    def test_non_int_dimension_and_sizes_rejected(self, n, sizes):
        with pytest.raises(ValueError):
            DistanceProfile(n, (1, 0), *sizes)


class TestRectangleProb:
    def test_singleton_pair(self):
        a = CubeSet.from_strings(2, ["00"])
        p = pair_distance_profile(a, a)
        assert rectangle_prob_fraction(p, Fraction(1, 2)) == Fraction(9, 64)
        assert rectangle_prob(p, 0.5) == pytest.approx(math.log2(9 / 64), abs=1e-12)

    def test_sphere_27_over_256(self):
        p = sphere_distance_profile(4, 1, 1)
        assert rectangle_prob_fraction(p, Fraction(1, 2)) == Fraction(27, 256)

    def test_full_cube_probability_one(self):
        full = CubeSet.full(5)
        p = pair_distance_profile(full, full)
        for rho in [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]:
            assert rectangle_prob_fraction(p, rho) == 1
        for rho in [0.0, 0.3, 0.99]:
            assert rectangle_prob(p, rho) == pytest.approx(0.0, abs=1e-12)

    def test_independence(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(1, 10)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            expected = math.log2(len(a)) + math.log2(len(b)) - 2 * n
            assert math.log2(rectangle_prob_direct(a, b, 0.0)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_near_perfect_correlation_diagonal(self):
        rng = random.Random(4)
        for _ in range(5):
            n = rng.randint(2, 8)
            a = random_set(rng, n, rng.randint(1, 2**n))
            got = math.log2(rectangle_prob_direct(a, a, 1.0 - 1e-9))
            assert got == pytest.approx(math.log2(len(a)) - n, abs=1e-6)

    def test_perfect_correlation_exact(self):
        a = CubeSet.from_strings(3, ["000", "011"])
        b = CubeSet.from_strings(3, ["011", "101", "110"])
        p = pair_distance_profile(a, a)
        assert rectangle_prob_fraction(p, Fraction(1)) == Fraction(2, 8)
        q = pair_distance_profile(a, b)
        assert rectangle_prob_fraction(q, Fraction(1)) == Fraction(1, 8)

    def test_full_cube_overshoot_returns_zero(self):
        # Roundoff lifts the float sum of some full-cube pairs above 0
        # (2.7e-15 at most for n <= 12); those must still read P = 1.
        overshoots = 0
        for n in range(1, 13):
            full = CubeSet.full(n)
            p = pair_distance_profile(full, full)
            for rho in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12]:
                value = rectangle_prob(p, rho)
                assert -1e-14 <= value <= 0.0
                overshoots += value == 0.0 and rho > 0.0
        assert overshoots

    @pytest.mark.parametrize("n", [100, 200])
    def test_exact_mode_at_large_n(self, n):
        # Exact mode never sees a set member, so no dimension cap applies.
        profile = sphere_distance_profile(n, n // 4, n // 3)
        exact = rectangle_prob_fraction(profile, Fraction(1, 2))
        log2_exact = math.log2(exact.numerator) - math.log2(exact.denominator)
        assert log2_exact == pytest.approx(rectangle_prob(profile, 0.5), abs=1e-9)

    def test_unrealizable_profile_rejected(self):
        # All 16 pairs of two 4-point sets in n = 2 at distance 0:
        # P = 16 ((1 + rho)/4)^2 = 9/4 at rho = 1/2.
        p = DistanceProfile(2, (16, 0, 0), 4, 4)
        with pytest.raises(ValueError, match="no pair of sets"):
            rectangle_prob(p, 0.5)
        with pytest.raises(ValueError, match="9/4"):
            rectangle_prob_fraction(p, Fraction(1, 2))
        # At rho = 0, P = |A||B| / 4^n, which sizes up to 2^n keep <= 1.
        assert rectangle_prob(p, 0.0) == 0.0
        assert rectangle_prob_fraction(p, 0) == 1

    def test_sizes_above_the_cube_rejected(self):
        # No two sets of 10 points exist in {0,1}^2; this profile used to
        # give log2 P = -4 at rho = 0.9.
        with pytest.raises(ValueError, match="outside \\[1, 2\\^n = 4\\]"):
            DistanceProfile(2, (0, 0, 100), 10, 10)
        with pytest.raises(ValueError):
            DistanceProfile(2, (0, 0, 20), 4, 5)
        assert DistanceProfile(2, (4, 8, 4), 4, 4).size_a == 4

    def test_float_rejects_rho_one(self):
        p = sphere_distance_profile(3, 1, 1)
        with pytest.raises(ValueError):
            rectangle_prob(p, 1.0)

    def test_direct_returns_rho_number_type(self):
        # One double loop: a Fraction rho gives the exact Fraction, a float
        # rho a float in plain probability space (here 27/256 = 0.10546875).
        a = CubeSet.sphere(4, 1)
        exact = rectangle_prob_direct(a, a, Fraction(1, 2))
        assert isinstance(exact, Fraction) and exact == Fraction(27, 256)
        approx = rectangle_prob_direct(a, a, 0.5)
        assert isinstance(approx, float) and approx == pytest.approx(27 / 256, rel=1e-15)

    @pytest.mark.parametrize("rho", [math.nan, -0.1, 1.5, Fraction(3, 2)])
    def test_direct_rejects_rho_outside_unit_interval(self, rho):
        a = CubeSet.sphere(3, 1)
        with pytest.raises(ValueError):
            rectangle_prob_direct(a, a, rho)

    def test_direct_agrees_with_profile_path(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(1, 10)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            rho = rng.random() * 0.99
            via_profile = rectangle_prob(pair_distance_profile(a, b), rho)
            direct = math.log2(rectangle_prob_direct(a, b, rho))
            assert direct == pytest.approx(via_profile, abs=1e-11)

    def test_direct_agrees_exactly_in_rational_mode(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(1, 8)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            rho = Fraction(rng.randint(0, 10), 10)
            via_profile = rectangle_prob_fraction(pair_distance_profile(a, b), rho)
            assert rectangle_prob_direct(a, b, rho) == via_profile

    def test_monotone_in_rho_for_diagonal_sets(self):
        # P[A x A] grows with correlation when A is a subcube.
        a = CubeSet.from_strings(4, ["0000", "0001", "0010", "0011"])
        p = pair_distance_profile(a, a)
        values = [rectangle_prob(p, rho) for rho in [0.0, 0.2, 0.4, 0.6, 0.8]]
        assert all(x < y for x, y in zip(values, values[1:]))


class TestNoiseOperator:
    def test_constant_fixed_point(self):
        f = CubeFunction.constant(5, 1.0)
        g = noise_operator(f, 0.7)
        assert np.allclose(g.values, 1.0, atol=1e-12)

    def test_rho_zero_gives_mean(self):
        rng = np.random.default_rng(0)
        f = CubeFunction(4, rng.standard_normal(16))
        g = noise_operator(f, 0.0)
        assert np.allclose(g.values, f.mean(), atol=1e-12)

    def test_rho_one_identity(self):
        rng = np.random.default_rng(1)
        f = CubeFunction(4, rng.standard_normal(16))
        g = noise_operator(f, 1.0)
        assert np.allclose(g.values, f.values, atol=1e-12)

    def test_single_coordinate(self):
        # f(x) = x_0 has conditional expectation (1-rho)/2 + rho*y_0.
        n, rho = 3, 0.6
        vals = np.array([(idx & 1) for idx in range(2**n)], dtype=float)
        f = CubeFunction(n, vals)
        g = noise_operator(f, rho)
        for idx in range(2**n):
            expected = (1 - rho) / 2 + rho * (idx & 1)
            assert g.values[idx] == pytest.approx(expected, abs=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(2)
        for n in [2, 5, 8]:
            f = CubeFunction(n, rng.standard_normal(2**n))
            g = CubeFunction(n, rng.standard_normal(2**n))
            rho = rng.uniform(0, 1)
            lhs = inner_product(f, noise_operator(g, rho))
            rhs = inner_product(noise_operator(f, rho), g)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_semigroup(self):
        rng = np.random.default_rng(3)
        for n in [3, 6]:
            f = CubeFunction(n, rng.standard_normal(2**n))
            r1, r2 = rng.uniform(0, 1), rng.uniform(0, 1)
            twice = noise_operator(noise_operator(f, r2), r1)
            once = noise_operator(f, r1 * r2)
            assert np.allclose(twice.values, once.values, atol=1e-10)

    def test_factorization_identity(self):
        # P[X in A, Y in B] = <1_B, T_rho 1_A>.
        rng = random.Random(41)
        for _ in range(10):
            n = rng.randint(2, 9)
            a = random_set(rng, n, rng.randint(1, 2**n))
            b = random_set(rng, n, rng.randint(1, 2**n))
            rho = rng.random() * 0.99
            lhs = rectangle_prob_direct(a, b, rho)
            rhs = inner_product(
                CubeFunction.indicator(b), noise_operator(CubeFunction.indicator(a), rho)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_markov_direct_convolution(self):
        # Cross-check the spectral implementation against the defining
        # conditional expectation, summed over all 2^n source strings.
        n, rho = 4, 0.35
        rng = np.random.default_rng(4)
        f = CubeFunction(n, rng.standard_normal(2**n))
        g = noise_operator(f, rho)
        same = (1 + rho) / 2
        for y in range(2**n):
            total = 0.0
            for x in range(2**n):
                d = bin(x ^ y).count("1")
                total += f.values[x] * same ** (n - d) * (1 - same) ** d
            assert g.values[y] == pytest.approx(total, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 3, 6, 10, 14, 16])
    def test_matches_butterfly_reference(self, n):
        gen = np.random.default_rng(300 + n)
        f = CubeFunction(n, gen.standard_normal(1 << n))
        levels = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
        for rho in [0.0, 0.25, 0.9, 1.0, gen.uniform()]:
            coeffs = butterfly_fwht(f.values) * rho ** levels.astype(np.float64)
            expected = butterfly_fwht(coeffs) / (1 << n)
            got = noise_operator(f, rho).values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            CubeFunction(21, np.zeros(2**21))
        # A bool is not a dimension, although True == 1.
        with pytest.raises(ValueError, match=r"\[1, 20\], got True"):
            CubeFunction(True, [0.0, 1.0])
        # A constant is refused before its 16 MB array exists.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                CubeFunction.constant(21, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPNorm:
    def test_half_cube_two_norm(self):
        s = CubeSet(4, tuple(range(8)))
        f = CubeFunction.indicator(s)
        assert p_norm(f, 2.0) == pytest.approx(2.0 ** (-0.5), abs=1e-14)

    def test_constant(self):
        for c in [-2.5, 0.0, 3.0]:
            f = CubeFunction.constant(3, c)
            for p in [1.0, 2.0, 7.5]:
                assert p_norm(f, p) == pytest.approx(abs(c), abs=1e-13)

    def test_indicator_formula(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 10)
            s = random_set(rng, n, rng.randint(1, 2**n))
            f = CubeFunction.indicator(s)
            p = rng.uniform(1, 10)
            assert p_norm(f, p) == pytest.approx(
                (len(s) / 2**n) ** (1 / p), abs=1e-12
            )

    def test_strictly_increasing_in_p(self):
        s = CubeSet(6, tuple(range(13)))
        f = CubeFunction.indicator(s)
        ps = [1.0 + 0.5 * i for i in range(12)]
        norms = [p_norm(f, p) for p in ps]
        assert all(a < b for a, b in zip(norms, norms[1:]))

    def test_p_below_one_rejected(self):
        f = CubeFunction.constant(2, 1.0)
        with pytest.raises(ValueError):
            p_norm(f, 0.9)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_p_rejected(self, p):
        # Unchecked, NaN gives nan and inf gives 1.0 for the constant 0.5,
        # whose sup-norm is 0.5.
        f = CubeFunction.constant(2, 0.5)
        with pytest.raises(ValueError):
            p_norm(f, p)


class TestComplementSet:
    def test_singleton(self):
        s = CubeSet.from_strings(4, ["0000"])
        assert complement_set(s).to_strings() == ["1111"]

    def test_involution(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 12)
            s = random_set(rng, n, rng.randint(1, 2**n))
            assert complement_set(complement_set(s)) == s

    def test_preserves_size(self):
        s = CubeSet.sphere(7, 2)
        assert len(complement_set(s)) == len(s)


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        s = CubeSet.from_strings(5, ["00000", "10101", "11111"])
        path = tmp_path / "a.set"
        write_set_file(path, s)
        assert read_set_file(path) == s

    def test_header_parse(self, tmp_path):
        path = tmp_path / "b.set"
        path.write_text("n=3\n010\n111\n")
        s = read_set_file(path)
        assert s.n == 3 and len(s) == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.set"
        path.write_text("m=3\n010\n")
        with pytest.raises(SetFileError) as info:
            read_set_file(path)
        assert info.value.line == 1

    def test_wrong_length_line(self, tmp_path):
        path = tmp_path / "d.set"
        path.write_text("n=4\n0000\n010\n")
        with pytest.raises(SetFileError) as info:
            read_set_file(path)
        assert info.value.line == 3
        assert "line 3" in str(info.value)

    def test_bad_character(self, tmp_path):
        path = tmp_path / "e.set"
        path.write_text("n=2\n0x\n")
        with pytest.raises(SetFileError) as info:
            read_set_file(path)
        assert info.value.line == 2

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "f.set"
        path.write_text("n=2\n01\n01\n")
        with pytest.raises(SetFileError) as info:
            read_set_file(path)
        assert info.value.line == 3

    def test_dimension_above_the_cap(self, tmp_path):
        path = tmp_path / "h.set"
        path.write_text("n=21\n" + "0" * 21 + "\n")
        with pytest.raises(SetFileError, match=r"\[1, 20\], got 21") as info:
            read_set_file(path)
        assert info.value.line == 1

    def test_empty_set_rejected(self, tmp_path):
        path = tmp_path / "g.set"
        path.write_text("n=2\n")
        with pytest.raises(SetFileError):
            read_set_file(path)


@given(
    n=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_profile_probability_consistency(n, data):
    """Property: profile-based and direct probabilities agree exactly."""
    universe = list(range(2**n))
    a = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=2**n))
    b = data.draw(st.sets(st.sampled_from(universe), min_size=1, max_size=2**n))
    rho = Fraction(data.draw(st.integers(min_value=0, max_value=8)), 8)
    sa = CubeSet(n, tuple(sorted(a)))
    sb = CubeSet(n, tuple(sorted(b)))
    profile = pair_distance_profile(sa, sb)
    assert sum(profile.counts) == len(sa) * len(sb)
    assert rectangle_prob_fraction(profile, rho) == rectangle_prob_direct(sa, sb, rho)


def test_declared_numpy_floor_has_bitwise_count():
    # np.bitwise_count, used by the profile and noise code, is NumPy 2.0+.
    # A regex, since tomllib is missing on Python 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'"numpy>=(\d+)', text)
    assert match is not None
    assert int(match.group(1)) >= 2


# Values at and past the edges of the oracle's domains.
_HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 0.5,
            1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, -1.0, 1e300, -1e300)
_RHO = st.one_of(st.sampled_from(_HOSTILE), st.floats(), st.fractions(),
                 st.integers(-3, 3))
_INDEX = st.one_of(st.integers(-3, 64), st.booleans(), st.sampled_from(_HOSTILE),
                   st.sampled_from(["1", 1.0, 1.5]))
_PROFILE = sphere_distance_profile(6, 2, 3)


class TestHostileInput:
    # Every public entry point of the oracle either returns or raises
    # ValueError; overflow and type errors from inside fail here.

    @pytest.mark.parametrize(
        "call",
        [
            lambda: rectangle_prob_fraction(_PROFILE, float("inf")),
            lambda: rectangle_prob_fraction(_PROFILE, None),
            lambda: sphere_distance_profile(4, 1.0, 1),
            lambda: sphere_distance_profile(4, True, 1),
            lambda: sphere_distance_profile(True, 0, 1),
            lambda: CubeSet.sphere(4, 1.5),
            lambda: CubeSet.sphere(4, True),
            lambda: p_norm(CubeFunction.constant(2, 0.5), 10**400),
        ],
        ids=["fraction-inf", "fraction-none", "sphere-float-radius", "sphere-bool-radius",
             "sphere-bool-dim", "cube-sphere-float", "cube-sphere-bool", "p-norm-huge"],
    )
    def test_known_cases(self, call):
        with pytest.raises(ValueError):
            call()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_RHO)
    def test_rectangle_prob(self, rho):
        try:
            log2_p = rectangle_prob(_PROFILE, rho)
        except ValueError:
            return
        assert log2_p <= 0.0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_RHO)
    def test_rectangle_prob_fraction(self, rho):
        try:
            p = rectangle_prob_fraction(_PROFILE, rho)
        except ValueError:
            return
        assert 0 <= p <= 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_INDEX, _INDEX, _INDEX)
    def test_sphere_distance_profile(self, n, i, j):
        # n stays at most 64 to keep the drive fast; the cap on n has its
        # own test.
        try:
            profile = sphere_distance_profile(n, i, j)
        except ValueError:
            return
        assert sum(profile.counts) == math.comb(n, i) * math.comb(n, j)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_INDEX, _INDEX)
    def test_cube_sphere(self, n, weight):
        try:
            s = CubeSet.sphere(n, weight)
        except ValueError:
            return
        assert len(s) == math.comb(n, weight)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_INDEX, st.lists(st.one_of(_INDEX, st.integers()), max_size=5), _INDEX, _INDEX)
    def test_distance_profile(self, n, counts, size_a, size_b):
        try:
            profile = DistanceProfile(n, counts, size_a, size_b)
        except ValueError:
            return
        assert all(type(c) is int and c >= 0 for c in profile.counts)
        assert sum(profile.counts) == profile.size_a * profile.size_b

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_INDEX, st.integers(1, 8), st.sampled_from(_HOSTILE))
    def test_cube_function_constructors(self, n, size, value):
        try:
            CubeFunction(n, [value] * size)
        except ValueError:
            pass
        try:
            CubeFunction.constant(n, value)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.one_of(st.sampled_from(_HOSTILE), st.floats()),
                               min_size=1 << n, max_size=1 << n)
        ),
        _RHO,
        _RHO,
    )
    def test_cube_function_operators(self, values, rho, p):
        try:
            f = CubeFunction(len(values).bit_length() - 1, values)
        except ValueError:
            return
        with np.errstate(all="ignore"):
            try:
                noise_operator(f, rho)
            except ValueError:
                pass
            try:
                p_norm(f, p)
            except ValueError:
                pass
