"""Tests for the zero-error adder-MAC exponent bound and feasibility scan.

The cap and exponent are pinned by hand-computable substitutions; the
scanner is checked for its structural guarantees (monotone frontier,
grid-refinement stability) on grids small enough to run in seconds.
"""

import math
from unittest import mock

import pytest

import hyperrect.adder_mac as adder_mac_module
import hyperrect.entropy as entropy_module
from hyperrect import (
    FeasibilityFrontier,
    RatePair,
    avgdist_lower_exponent,
    feasibility_scan,
    morss_lower_exponent,
    van_tilborg_wd_cap,
    zero_error_upper_exponent,
)


class TestRatePair:
    def test_total(self):
        assert RatePair(0.3, 0.6).total == pytest.approx(0.9)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.5)
        with pytest.raises(ValueError):
            RatePair(0.5, 1.1)


class TestVanTilborgCap:
    def test_endpoints(self):
        pair = RatePair(0.7, 0.7)
        assert van_tilborg_wd_cap(0.0, pair) == 0.0
        assert van_tilborg_wd_cap(1.0, pair) == 0.0

    def test_half_at_full_rates(self):
        assert van_tilborg_wd_cap(0.5, RatePair(1.0, 1.0)) == pytest.approx(1.5)

    def test_sum_rate_binds(self):
        # Low total rate: the counting cap R1+R2 is the binding term.
        pair = RatePair(0.2, 0.2)
        assert van_tilborg_wd_cap(0.5, pair) == pytest.approx(0.4)

    def test_entropy_term_binds(self):
        # Near the edges h(d) + min(d, 1-d) is small and binds instead.
        pair = RatePair(1.0, 1.0)
        d = 0.05
        expected = (
            -(d * math.log2(d) + (1 - d) * math.log2(1 - d)) + d
        )
        assert van_tilborg_wd_cap(d, pair) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_d(self):
        # h(d) is symmetric and min(d, 1-d) too, so the cap is symmetric
        # about 1/2 whenever the entropy term binds.
        pair = RatePair(1.0, 1.0)
        for d in [0.1, 0.25, 0.4]:
            assert van_tilborg_wd_cap(d, pair) == pytest.approx(
                van_tilborg_wd_cap(1 - d, pair), abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            van_tilborg_wd_cap(-0.01, RatePair(0.5, 0.5))
        with pytest.raises(ValueError):
            van_tilborg_wd_cap(1.01, RatePair(0.5, 0.5))


class TestZeroErrorExponent:
    def test_rho_zero_full_rates(self):
        b = zero_error_upper_exponent(RatePair(1.0, 1.0), 0.0)
        assert b.value == pytest.approx(0.5, abs=1e-8)
        assert b.d_opt == pytest.approx(0.5, abs=1e-4)

    def test_rho_zero_general(self):
        # At rho = 0 the exponent is 2 minus the cap's maximum.
        for r1, r2 in [(0.4, 0.4), (0.9, 0.3), (1.0, 0.5)]:
            pair = RatePair(r1, r2)
            grid = [i / 10000 for i in range(10001)]
            cap_max = max(van_tilborg_wd_cap(d, pair) for d in grid)
            b = zero_error_upper_exponent(pair, 0.0)
            assert b.value == pytest.approx(2 - cap_max, abs=1e-6)

    def test_nonnegative(self):
        for r1, r2, rho in [(1.0, 1.0, 0.9), (0.5, 0.5, 0.5), (0.1, 0.9, 0.0)]:
            assert zero_error_upper_exponent(RatePair(r1, r2), rho).value >= 0.0

    def test_dominates_capless_bound(self):
        # Dropping the van Tilborg term only lowers the minimum, so the
        # result is at least 2 - log2(1+rho) - (R1+R2) - max(0, -L) with
        # L = log2((1-rho)/(1+rho)).
        for r1, r2, rho in [(1.0, 1.0, 0.5), (0.8, 0.6, 0.3), (0.5, 0.5, 0.7)]:
            pair = RatePair(r1, r2)
            ell = math.log2((1 - rho) / (1 + rho))
            trivial = 2 - math.log2(1 + rho) - pair.total - max(0.0, -ell)
            assert (
                zero_error_upper_exponent(pair, rho).value >= trivial - 1e-9
            )

    def test_monotone_in_rho_at_high_rates(self):
        for r1, r2 in [(1.0, 1.0), (0.9, 0.9)]:
            values = [
                zero_error_upper_exponent(RatePair(r1, r2), rho).value
                for rho in [0.0, 0.2, 0.4, 0.6, 0.8]
            ]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_kind_direction(self):
        b = zero_error_upper_exponent(RatePair(0.5, 0.5), 0.3)
        assert b.kind == "zero_error_upper"
        assert b.direction == "upper_on_P"

    def test_rho_one_rejected(self):
        with pytest.raises(ValueError):
            zero_error_upper_exponent(RatePair(0.5, 0.5), 1.0)


class TestFeasibilityScan:
    def make_scan(self, m=9, rho_points=60):
        r1 = [(i + 1) / (m + 1) for i in range(m)]
        rho = [(i + 1) / (rho_points + 1) for i in range(rho_points)]
        return feasibility_scan(r1, rho)

    def test_frontier_nonincreasing(self):
        frontier = self.make_scan()
        assert frontier.is_nonincreasing()

    def test_small_r1_saturates(self):
        frontier = self.make_scan()
        assert frontier.r2_max[0] == pytest.approx(frontier.r2_grid[-1])

    def test_exclusion_monotone_in_r1(self):
        # If (r1, r2) is excluded, so is (r1', r2) for every r1' >= r1:
        # read off the frontier itself.
        frontier = self.make_scan()
        values = [v for v in frontier.r2_max if v is not None]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_exclusion_signal_exists_at_high_rates(self):
        # Near r1 = 1 the scanner must actually exclude something.
        r1 = [0.999]
        rho = [i / 400 for i in range(1, 400)]
        r2 = [i / 40 for i in range(1, 40)]
        frontier = feasibility_scan(r1, rho, r2_grid=r2)
        assert frontier.r2_max[0] is not None
        assert frontier.r2_max[0] < frontier.r2_grid[-1]

    def test_manual_exclusion_cross_check(self):
        # Replay the exclusion predicate at one point the scanner excluded.
        rho_grid = [i / 400 for i in range(1, 400)]
        r1, r2 = 0.999, 0.52
        excluded = False
        for rho in rho_grid:
            z = zero_error_upper_exponent(RatePair(r1, r2), rho).value
            lower = min(
                morss_lower_exponent(r1, r2, rho).value,
                avgdist_lower_exponent(r1, r2, rho).value,
            )
            if z > lower + 1e-9:
                excluded = True
                break
        assert excluded

    def test_phi_inverted_once_per_rate_pair(self):
        # phi(r1, r2) does not depend on rho: one pair, ten rhos, two inverses.
        inverse = entropy_module.binary_entropy_inv
        with mock.patch.object(entropy_module, "binary_entropy_inv", wraps=inverse) as spy:
            feasibility_scan([0.3], [i / 11 for i in range(1, 11)], r2_grid=[0.2])
        assert spy.call_count == 2

    def test_entropy_grid_cache_bounded(self):
        assert adder_mac_module._entropy_grid.cache_info().maxsize is not None

    def test_grid_refinement_stability(self):
        # Doubling the r2 grid density moves the frontier at most one
        # coarse step at each shared r1.
        m = 9
        r1 = [(i + 1) / (m + 1) for i in range(m)]
        rho = [(i + 1) / 61 for i in range(60)]
        coarse_r2 = [(i + 1) / 21 for i in range(20)]
        fine_r2 = [(i + 1) / 41 for i in range(40)]
        coarse = feasibility_scan(r1, rho, r2_grid=coarse_r2)
        fine = feasibility_scan(r1, rho, r2_grid=fine_r2)
        step = coarse_r2[1] - coarse_r2[0]
        for a, b in zip(coarse.r2_max, fine.r2_max):
            if a is None or b is None:
                continue
            assert abs(a - b) <= step + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            feasibility_scan([], [0.5])
        with pytest.raises(ValueError):
            feasibility_scan([0.5], [])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ValueError):
            feasibility_scan([0.0], [0.5])
        with pytest.raises(ValueError):
            feasibility_scan([0.5], [1.0])

    def test_frontier_type(self):
        frontier = self.make_scan(m=3, rho_points=10)
        assert isinstance(frontier, FeasibilityFrontier)
        assert len(frontier.r2_max) == len(frontier.r1_values) == 3
