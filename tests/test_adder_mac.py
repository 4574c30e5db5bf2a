"""Tests for the zero-error adder-MAC exponent bound and feasibility scan.

The cap and exponent are pinned by hand-computable substitutions; the
scanner is checked for its structural guarantees (monotone frontier,
grid-refinement stability) on grids small enough to run in seconds.
"""

import json
import math
import random
from unittest import mock

import mpmath
import pytest

import hyperrect.adder_mac as adder_mac_module
import hyperrect.entropy as entropy_module
import hyperrect.exponents as exponents_module
from hyperrect import (
    FeasibilityFrontier,
    RatePair,
    avgdist_lower_exponent,
    feasibility_scan,
    morss_lower_exponent,
    van_tilborg_wd_cap,
    zero_error_upper_exponent,
)
from hyperrect.cli import main


def mp_zero_error_exponent(total, rho):
    """Independent E at 50 digits: the cap crossing h(d) + d = R1 + R2 by
    mpmath's findroot, then the closed-form optimum min(d*, 1/2, d_c)."""
    with mpmath.workdps(50):
        total, rho = mpmath.mpf(total), mpmath.mpf(rho)

        def h(d):
            return -(d * mpmath.log(d, 2) + (1 - d) * mpmath.log(1 - d, 2))

        if total >= 1.5:
            crossing = mpmath.mpf(0.5)
        else:
            crossing = mpmath.findroot(
                lambda d: h(d) + d - total, (mpmath.mpf(1e-30), mpmath.mpf(0.5)),
                solver="anderson",
            )
        ell = mpmath.log((1 - rho) / (1 + rho), 2)
        d_opt = min(2 * (1 - rho) / (3 - rho), crossing)
        peak = h(d_opt) + d_opt * (1 + ell)
        return float(2 - mpmath.log(1 + rho, 2) - peak)


def seeded_total_rho(count, seed):
    """(R1 + R2, rho) draws, with the edges the closed form branches on:
    totals past 3/2, rho = 0 and rho near 1."""
    rng = random.Random(seed)
    points = [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.999)) for _ in range(count)]
    points += [(rng.uniform(1.5, 2.0), rng.uniform(0.0, 0.999)) for _ in range(10)]
    points += [(rng.uniform(0.01, 2.0), 0.0) for _ in range(10)]
    points += [(rng.uniform(0.01, 2.0), 1.0 - 10.0 ** -rng.uniform(3, 9)) for _ in range(10)]
    return points + [(1.5, 0.3), (1.9, 0.0), (2.0, 0.5), (0.05, 0.99)]


def pair_with_total(total):
    return RatePair(min(total, 1.0), total - min(total, 1.0))


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

    def test_matches_mpmath(self):
        for total, rho in seeded_total_rho(60, seed=11):
            b = zero_error_upper_exponent(pair_with_total(total), rho)
            assert b.value == pytest.approx(
                mp_zero_error_exponent(total, rho), abs=1e-12
            ), (total, rho)

    def test_no_grid_point_beats_the_optimum(self):
        # E is the minimum over d, so no point of a dense d grid may give
        # a smaller value (slack: a few ulps of the objective's roundoff).
        grid = [i / 10000 for i in range(10001)]
        for total, rho in seeded_total_rho(10, seed=12):
            pair = pair_with_total(total)
            ell = math.log2((1 - rho) / (1 + rho))
            value = zero_error_upper_exponent(pair, rho).value
            best = max(van_tilborg_wd_cap(d, pair) + d * ell for d in grid)
            assert value <= 2 - math.log2(1 + rho) - best + 2e-15, (total, rho)

    def test_plain_float_results_with_d_opt_at_most_half(self):
        for total, rho in seeded_total_rho(20, seed=13):
            b = zero_error_upper_exponent(pair_with_total(total), rho)
            assert type(b.value) is float and type(b.d_opt) is float
            assert 0.0 <= b.d_opt <= 0.5
        assert zero_error_upper_exponent(RatePair(1.0, 0.9), 0.0).d_opt == 0.5


class TestFeasibilityScan:
    def make_scan(self, m=9, rho_points=60):
        r1 = [(i + 1) / (m + 1) for i in range(m)]
        rho = [(i + 1) / (rho_points + 1) for i in range(rho_points)]
        return feasibility_scan(r1, rho)

    def test_over_budget_rejected_before_scanning(self):
        # 10**4 points per grid, 10**12 (R1, R2, rho) triples in all.
        grid = [(i + 1) / (10**4 + 1) for i in range(10**4)]
        with mock.patch.object(entropy_module, "binary_entropy_inv", side_effect=AssertionError):
            with pytest.raises(ValueError, match="budget"):
                feasibility_scan(grid, grid, grid)
            with pytest.raises(ValueError, match="budget"):
                feasibility_scan(grid, grid)

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

    def test_cap_crossing_solved_once_per_rate_pair(self):
        # The crossing depends on R1 + R2 only: one pair, ten rhos, one solve.
        crossing = adder_mac_module._cap_crossing
        with mock.patch.object(adder_mac_module, "_cap_crossing", wraps=crossing) as spy:
            feasibility_scan([0.3], [i / 11 for i in range(1, 11)], r2_grid=[0.2])
        assert spy.call_count == 1

    def test_inverts_once_per_distinct_grid_value(self):
        # A 3 x 3 scan over ten rhos; 0.6 is in both grids.
        r1, r2 = [0.3, 0.6, 0.9], [0.5, 0.6, 0.95]
        inverse = entropy_module.binary_entropy_inv
        with mock.patch.object(entropy_module, "binary_entropy_inv", wraps=inverse) as spy:
            feasibility_scan(r1, [i / 11 for i in range(1, 11)], r2_grid=r2)
        assert spy.call_count <= len(set(r1 + r2))

    def test_builds_no_exponent_bound(self):
        # The rho loop is float arithmetic: no public exponent runs, so no
        # ExponentBound is built and no range check repeats.
        morss = exponents_module.morss_lower_exponent
        with mock.patch.object(exponents_module, "morss_lower_exponent", wraps=morss) as spy:
            with mock.patch.object(
                exponents_module.ExponentBound, "__post_init__", side_effect=AssertionError
            ):
                feasibility_scan([0.3, 0.6, 0.9], [i / 11 for i in range(1, 11)])
        assert spy.call_count == 0

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

    def test_margin_default_frontier(self):
        frontier = feasibility_scan([0.3, 0.6, 0.9], [0.2, 0.5, 0.8])
        assert frontier.r2_max == (0.9, 0.9, 0.6)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -math.inf, -1e-3])
    def test_margin_must_be_finite_nonnegative(self, margin):
        # Unchecked, margin = nan excludes nothing: (0.9, 0.9, 0.9).
        with pytest.raises(ValueError):
            feasibility_scan([0.3, 0.6, 0.9], [0.2, 0.5, 0.8], margin=margin)

    def test_frontier_type(self):
        frontier = self.make_scan(m=3, rho_points=10)
        assert isinstance(frontier, FeasibilityFrontier)
        assert len(frontier.r2_max) == len(frontier.r1_values) == 3


def restated_frontier(r1_grid, rho_grid, r2_grid, margin):
    """The documented exclusion rule through the public exponents: for each
    R1 the largest R2 with no rho where the zero-error exponent exceeds
    min(morss, avgdist) + margin."""

    def excluded(r1, r2):
        for rho in rho_grid:
            upper = zero_error_upper_exponent(RatePair(r1, r2), rho).value
            lower = min(
                morss_lower_exponent(r1, r2, rho).value,
                avgdist_lower_exponent(r1, r2, rho).value,
            )
            if upper > lower + margin:
                return True
        return False

    return tuple(
        max((r2 for r2 in r2_grid if not excluded(r1, r2)), default=None)
        for r1 in r1_grid
    )


class TestScanMatchesPublicExponents:
    """Seeded random grids, including rho within 1e-9 of 0 and 1e-6 of 1,
    R1 + R2 >= 3/2 (where the cap crossing is 1/2) and margin 0: the scan's
    hoisted arithmetic must reach the decisions of the public exponents."""

    @staticmethod
    def draw_grids(seed):
        rng = random.Random(seed)
        rho = [rng.uniform(0.0, 1.0) for _ in range(3)]
        rho += [10.0 ** -rng.uniform(1, 9), 1.0 - 10.0 ** -rng.uniform(1, 6)]
        rho += [1e-9, 1.0 - 1e-6][: rng.randint(0, 2)]
        r1 = [rng.uniform(0.01, 0.999) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            r2 = None
        else:
            r2 = [rng.uniform(0.5, 0.999) for _ in range(rng.randint(1, 6))]
            r2 += rng.sample(r1, 1)
        margin = rng.choice([0.0, 1e-9, rng.uniform(0.0, 0.1)])
        return r1, rng.sample(rho, len(rho)), r2, margin

    def test_random_grids(self):
        decisions = set()
        for seed in range(40):
            r1, rho, r2, margin = self.draw_grids(seed)
            frontier = feasibility_scan(r1, rho, r2_grid=r2, margin=margin)
            r2_grid = r1 if r2 is None else r2
            expected = restated_frontier(r1, rho, r2_grid, margin)
            assert frontier.r2_max == expected, seed
            decisions.update(
                "none" if best is None else "top" if best == max(r2_grid) else "inside"
                for best in expected
            )
        # The grids reach every kind of outcome, so a wrong decision shows.
        assert decisions == {"none", "top", "inside"}


class TestFrontierPinned:
    """Frontiers recorded from the grid-and-golden-section optimiser that
    the closed form replaced, as the index of each R1's largest
    non-excluded R2 in the R2 grid (None when every candidate is out)."""

    README = [29] * 11 + [28, 28] + list(range(27, 11, -1)) + [10]
    CRITERION_11_COARSE = [38] * 16 + list(range(37, 19, -1)) + [18]
    CRITERION_11_FINE = [77] * 15 + list(range(76, 39, -2)) + [37]

    def test_readme_command(self, capsys):
        code = main(
            ["scan", "--r1", "0.2:0.999:30", "--rho", "0.0125:0.9875:79", "--json"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["r2_max"] == [out["r1"][i] for i in self.README]

    @pytest.mark.parametrize(
        "r2_grid, expected",
        [
            ([i / 40.0 for i in range(1, 40)], CRITERION_11_COARSE),
            ([i / 80.0 for i in range(2, 80)], CRITERION_11_FINE),
        ],
        ids=["coarse", "fine"],
    )
    def test_criterion_11_grids(self, r2_grid, expected):
        r1_grid = [i / 40.0 for i in range(6, 40)] + [0.999]
        rho_grid = [i / 80.0 for i in range(1, 80)]
        frontier = feasibility_scan(r1_grid, rho_grid, r2_grid=r2_grid)
        assert list(frontier.r2_max) == [r2_grid[i] for i in expected]
