"""Tests for grid sweeps, the surface table, and convergence studies."""

import math
import random
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperrect.entropy as entropy_module
import hyperrect.exponents as exponents_module
import hyperrect.sweeps as sweeps_module
from hyperrect import (
    NEG_INF,
    AxisSpec,
    ResultTable,
    SweepError,
    SweepSpec,
    convergence_study,
    figure_phi_surface,
    phi,
    run_sweep,
    sphere_exponent,
    thm1_expansion,
)
from hyperrect.sweeps import MAX_GRID_POINTS, OPERATIONS, _format_cell


def reference_csv(table):
    """The CSV text as one `_format_cell` call per cell, row by row."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


class TestAxisSpec:
    def test_linear_points(self):
        axis = AxisSpec("alpha", 0.0, 1.0, 5)
        assert axis.points() == pytest.approx((0.0, 0.25, 0.5, 0.75, 1.0))

    def test_log_points(self):
        axis = AxisSpec("rho", 0.01, 1.0, 3, spacing="log")
        assert axis.points() == pytest.approx((0.01, 0.1, 1.0))

    def test_count_minimum(self):
        with pytest.raises(ValueError):
            AxisSpec("alpha", 0.0, 1.0, 1)

    def test_bad_name(self):
        with pytest.raises(ValueError):
            AxisSpec("not a name", 0.0, 1.0, 3)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            AxisSpec("alpha", 0.0, 1.0, 3, spacing="cubic")

    def test_log_requires_positive(self):
        with pytest.raises(ValueError):
            AxisSpec("rho", 0.0, 1.0, 3, spacing="log")

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_over_budget_count_rejected_before_allocation(self, spacing):
        with mock.patch.object(sweeps_module, "_lattice", side_effect=AssertionError):
            with pytest.raises(ValueError, match="budget"):
                AxisSpec("x", 0.5, 1.0, 10**12, spacing)
            AxisSpec("x", 0.5, 1.0, MAX_GRID_POINTS, spacing)

    def test_linear_points_equal_numpy_linspace(self):
        rng = random.Random(67)
        for _ in range(500):
            start, stop = rng.uniform(-10, 10), rng.uniform(-10, 10)
            count = rng.randint(2, 60)
            expected = tuple(float(v) for v in np.linspace(start, stop, count))
            assert AxisSpec("x", start, stop, count).points() == expected

    def test_log_points_pin_both_ends(self):
        points = AxisSpec("x", 3e-5, 7e4, 9, "log").points()
        assert (points[0], points[-1]) == (3e-5, 7e4)
        assert points == pytest.approx(tuple(np.geomspace(3e-5, 7e4, 9)), rel=1e-14)

    def test_overflowing_step_rejected(self):
        # With numpy the points were (nan, -inf, -1e308), with warnings.
        with pytest.raises(ValueError, match="not finite"):
            AxisSpec("x", 1e308, -1e308, 3).points()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_non_finite_endpoint_rejected(self, bad, spacing):
        # Unchecked, a NaN start yields the points (nan, nan, 1.0).
        with pytest.raises(ValueError):
            AxisSpec("x", bad, 1.0, 3, spacing)
        with pytest.raises(ValueError):
            AxisSpec("x", 0.5, bad, 3, spacing)


class TestRunSweep:
    def test_over_budget_spec_rejected_before_allocation(self):
        axes = (AxisSpec("alpha", 0.1, 0.9, 10**6), AxisSpec("rho", 0.1, 0.9, 10**6))
        with mock.patch.object(AxisSpec, "points", side_effect=AssertionError):
            with pytest.raises(ValueError, match="10000000"):
                SweepSpec("thm1_expansion", axes=axes)
            # Exactly at the budget the spec is accepted (and not run).
            axes = (AxisSpec("alpha", 0.1, 0.9, 10**4), AxisSpec("rho", 0.1, 0.9, 10**3))
            SweepSpec("thm1_expansion", axes=axes)

    def test_grid_cardinality(self):
        spec = SweepSpec(
            "thm1_expansion",
            axes=(
                AxisSpec("alpha", 0.3, 0.7, 3),
                AxisSpec("rho", 0.9, 0.98, 3),
            ),
        )
        table = run_sweep(spec)
        assert len(table.rows) == 9
        assert table.columns == ("alpha", "rho", "exponent")

    def test_lexicographic_order_first_axis_slowest(self):
        spec = SweepSpec(
            "binary_entropy",
            axes=(AxisSpec("p", 0.1, 0.3, 3),),
        )
        table = run_sweep(spec)
        ps = table.column("p")
        assert ps == pytest.approx((0.1, 0.2, 0.3))

    def test_single_point_equals_direct_call(self):
        spec = SweepSpec(
            "sphere_exponent",
            params={"alpha": 0.5, "beta": 0.5, "rho": 0.3, "centers": "same"},
        )
        table = run_sweep(spec)
        assert len(table.rows) == 1
        direct = sphere_exponent(0.5, 0.5, 0.3, centers="same")
        row = dict(zip(table.columns, table.rows[0]))
        assert row["exponent"] == direct.value
        assert row["d_opt"] == direct.d_opt

    def test_values_match_direct_on_grid(self):
        spec = SweepSpec(
            "thm1_expansion",
            axes=(AxisSpec("alpha", 0.3, 0.7, 5),),
            params={"rho": 0.95},
        )
        table = run_sweep(spec)
        for row in table.rows:
            d = dict(zip(table.columns, row))
            assert d["exponent"] == thm1_expansion(d["alpha"], 0.95).value

    def test_axis_alias_binding(self):
        # A string param naming another input reuses that axis's value,
        # giving the equal-rate diagonal from a single axis.
        from hyperrect import morss_lower_exponent

        spec = SweepSpec(
            "morss_lower",
            axes=(AxisSpec("alpha", 0.2, 0.8, 4),),
            params={"beta": "alpha", "rho": 0.5},
        )
        table = run_sweep(spec)
        assert len(table.rows) == 4
        for row in table.rows:
            d = dict(zip(table.columns, row))
            expected = morss_lower_exponent(d["alpha"], d["alpha"], 0.5).value
            assert d["exponent"] == expected

    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            SweepSpec("frobnicate", axes=())

    def test_unknown_axis_name(self):
        with pytest.raises(ValueError):
            SweepSpec("binary_entropy", axes=(AxisSpec("zeta", 0.1, 0.3, 3),))

    def test_double_binding_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(
                "binary_entropy",
                axes=(AxisSpec("p", 0.1, 0.3, 3),),
                params={"p": 0.2},
            )

    def test_error_identifies_grid_point(self):
        # rho = 1 is outside rhct's domain; the error names the point.
        spec = SweepSpec(
            "rhct_lower",
            axes=(AxisSpec("rho", 0.5, 1.0, 2),),
            params={"alpha": 0.5},
        )
        with pytest.raises(SweepError) as info:
            run_sweep(spec)
        assert "rho" in str(info.value)
        assert "1" in str(info.value)

    def test_determinism_byte_identical(self):
        spec = SweepSpec(
            "avgdist_lower",
            axes=(
                AxisSpec("alpha", 0.2, 0.8, 4),
                AxisSpec("rho", 0.1, 0.9, 5),
            ),
            params={"beta": 0.5},
        )
        first = run_sweep(spec).to_csv_text()
        second = run_sweep(spec).to_csv_text()
        assert first == second

    def test_csv_written(self, tmp_path):
        # The spec holds no output path; the caller writes the table.
        out = tmp_path / "sweep.csv"
        spec = SweepSpec("binary_entropy", axes=(AxisSpec("p", 0.1, 0.5, 3),))
        table = run_sweep(spec)
        table.write_csv(out)
        assert out.read_text() == table.to_csv_text()
        with pytest.raises(TypeError):
            SweepSpec("binary_entropy", out_path=str(out))

    def test_sweep_error_is_a_value_error(self):
        assert issubclass(SweepError, ValueError)

    def test_programming_error_propagates_unwrapped(self):
        # Only ValueError means bad input; any other exception is a bug
        # and must keep its own type and traceback.
        def broken(*args, **kwargs):
            raise TypeError("broken operation")

        spec = SweepSpec(
            "sphere_exponent",
            axes=(AxisSpec("rho", 0.2, 0.8, 3),),
            params={"alpha": 0.4, "beta": 0.7},
        )
        with mock.patch.object(exponents_module, "sphere_exponent", broken):
            with pytest.raises(TypeError, match="broken operation"):
                run_sweep(spec)

    def test_starts_no_thread(self):
        spec = SweepSpec(
            "w_d",
            axes=(
                AxisSpec("alpha", 0.3, 0.7, 4),
                AxisSpec("d", 0.05, 0.3, 6),
            ),
            params={"beta": 0.5},
        )
        with mock.patch.object(
            threading.Thread, "start", side_effect=AssertionError("thread started")
        ):
            table = run_sweep(spec)
        assert len(table.rows) == 24


class TestResultTable:
    def test_csv_shape(self):
        table = ResultTable(("a", "b"), ((1.0, 2.0), (3.0, 4.0)))
        text = table.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_sentinel_rendering(self):
        table = ResultTable(
            ("x", "w"), ((0.9, NEG_INF), (0.1, math.inf), (0.2, math.nan))
        )
        lines = table.to_csv_text().splitlines()
        assert lines[1].endswith("-inf")
        assert lines[2].endswith("inf")
        assert lines[3].endswith("nan")

    @pytest.mark.parametrize(
        "cell, text",
        [
            (math.inf, "inf"),
            (NEG_INF, "-inf"),
            (math.nan, "nan"),
            (True, "True"),
            (7, "7"),
            (-3, "-3"),
            ("same", "same"),
            (0.1, "0.1"),
            (np.float64(0.25), "0.25"),
            (np.int64(3), "3.0"),
        ],
    )
    def test_cell_rendering(self, cell, text):
        assert _format_cell(cell) == text

    def test_floats_round_trip(self):
        value = 0.1234567890123456789
        table = ResultTable(("v",), ((value,),))
        rendered = table.to_csv_text().splitlines()[1]
        assert float(rendered) == value

    # The column-wise writer must print exactly what formatting every cell
    # on its own does; these tables hold the cells a per-column memo could
    # confuse: equal keys that print differently, NaNs, numpy scalars.
    @pytest.mark.parametrize(
        "columns, rows",
        [
            (("a", "b"), ((0.0, -0.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0))),
            (("v",), ((1,), (1.0,), (True,), (1.0,), (1,), (False,), (0,), (0.0,), (True,))),
            (("v", "w"), ((math.nan, math.inf), (math.nan, NEG_INF), (float("nan"), math.inf))),
            (
                ("v",),
                ((np.float64(0.25),), (0.25,), (np.int64(3),), (3,), (3.0,), (np.float64(-0.0),)),
            ),
            (("s", "v"), (("x", 0.1), ("x", 0.1), ("0.1", 1e-300), ("y", -0.1))),
            (("a", "b"), ()),
            ((), ((), ())),
        ],
        ids=["signed-zeros", "int-float-bool", "nan-inf", "numpy", "strings", "no-rows", "no-columns"],
    )
    def test_csv_matches_cell_by_cell(self, columns, rows):
        table = ResultTable(columns, rows)
        assert table.to_csv_text() == reference_csv(table)

    def test_memo_edge_cases_spelled_out(self):
        zeros = ResultTable(("a", "b"), ((0.0, -0.0), (-0.0, 0.0)))
        assert zeros.to_csv_text() == "a,b\n0.0,-0.0\n-0.0,0.0\n"
        mixed = ResultTable(("v",), ((1.0,), (1,), (True,)))
        assert mixed.to_csv_text() == "v\n1.0\n1\nTrue\n"
        assert ResultTable((), ((), ())).to_csv_text() == "\n\n\n"
        assert ResultTable(("a",), ()).to_csv_text() == "a\n"

    def test_random_tables_match_cell_by_cell(self):
        rng = random.Random(25)
        pool = [0.0, -0.0, 1, 1.0, True, False, 0, math.nan, math.inf, NEG_INF,
                np.float64(0.5), np.int64(-2), "s", 0.1, -0.1, 1e-300]
        for _ in range(200):
            width, height = rng.randint(0, 4), rng.randint(0, 6)
            cells = pool + [rng.uniform(-1.0, 1.0) for _ in range(3)]
            rows = tuple(
                tuple(rng.choice(cells) for _ in range(width)) for _ in range(height)
            )
            table = ResultTable(tuple(f"c{i}" for i in range(width)), rows)
            assert table.to_csv_text() == reference_csv(table)

    def test_rectangular_enforced(self):
        with pytest.raises(ValueError):
            ResultTable(("a", "b"), ((1.0,),))

    def test_unknown_column(self):
        table = ResultTable(("a",), ((1.0,),))
        with pytest.raises(KeyError):
            table.column("b")


class TestFigurePhiSurface:
    def test_corners(self):
        table = figure_phi_surface(11)
        cells = {
            (row[0], row[1]): row[2] for row in table.rows
        }
        assert cells[(0.0, 0.0)] == 0.0
        assert cells[(1.0, 1.0)] == pytest.approx(0.5, abs=1e-12)
        assert cells[(0.0, 1.0)] == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_exact(self):
        table = figure_phi_surface(9)
        cells = {(row[0], row[1]): row[2] for row in table.rows}
        for (x, y), v in cells.items():
            assert cells[(y, x)] == v

    def test_monotone_along_grid_lines(self):
        table = figure_phi_surface(21)
        cells = {(row[0], row[1]): row[2] for row in table.rows}
        xs = sorted({row[0] for row in table.rows})
        for y in xs:
            vals = [cells[(x, y)] for x in xs]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_convex_along_diagonal(self):
        table = figure_phi_surface(41)
        cells = {(row[0], row[1]): row[2] for row in table.rows}
        xs = sorted({row[0] for row in table.rows})
        diag = [cells[(x, x)] for x in xs]
        for i in range(1, len(diag) - 1):
            assert diag[i] <= 0.5 * (diag[i - 1] + diag[i + 1]) + 1e-12

    def test_row_count(self):
        table = figure_phi_surface(7)
        assert len(table.rows) == 49

    @pytest.mark.parametrize("count", [2, 7, 41])
    def test_csv_equals_generic_phi_sweep(self, count):
        spec = SweepSpec(
            "phi",
            axes=(
                AxisSpec("x", 0.0, 1.0, count),
                AxisSpec("y", 0.0, 1.0, count),
            ),
        )
        assert figure_phi_surface(count).to_csv_text() == run_sweep(spec).to_csv_text()

    def test_inverts_once_per_axis_point(self):
        inverse = entropy_module.binary_entropy_inv
        with mock.patch.object(entropy_module, "binary_entropy_inv", wraps=inverse) as spy:
            figure_phi_surface(13)
        assert spy.call_count == 13

    def test_grid_count_minimum(self):
        with pytest.raises(ValueError):
            figure_phi_surface(1)

    def test_over_budget_rejected_before_allocation(self):
        # 10**6 points per axis are within budget, 10**12 cells are not.
        with mock.patch.object(AxisSpec, "points", side_effect=AssertionError):
            with pytest.raises(ValueError, match="budget"):
                figure_phi_surface(10**6)


class TestConvergenceStudy:
    def test_gap_decreasing(self):
        table = convergence_study(0.5, 0.5, [256, 1024, 4096])
        gaps = table.column("gap")
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_gap_scaled_bounded(self):
        table = convergence_study(0.5, 0.5, [256, 1024, 4096])
        scaled = table.column("gap_scaled")
        assert max(scaled) < 3.0

    def test_realized_alpha_approaches_nominal(self):
        table = convergence_study(0.5, 0.5, [256, 4096])
        realized = table.column("realized_alpha")
        assert abs(realized[1] - 0.5) < abs(realized[0] - 0.5) + 1e-9

    def test_degenerate_radius_rejected(self):
        # Tiny alpha at small n rounds the radius to zero.
        with pytest.raises(ValueError):
            convergence_study(0.01, 0.5, [16])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            convergence_study(0.5, 0.5, [])


# One small sweep per registered operation: the grid, the fixed params and
# the CSV text the registry produced before its inputs were read from
# signatures.
_PINNED_SWEEPS = {
    "binary_entropy": ((("p", 0.1, 0.5, 3),), {}),
    "binary_entropy_inv": ((("y", 0.2, 1.0, 3),), {}),
    "phi": ((("x", 0.2, 0.8, 2), ("y", 0.3, 0.9, 2)), {}),
    "c_function": ((("lam", 0.0, 0.6, 3),), {}),
    "w_d": ((("d", 0.12, 0.26, 3),), {"alpha": 0.4, "beta": 0.7}),
    "sphere_exponent": (
        (("rho", 0.2, 0.8, 2),),
        {"alpha": 0.4, "beta": 0.7, "centers": "opposite"},
    ),
    "hct_upper": ((("rho", 0.0, 1.0, 3),), {"alpha": 0.4}),
    "rhct_lower": ((("rho", 0.0, 0.8, 3),), {"alpha": 0.4}),
    "morss_lower": ((("rho", 0.0, 0.8, 3),), {"alpha": 0.4, "beta": 0.7}),
    "avgdist_lower": ((("rho", 0.0, 0.8, 3),), {"alpha": 0.4, "beta": 0.7}),
    "thm1_expansion": ((("rho", 0.85, 0.95, 3),), {"alpha": 0.4}),
    "thm2_expansion": ((("rho", 0.0, 0.2, 3),), {"alpha": 0.4, "beta": 0.7}),
    "avg_distance_bounds": ((("alpha", 0.2, 0.8, 3),), {"beta": 0.5}),
    "remark3_threshold": ((("rho", 0.1, 0.9, 3),), {}),
    "psi_bound": ((("rho", 0.9, 0.95, 2),), {"alpha": 0.5}),
    "van_tilborg_cap": ((("d", 0.0, 1.0, 3),), {"r1": 0.3, "r2": 0.6}),
    "zero_error_upper": ((("rho", 0.0, 0.8, 3),), {"r1": 0.3, "r2": 0.6}),
}

_PINNED_CSV = {
    'binary_entropy': 'p,h\n0.1,0.4689955935892812\n0.30000000000000004,0.8812908992306927\n0.5,1.0\n',
    'binary_entropy_inv': 'y,p\n0.2,0.03112446030478938\n0.6000000000000001,0.14610240341188707\n1.0,0.5\n',
    'phi': 'x,y,phi\n0.2,0.3,0.08104942825894124\n0.2,0.9,0.3274719434280079\n0.8,0.3,0.27036831042204335\n0.8,0.9,0.40543536206291536\n',
    'c_function': 'lam,c\n0.0,2.0\n0.3,2.1305734051606504\n0.6,2.428980131691176\n',
    'w_d': 'd,w\n0.12,0.9271695031532532\n0.19,1.0696541360384693\n0.26,1.0905697292926504\n',
    'sphere_exponent': 'rho,exponent,d_opt\n0.2,1.0777615879647848,0.25305907453993803\n0.8,2.395028776013201,0.26817541716710047\n',
    'hct_upper': 'rho,exponent\n0.0,1.2\n0.5,0.7999999999999999\n1.0,0.6\n',
    'rhct_lower': 'rho,exponent\n0.0,1.2\n0.4,2.0\n0.8,6.000000000000001\n',
    'morss_lower': 'rho,exponent\n0.0,0.9\n0.4,1.4754895892494557\n0.8,4.385618083164129\n',
    'avgdist_lower': 'rho,exponent\n0.0,0.9\n0.4,1.3452704697410143\n0.8,2.465500247679904\n',
    'thm1_expansion': 'rho,exponent\n0.85,0.6497004870885021\n0.8999999999999999,0.6331336580590015\n0.95,0.6165668290295007\n',
    'thm2_expansion': 'rho,exponent\n0.0,0.9\n0.1,0.9754164742247843\n0.2,1.0508329484495686\n',
    'avg_distance_bounds': 'alpha,d_min,d_max\n0.2,0.134303208944884,0.865696791055116\n0.5,0.19584346697098703,0.804156533029013\n0.8,0.2995573280775323,0.7004426719224677\n',
    'remark3_threshold': 'rho,alpha_star\n0.1,0.3159860794972751\n0.5,0.5\n0.9,0.8154484391729243\n',
    # 30-digit mpmath: 0.52832140889029845... and 0.51382017427567322...; the
    # first literal lies 0.11 ulp below its reference, the second 0.59 ulp above.
    'psi_bound': 'rho,exponent\n0.9,0.5283214088902984\n0.95,0.5138201742756733\n',
    'van_tilborg_cap': 'd,cap\n0.0,0.0\n0.5,0.8999999999999999\n1.0,0.0\n',
    'zero_error_upper': 'rho,exponent,d_opt\n0.0,1.1,0.192769917116768\n0.4,0.850213658574951,0.192769917116768\n0.8,0.8624964762500651,0.18181818181818177\n',
}

_PINNED_INPUTS = {
    "binary_entropy": (("p",), {}),
    "binary_entropy_inv": (("y",), {}),
    "phi": (("x", "y"), {}),
    "c_function": (("lam",), {}),
    "w_d": (("alpha", "beta", "d"), {}),
    "sphere_exponent": (("alpha", "beta", "rho", "centers"), {"centers": "same"}),
    "hct_upper": (("alpha", "rho"), {}),
    "rhct_lower": (("alpha", "rho"), {}),
    "morss_lower": (("alpha", "beta", "rho"), {}),
    "avgdist_lower": (("alpha", "beta", "rho"), {}),
    "thm1_expansion": (("alpha", "rho"), {}),
    "thm2_expansion": (("alpha", "beta", "rho"), {}),
    "avg_distance_bounds": (("alpha", "beta"), {}),
    "remark3_threshold": (("rho",), {}),
    "psi_bound": (("alpha", "rho"), {}),
    "van_tilborg_cap": (("d", "r1", "r2"), {}),
    "zero_error_upper": (("r1", "r2", "rho"), {}),
}


class TestRegistryPinned:
    def test_every_operation_pinned(self):
        assert set(_PINNED_SWEEPS) == set(_PINNED_CSV) == set(_PINNED_INPUTS) == set(OPERATIONS)

    @pytest.mark.parametrize("name", sorted(_PINNED_SWEEPS))
    def test_csv_text(self, name):
        axes, params = _PINNED_SWEEPS[name]
        spec = SweepSpec(name, axes=tuple(AxisSpec(*a) for a in axes), params=params)
        assert run_sweep(spec).to_csv_text() == _PINNED_CSV[name]

    @pytest.mark.parametrize("name", sorted(_PINNED_INPUTS))
    def test_inputs_and_defaults(self, name):
        inputs, defaults = _PINNED_INPUTS[name]
        op = OPERATIONS[name]
        assert op.inputs == inputs
        assert dict(op.defaults) == defaults
        assert op.string_inputs == {k for k, v in defaults.items() if isinstance(v, str)}

    def test_function_looked_up_at_call_time(self):
        # A replaced module attribute is what runs, so wrappers around the
        # library's functions see every sweep point.
        calls = []
        original = exponents_module.sphere_exponent

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        spec = SweepSpec(
            "sphere_exponent",
            axes=(AxisSpec("rho", 0.2, 0.8, 3),),
            params={"alpha": 0.4, "beta": 0.7},
        )
        with mock.patch.object(exponents_module, "sphere_exponent", spy):
            run_sweep(spec)
        assert len(calls) == 3


# Values at and past the edges of the sweeps' domains.
_MAX_FLOAT = 1.7976931348623157e308
_HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 0.5,
            1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, 2.5, -1.0, 1e308, -1e308,
            _MAX_FLOAT, True, 10**400)
_VALUE = st.one_of(st.sampled_from(_HOSTILE), st.floats(), st.integers(-3, 3))
# Counts stay small or far over the budget, so no drive allocates much.
_COUNT = st.one_of(st.sampled_from(_HOSTILE), st.integers(-3, 40), st.just(10**12))


class TestHostileInput:
    # Every entry point either returns or raises ValueError, and returns no
    # NaN; overflow, type and attribute errors from inside fail here.

    @pytest.mark.parametrize(
        "call",
        [
            lambda: AxisSpec("x", 0, 1, 2.5),
            lambda: AxisSpec("x", 0, 1, math.nan),
            lambda: AxisSpec(3, 0, 1, 3),
            lambda: AxisSpec("x", 0, 10**400, 3),
            lambda: AxisSpec("x", _MAX_FLOAT, _MAX_FLOAT, 3, "log").points(),
            lambda: figure_phi_surface(2.5),
            lambda: convergence_study(0.5, 0.5, [math.inf]),
            lambda: convergence_study(0.9, 0.5, [2.7]),
            lambda: convergence_study(1.0, 0.5, [1]),
            lambda: convergence_study(0.5, 0.5, [10**400]),
        ],
        ids=["float-count", "nan-count", "int-name", "huge-stop", "log-overflow", "figure-float",
             "convergence-inf", "convergence-float", "convergence-one", "convergence-huge"],
    )
    def test_known_cases(self, call):
        with pytest.raises(ValueError):
            call()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(["x", 3, "not a name"]), _VALUE, _VALUE, _COUNT,
           st.sampled_from(["linear", "log"]))
    def test_axis_points(self, name, start, stop, count, spacing):
        try:
            points = AxisSpec(name, start, stop, count, spacing).points()
        except ValueError:
            return
        assert len(points) == count
        assert (points[0], points[-1]) == (start, stop)
        assert all(math.isfinite(point) for point in points)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_COUNT)
    def test_figure_phi_surface(self, grid_count):
        try:
            table = figure_phi_surface(grid_count)
        except ValueError:
            return
        assert not any(math.isnan(row[2]) for row in table.rows)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_VALUE, _VALUE, st.lists(st.one_of(_COUNT, st.integers(2, 64)), max_size=3))
    def test_convergence_study(self, alpha, rho, sizes):
        try:
            table = convergence_study(alpha, rho, sizes)
        except ValueError:
            return
        assert not any(math.isnan(cell) for row in table.rows for cell in row)
