"""Batch evaluation over parameter grids with deterministic CSV output."""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping

from . import adder_mac, entropy, exponents, hypercontractivity
from .entropy import _check_range, _is_int
from .oracle import _MAX_SPHERE_DIM, rectangle_prob, sphere_distance_profile

__all__ = [
    "MAX_GRID_POINTS",
    "SweepError",
    "AxisSpec",
    "SweepSpec",
    "ResultTable",
    "OPERATIONS",
    "run_sweep",
    "figure_phi_surface",
    "convergence_study",
]


# The most points an axis, sweep, figure or scan may hold; each checks its
# count before it allocates anything.
MAX_GRID_POINTS = 10**7


def _check_grid_budget(what: str, points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{what} has {points} points, over the budget of {MAX_GRID_POINTS}")


def _lattice(start: float, stop: float, count: int) -> list[float]:
    """The package's one grid rule: start + k * step for k < count, with
    step = (stop - start) / (count - 1); the last point is not pinned to
    stop.  A step that is not finite raises ValueError."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    if not math.isfinite(step):
        raise ValueError(f"grid from {start!r} to {stop!r} has a step that is not finite")
    return [start + k * step for k in range(count)]


class SweepError(ValueError):
    """A core operation rejected its input at an identified grid point."""


@dataclass(frozen=True)
class AxisSpec:
    """One swept variable: `count` points from `start` to `stop` inclusive."""

    name: str
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name.isidentifier()):
            raise ValueError(f"axis name must be an identifier, got {self.name!r}")
        if not _is_int(self.count) or self.count < 2:
            raise ValueError(f"axis count must be an int >= 2, got {self.count!r}")
        _check_grid_budget(f"axis {self.name!r}", self.count)
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        # Log spacing needs positive endpoints; either way they are finite floats.
        log = self.spacing == "log"
        top = sys.float_info.max
        _check_range("start", self.start, 0.0 if log else -top, top, lo_open=log)
        _check_range("stop", self.stop, 0.0 if log else -top, top, lo_open=log)

    def points(self) -> tuple[float, ...]:
        """The lattice with both ends pinned to start and stop; a log axis
        is 10 ** the lattice of the endpoints' log10."""
        start, stop = float(self.start), float(self.stop)
        if self.spacing == "linear":
            return (*_lattice(start, stop, self.count)[:-1], stop)
        inner = _lattice(math.log10(start), math.log10(stop), self.count)[1:-1]
        try:
            return (start, *(10.0**e for e in inner), stop)
        except OverflowError:
            raise ValueError(f"log axis {self.name!r} overflows next to {stop!r}") from None


@dataclass(frozen=True)
class SweepSpec:
    """What to evaluate: an operation, axes to grid over, fixed params.

    Every input of the operation must be bound exactly once: by an axis
    of the same name, by a numeric param, or by a string param naming an
    axis (alias, e.g. params={"beta": "alpha"} sweeps the diagonal).
    With no axes the sweep is a single point, equal to a direct call.
    """

    operation: str
    axes: tuple[AxisSpec, ...] = ()
    params: Mapping[str, float | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "params", dict(self.params))
        _check_grid_budget("sweep", math.prod(axis.count for axis in self.axes))
        if self.operation not in OPERATIONS:
            known = ", ".join(sorted(OPERATIONS))
            raise ValueError(f"unknown operation {self.operation!r} (known: {known})")
        op = OPERATIONS[self.operation]
        axis_names = [axis.name for axis in self.axes]
        if len(set(axis_names)) != len(axis_names):
            raise ValueError(f"duplicate axis names in {axis_names}")
        for name in axis_names:
            if name not in op.inputs:
                raise ValueError(
                    f"axis {name!r} is not an input of {self.operation!r}"
                )
        for name, value in self.params.items():
            if name not in op.inputs:
                raise ValueError(
                    f"param {name!r} is not an input of {self.operation!r}"
                )
            if name in axis_names:
                raise ValueError(f"{name!r} bound both as axis and param")
            if isinstance(value, str):
                if name in op.string_inputs or value in axis_names:
                    continue
                raise ValueError(
                    f"param {name!r}={value!r} is neither numeric nor an axis alias"
                )
        bound = set(axis_names) | set(self.params)
        missing = [
            name
            for name in op.inputs
            if name not in bound and name not in op.defaults
        ]
        if missing:
            raise ValueError(
                f"unbound inputs for {self.operation!r}: {', '.join(missing)}"
            )


@dataclass(frozen=True)
class ResultTable:
    """Rectangular named-column table of numbers (plus string cells)."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row arity {len(row)} does not match header arity {width}"
                )

    def column(self, name: str) -> tuple:
        if name not in self.columns:
            raise KeyError(f"no column named {name!r}; have {self.columns}")
        index = self.columns.index(name)
        return tuple(row[index] for row in self.rows)

    def to_csv_text(self) -> str:
        """The header and one newline-ended line per row: str and int cells
        (bool too) as str, others as repr(float(cell)).  A column formats a
        repeated nonzero float once; zeros and cells not exactly float bypass
        that memo, as 0.0 and -0.0, or 1, 1.0 and True, share a dict key."""
        columns = [_format_column(cells) for cells in zip(*self.rows)]
        body = map(",".join, zip(*columns)) if columns else [""] * len(self.rows)
        return "\n".join([",".join(self.columns), *body]) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as handle:
            handle.write(self.to_csv_text())


def _format_cell(cell) -> str:
    # repr(float) already spells inf, -inf and nan.
    if isinstance(cell, (str, int)):
        return str(cell)
    return repr(float(cell))


def _format_column(cells) -> list[str]:
    texts: dict[float, str] = {}
    return [
        (texts.get(cell) or texts.setdefault(cell, repr(cell)))
        if type(cell) is float and cell else _format_cell(cell)
        for cell in cells
    ]


def _van_tilborg_cap(d: float, r1: float, r2: float) -> float:
    return adder_mac.van_tilborg_wd_cap(d, adder_mac.RatePair(r1, r2))


def _zero_error_upper(r1: float, r2: float, rho: float) -> exponents.ExponentBound:
    return adder_mac.zero_error_upper_exponent(adder_mac.RatePair(r1, r2), rho)


class SweepOperation:
    """Registry entry: a library function and the columns it fills.

    The inputs, their defaults and the string-valued inputs (those whose
    default is a str) are read from the function's signature.  The
    function itself is looked up on its module at every call, so whatever
    that module attribute holds at the time (a wrapper, say) is what runs.
    """

    def __init__(self, fn: Callable, *outputs: str):
        self.module = sys.modules[fn.__module__]
        self.name = fn.__name__
        self.outputs = outputs
        params = inspect.signature(fn).parameters.values()
        self.inputs = tuple(p.name for p in params)
        self.defaults = {p.name: p.default for p in params if p.default is not p.empty}
        self.string_inputs = frozenset(
            name for name, value in self.defaults.items() if isinstance(value, str)
        )

    def __call__(self, **kwargs) -> tuple:
        result = getattr(self.module, self.name)(**kwargs)
        if isinstance(result, exponents.ExponentBound):
            return (result.value, result.d_opt)[: len(self.outputs)]
        return result if isinstance(result, tuple) else (result,)


OPERATIONS: dict[str, SweepOperation] = {
    "binary_entropy": SweepOperation(entropy.binary_entropy, "h"),
    "binary_entropy_inv": SweepOperation(entropy.binary_entropy_inv, "p"),
    "phi": SweepOperation(entropy.phi, "phi"),
    "c_function": SweepOperation(hypercontractivity.c_function, "c"),
    "w_d": SweepOperation(exponents.w_d, "w"),
    "sphere_exponent": SweepOperation(exponents.sphere_exponent, "exponent", "d_opt"),
    "hct_upper": SweepOperation(exponents.hct_upper_exponent, "exponent"),
    "rhct_lower": SweepOperation(exponents.rhct_lower_exponent, "exponent"),
    "morss_lower": SweepOperation(exponents.morss_lower_exponent, "exponent"),
    "avgdist_lower": SweepOperation(exponents.avgdist_lower_exponent, "exponent"),
    "thm1_expansion": SweepOperation(exponents.thm1_expansion, "exponent"),
    "thm2_expansion": SweepOperation(exponents.thm2_expansion, "exponent"),
    "avg_distance_bounds": SweepOperation(exponents.avg_distance_bounds, "d_min", "d_max"),
    "remark3_threshold": SweepOperation(exponents.remark3_threshold, "alpha_star"),
    "psi_bound": SweepOperation(hypercontractivity.psi_bound, "exponent"),
    "van_tilborg_cap": SweepOperation(_van_tilborg_cap, "cap"),
    "zero_error_upper": SweepOperation(_zero_error_upper, "exponent", "d_opt"),
}


def run_sweep(spec: SweepSpec) -> ResultTable:
    """Evaluate the operation over the axis product, one row per point.

    Rows come in lexicographic order over the axes (first axis slowest).
    Identical specs produce byte-identical CSV.  A ValueError from the
    operation aborts the sweep as a SweepError naming the grid point; any
    other exception is a bug and propagates as it is.
    """
    op = OPERATIONS[spec.operation]
    axis_names = [axis.name for axis in spec.axes]
    axis_points = [axis.points() for axis in spec.axes]

    fixed: dict[str, float | str] = dict(op.defaults)
    aliases: dict[str, str] = {}
    for name, value in spec.params.items():
        if isinstance(value, str) and value in axis_names and name not in op.string_inputs:
            aliases[name] = value
        else:
            fixed[name] = value

    def evaluate(combo: tuple[float, ...]) -> tuple:
        point = dict(zip(axis_names, combo))
        kwargs = dict(fixed)
        kwargs.update(point)
        for name, source in aliases.items():
            kwargs[name] = point[source]
        try:
            outputs = op(**kwargs)
        except ValueError as exc:
            where = ", ".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
            raise SweepError(
                f"operation {spec.operation!r} failed at ({where}): {exc}"
            ) from exc
        return combo + tuple(outputs)

    combos = product(*axis_points) if axis_points else [()]
    rows = [evaluate(combo) for combo in combos]
    return ResultTable(tuple(axis_names) + op.outputs, tuple(rows))


def figure_phi_surface(grid_count: int) -> ResultTable:
    """The phi surface on the uniform [0,1]^2 grid (columns x, y, phi).

    phi(x, y) = h_inv(x) * h_inv(y) under `star` is separable, so each axis
    point's factor 1 - 2 h_inv(p) is found once and each cell is `star`'s
    own 0.5 (1 - fx fy): equal to `entropy.phi` bit for bit, in the same
    x-major row order as the generic sweep.
    """
    _check_grid_budget("figure", grid_count * grid_count)
    points = AxisSpec("x", 0.0, 1.0, grid_count).points()
    factors = [1.0 - 2.0 * entropy.binary_entropy_inv(p) for p in points]
    rows = [
        (x, y, 0.5 * (1.0 - fx * fy))
        for x, fx in zip(points, factors)
        for y, fy in zip(points, factors)
    ]
    return ResultTable(("x", "y", "phi"), rows)


def _nearest_int(x: float) -> int:
    return int(math.floor(x + 0.5))


def convergence_study(alpha: float, rho: float, n_list) -> ResultTable:
    """Finite-n sphere exponents against the asymptotic value.

    For each n, takes the concentric sphere pair of radius round(n h_inv(alpha)),
    computes the exact exponent -(1/n) log2 P through the oracle, and
    reports the gap to `sphere_exponent` raw and scaled by n / log2(n).
    The realized rate log2 C(n, radius) / n accompanies the nominal alpha
    since the radius is rounded.
    """
    sizes = list(n_list)
    if not sizes:
        raise ValueError("n list must be nonempty")
    for n in sizes:
        if not _is_int(n) or not 2 <= n <= _MAX_SPHERE_DIM:
            raise ValueError(f"each n must be an int in [2, 2^14], got {n!r}")
    radius_fraction = entropy.binary_entropy_inv(alpha)
    asymptotic = exponents.sphere_exponent(alpha, alpha, rho, "same").value
    rows = []
    for n in sizes:
        radius = _nearest_int(n * radius_fraction)
        if radius < 1:
            raise ValueError(
                f"radius rounds to 0 at n={n} for alpha={alpha!r} (degenerate sphere)"
            )
        profile = sphere_distance_profile(n, radius, radius)
        oracle_exponent = -rectangle_prob(profile, rho) / n
        realized = entropy.log_binomial(n, radius) / n
        gap = oracle_exponent - asymptotic
        rows.append(
            (
                n,
                radius,
                realized,
                oracle_exponent,
                asymptotic,
                gap,
                gap * n / math.log2(n),
            )
        )
    return ResultTable(
        (
            "n",
            "radius",
            "realized_alpha",
            "oracle_exponent",
            "asymptotic_exponent",
            "gap",
            "gap_scaled",
        ),
        tuple(rows),
    )
