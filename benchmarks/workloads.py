"""Seeded workloads for the hyperrect benchmark.

A workload is an endless stream of cycles.  Each cycle is a fixed mix of
operations, and each operation is one public call (or short chain of
calls) as a user makes it.  Sizes inside a cycle are stratified: a range
is cut into equal slices and each slice gets one seeded draw that moves
through the slice from cycle to cycle (see ``Sampler``), so runs with
different seeds cost about the same while their inputs differ.  The
benchmark times whole cycles, which keeps the mix of a run the same
however many fit in it.

Every operation carries a check that does not depend on how the library
computes its answer: identities, orderings between independent bounds,
and float paths against exact rational ones.  Checks run outside the
timed window.

Only entry points the roadmap keeps are called, always through the
``hyperrect`` package attribute at call time, so the traced run sees them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import hyperrect as hr

# Slack the tests pin for orderings between bounds.
ORDER_SLACK = 1e-9
# Margin feasibility_scan uses by default (the CLI's --margin default).
SCAN_MARGIN = 1e-9


@dataclass(frozen=True)
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``check(output, outputs)`` returns None when the output is right, or a
    message.  ``outputs`` maps the keys of the cycle's earlier operations
    to their outputs, for checks that compare two operations.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]


@dataclass(frozen=True)
class Workload:
    warmup: Callable[[random.Random, bool], Op]
    cycle: Callable[[Sampler, bool], list[Op]]
    # Cycles the traced run replays; fixed so its counts repeat exactly.
    trace_cycles: int


# Fractional part of the golden ratio: successive multiples spread evenly
# over [0, 1).
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Sampler:
    """Seeded draws for one workload stream.

    ``strata`` cuts a range into k equal slices and returns one draw per
    slice, in slice order.  Each (name, slice) starts at a seeded offset
    and moves by the golden ratio from cycle to cycle, so a run's draws
    cover every slice evenly: runs with different seeds then cost about
    the same, and no float input repeats (a memoizing cache cannot answer
    it).  ``rng`` serves every other random choice.
    """

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self.cycle = 0
        self._offsets: dict[str, list[float]] = {}

    def strata(self, name: str, lo: float, hi: float, k: int) -> list[float]:
        offsets = self._offsets.setdefault(name, [self.rng.random() for _ in range(k)])
        width = (hi - lo) / k
        step = self.cycle * _GOLDEN
        return [lo + (i + (offsets[i] + step) % 1.0) * width for i in range(k)]

    def int_strata(self, name: str, lo: int, hi: int, k: int) -> list[int]:
        """As ``strata``, over the integers lo..hi."""
        return [min(hi, int(v)) for v in self.strata(name, lo, hi + 1, k)]


def _h(p: float) -> float:
    """Binary entropy in bits, written out here so checks stay independent."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _log2_fraction(value: Fraction) -> float:
    return math.log2(value.numerator) - math.log2(value.denominator)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- grid: CLI-style grid commands on the sweep pool --------------------


def _figure_op(key: str, rng: random.Random, count: int) -> Op:
    samples = [(rng.randrange(count), rng.randrange(count)) for _ in range(8)]

    def run():
        table = hr.figure_phi_surface(count)
        return table, table.to_csv_text()

    def check(out, _outputs):
        table, text = out
        rows = table.rows
        if len(rows) != count * count or text.count("\n") != count * count + 1:
            return f"figure {count}: {len(rows)} rows"
        for i, j in samples:
            x, y, value = rows[i * count + j]
            mirrored = rows[j * count + i][2]
            if not _close(value, mirrored, 1e-12):
                return f"phi({x}, {y}) = {value} but phi({y}, {x}) = {mirrored}"
            x_edge, _, on_edge = rows[i * count]
            if not _close(on_edge, hr.binary_entropy_inv(x_edge), 1e-12):
                return f"phi({x_edge}, 0) = {on_edge} != h_inv({x_edge})"
            y_edge, inverse = rows[j][1], rows[j][2]
            if not (0.0 <= inverse <= 0.5 and _close(_h(inverse), y_edge, 1e-9)):
                return f"h(h_inv({y_edge})) = {_h(inverse)}"
        return None

    return Op(key, run, check)


def _sphere_sweep_op(key: str, rng: random.Random, n_alpha: int, n_rho: int) -> Op:
    axes = (
        hr.AxisSpec("alpha", rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95), n_alpha),
        hr.AxisSpec("rho", rng.uniform(0.05, 0.15), rng.uniform(0.85, 0.95), n_rho),
    )
    spec = hr.SweepSpec("sphere_exponent", axes=axes, params={"beta": "alpha"})

    def run():
        table = hr.run_sweep(spec)
        return table, table.to_csv_text()

    def check(out, _outputs):
        table, text = out
        if len(table.rows) != n_alpha * n_rho or text.count("\n") != len(table.rows) + 1:
            return f"sphere sweep: {len(table.rows)} rows"
        for alpha, rho, exponent, _d_opt in table.rows:
            hct = hr.hct_upper_exponent(alpha, rho).value
            lowest = min(
                hr.morss_lower_exponent(alpha, alpha, rho).value,
                hr.avgdist_lower_exponent(alpha, alpha, rho).value,
                hr.rhct_lower_exponent(alpha, rho).value,
            )
            if not hct - ORDER_SLACK <= exponent <= lowest + ORDER_SLACK:
                return f"order broken at alpha={alpha}, rho={rho}: {hct} {exponent} {lowest}"
        return None

    return Op(key, run, check)


def _lattice(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def _excluded(r1: float, r2: float, rho_grid) -> bool:
    """The scan's exclusion rule, restated from its documented definition."""
    pair = hr.RatePair(r1, r2)
    for rho in rho_grid:
        upper = hr.zero_error_upper_exponent(pair, rho).value
        lower = min(
            hr.morss_lower_exponent(r1, r2, rho).value,
            hr.avgdist_lower_exponent(r1, r2, rho).value,
        )
        if upper > lower + SCAN_MARGIN:
            return True
    return False


def _scan_op(key: str, rng: random.Random, n_r1: int, n_rho: int) -> Op:
    # A fresh offset per operation: totals r1 + r2 repeat inside one scan,
    # as on the CLI's lattices, but never across operations, so the
    # library's total-keyed cache cannot answer from an earlier scan.
    r1_grid = _lattice(0.2 + rng.uniform(0.0, 0.02), 0.98 - rng.uniform(0.0, 0.02), n_r1)
    rho_grid = _lattice(0.0125 + rng.uniform(0.0, 0.01), 0.9875 - rng.uniform(0.0, 0.01), n_rho)
    rechecks = rng.sample(range(n_r1), min(2, n_r1))

    def run():
        frontier = hr.feasibility_scan(r1_grid, rho_grid)
        rows = tuple(
            (r1, math.nan if r2 is None else r2)
            for r1, r2 in zip(frontier.r1_values, frontier.r2_max)
        )
        return frontier, hr.ResultTable(("r1", "r2_max"), rows).to_csv_text()

    def check(out, _outputs):
        frontier, text = out
        if text.count("\n") != n_r1 + 1:
            return "scan CSV has the wrong number of lines"
        levels = [-1.0 if v is None else v for v in frontier.r2_max]
        if any(b > a for a, b in zip(levels, levels[1:])):
            return f"frontier increases: {levels}"
        candidates = sorted(r1_grid)
        for index in rechecks:
            r1, best = r1_grid[index], frontier.r2_max[index]
            if best is not None and _excluded(r1, best, rho_grid):
                return f"frontier point ({r1}, {best}) is excluded"
            above = [r2 for r2 in candidates if best is None or r2 > best]
            if above and not _excluded(r1, above[0], rho_grid):
                return f"({r1}, {above[0]}) is not excluded but lies above the frontier"
        return None

    return Op(key, run, check)


def grid_warmup(rng: random.Random, tiny: bool) -> Op:
    return _figure_op("warmup", rng, 5 if tiny else 21)


def grid_cycle(draw: Sampler, tiny: bool) -> list[Op]:
    if tiny:
        figures, axes, r1_counts, rho_counts = (3, 6), (2, 3), (3, 5), (3, 6)
    else:
        figures, axes, r1_counts, rho_counts = (21, 101), (3, 12), (10, 30), (20, 79)
    rng = draw.rng
    ops = [
        _figure_op(f"figure{i}", rng, n)
        for i, n in enumerate(draw.int_strata("figure", *figures, 2))
    ]
    # Axis counts are paired slice by slice, so every cycle spans the same
    # range of grid sizes.
    sweeps = zip(draw.int_strata("sweep.alpha", *axes, 4), draw.int_strata("sweep.rho", *axes, 4))
    ops += [_sphere_sweep_op(f"sweep{i}", rng, a, r) for i, (a, r) in enumerate(sweeps)]
    scans = zip(draw.int_strata("scan.r1", *r1_counts, 4), draw.int_strata("scan.rho", *rho_counts, 4))
    ops += [_scan_op(f"scan{i}", rng, a, r) for i, (a, r) in enumerate(scans)]
    rng.shuffle(ops)
    return ops


# -- hc: scalar hypercontractivity solves --------------------------------


def _psi_op(key: str, alpha: float, rho: float) -> Op:
    def run():
        return hr.psi_bound(alpha, rho)

    def check(bound, _outputs):
        hct = hr.hct_upper_exponent(alpha, rho).value
        sphere = hr.sphere_exponent(alpha, alpha, rho).value
        if not hct - ORDER_SLACK <= bound.value <= sphere + ORDER_SLACK:
            return f"psi({alpha}, {rho}) = {bound.value} outside [{hct}, {sphere}]"
        return None

    return Op(key, run, check)


def _solve_op(key: str, alpha: float, q0: float, t: float) -> Op:
    def run():
        return hr.solve_q(alpha, q0, t)

    def check(solution, _outputs):
        # The support-free hypercontractive index bounds the improved one.
        classical = 1.0 + (q0 - 1.0) * math.exp(-2.0 * t)
        if not 1.0 < solution.q <= min(q0, classical) + ORDER_SLACK:
            return f"q({alpha}, {q0}, {t}) = {solution.q} outside (1, {classical}]"
        if not _close(solution.q, 1.0 + math.exp(solution.a), 1e-12):
            return f"q = {solution.q} but 1 + e^a = {1.0 + math.exp(solution.a)}"
        return None

    return Op(key, run, check)


def _certificate_op(key: str, rng: random.Random, n: int, rate: float, q0: float, t: float) -> Op:
    size = max(2, round(2.0 ** (n * rate)))
    cube_set = hr.CubeSet(n, tuple(rng.sample(range(1 << n), size)))

    def run():
        return hr.verify_hc_inequality(cube_set, q0, t)

    def check(cert, _outputs):
        return None if cert.passed else f"norm inequality fails: slack {cert.slack}"

    return Op(key, run, check)


def hc_warmup(rng: random.Random, tiny: bool) -> Op:
    return _psi_op("warmup", rng.uniform(0.45, 0.55), 0.99 if tiny else 0.95)


def hc_cycle(draw: Sampler, tiny: bool) -> list[Op]:
    rho_range = (0.97, 0.99) if tiny else (0.8, 0.99)
    t_range = (0.005, 0.01) if tiny else (0.005, 0.1)
    dims = (6, 7) if tiny else (8, 12)
    k = 2 if tiny else 4
    rng = draw.rng
    ops = []
    low, high = rho_range
    for j, (rho_lo, rho_hi) in enumerate(((low, (low + high) / 2), ((low + high) / 2, high))):
        alphas = draw.strata(f"psi.alpha{j}", 0.2, 0.9, k)
        rhos = draw.strata(f"psi.rho{j}", rho_lo, rho_hi, k)
        ops += [_psi_op(f"psi{j}.{i}", alpha, rho) for i, (alpha, rho) in enumerate(zip(alphas, rhos))]
    solves = zip(
        draw.strata("solve.alpha", 0.2, 0.9, k),
        draw.strata("solve.q0", 1.5, 4.0, k),
        draw.strata("solve.t", *t_range, k)[::-1],
    )
    ops += [_solve_op(f"solve{i}", *args) for i, args in enumerate(solves)]
    certs = zip(
        draw.int_strata("cert.n", *dims, k),
        draw.strata("cert.rate", 0.2, 0.9, k),
        draw.strata("cert.q0", 1.5, 4.0, k),
        draw.strata("cert.t", *t_range, k)[::-1],
    )
    ops += [_certificate_op(f"cert{i}", rng, *args) for i, args in enumerate(certs)]
    rng.shuffle(ops)
    return ops


# -- exact: enumeration oracles in float and rational arithmetic ---------


def _random_set(rng: random.Random, n: int, size: int):
    return hr.CubeSet(n, tuple(rng.sample(range(1 << n), min(size, 1 << (n - 1)))))


def _pair_op(key: str, a, b, rho: Fraction) -> Op:
    def run():
        profile = hr.pair_distance_profile(a, b)
        return profile, hr.rectangle_prob(profile, float(rho)), hr.rectangle_prob_fraction(profile, rho)

    def check(out, _outputs):
        profile, log2_p, exact = out
        if sum(profile.counts) != len(a) * len(b):
            return "profile counts do not sum to |A||B|"
        if not _close(log2_p, _log2_fraction(exact), 1e-9):
            return f"float log2 P = {log2_p}, rational gives {_log2_fraction(exact)}"
        return None

    return Op(key, run, check)


def _noise_op(key: str, pair_key: str, a, b, rho: Fraction) -> Op:
    def run():
        smoothed = hr.noise_operator(hr.CubeFunction.indicator(a), float(rho))
        return hr.inner_product(hr.CubeFunction.indicator(b), smoothed)

    def check(value, outputs):
        if pair_key not in outputs:
            return f"no probability from {pair_key} to compare with"
        exact = float(outputs[pair_key][2])
        if not _close(value, exact, 1e-9 * exact):
            return f"<1_B, T 1_A> = {value} but P = {exact}"
        return None

    return Op(key, run, check)


def _sphere_profile_op(key: str, n: int, i: int, j: int, rho: Fraction) -> Op:
    def run():
        profile = hr.sphere_distance_profile(n, i, j)
        return profile, hr.rectangle_prob(profile, float(rho)), hr.rectangle_prob_fraction(profile, rho)

    def check(out, _outputs):
        profile, log2_p, exact = out
        if sum(profile.counts) != math.comb(n, i) * math.comb(n, j):
            return f"sphere profile ({n}, {i}, {j}) has the wrong total"
        if not _close(log2_p, _log2_fraction(exact), 1e-9):
            return f"float log2 P = {log2_p}, rational gives {_log2_fraction(exact)}"
        return None

    return Op(key, run, check)


def _convergence_op(key: str, alpha: float, rho: Fraction, sizes: list[int]) -> Op:
    def run():
        return hr.convergence_study(alpha, float(rho), sizes)

    def check(table, _outputs):
        for n, radius, realized, oracle, asymptotic, gap, _scaled in table.rows:
            if not _close(realized, math.log2(math.comb(n, radius)) / n, 1e-9):
                return f"realized rate at n={n} is {realized}"
            profile = hr.sphere_distance_profile(n, radius, radius)
            exact = -_log2_fraction(hr.rectangle_prob_fraction(profile, rho)) / n
            if not _close(oracle, exact, 1e-9):
                return f"oracle exponent at n={n} is {oracle}, rational gives {exact}"
            if not _close(gap, oracle - asymptotic, 1e-12):
                return f"gap at n={n} is {gap}"
        return None

    return Op(key, run, check)


def exact_warmup(rng: random.Random, tiny: bool) -> Op:
    n = 6 if tiny else 12
    a, b = _random_set(rng, n, 200), _random_set(rng, n, 200)
    return _pair_op("warmup", a, b, Fraction(rng.randint(1, 15), 16))


def exact_cycle(draw: Sampler, tiny: bool) -> list[Op]:
    if tiny:
        dims, sizes, sphere_dims, top_n = (6, 8), (4, 20), (8, 16), 24
    else:
        dims, sizes, sphere_dims, top_n = (10, 16), (100, 1500), (8, 64), 64
    rng = draw.rng
    ops = []
    # Both sets of a pair share one size draw, so the largest pair, and
    # with it the run's peak memory, is the same for every seed.
    pairs = zip(draw.int_strata("pair.n", *dims, 4), draw.int_strata("pair.size", *sizes, 4))
    for i, (n, size) in enumerate(pairs):
        a, b = _random_set(rng, n, size), _random_set(rng, n, size)
        rho = Fraction(rng.randint(1, 15), 16)
        ops.append(_pair_op(f"pair{i}", a, b, rho))
        ops.append(_noise_op(f"noise{i}", f"pair{i}", a, b, rho))
    for i, n in enumerate(draw.int_strata("sphere.n", *sphere_dims, 4)):
        low = rng.randint(1, n // 2)
        rho = Fraction(rng.randint(1, 15), 16)
        ops.append(_sphere_profile_op(f"sphere{i}", n, low, rng.randint(low, n - 1), rho))
    # Rates from 0.3 up keep the rounded sphere radius positive at n = 16.
    for i, alpha in enumerate(draw.strata("convergence.alpha", 0.3, 0.8, 2)):
        sizes_n = sorted(rng.sample(range(16, top_n + 1), 4))
        rho = Fraction(rng.randint(1, 15), 16)
        ops.append(_convergence_op(f"convergence{i}", alpha, rho, sizes_n))
    return ops


WORKLOADS = {
    "grid": Workload(grid_warmup, grid_cycle, trace_cycles=2),
    "hc": Workload(hc_warmup, hc_cycle, trace_cycles=2),
    "exact": Workload(exact_warmup, exact_cycle, trace_cycles=60),
}
