"""Command-line front door.

Every subcommand is a thin wrapper over one library call; no numerical
logic lives here.  Exit codes: 0 success, 1 property failure (verify),
2 usage or domain error: a ValueError, the package's one bad-input
error, or an OSError.  Any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .adder_mac import feasibility_scan
from .exponents import compare_bounds, sphere_exponent
from .hypercontractivity import psi_bound, solve_q
from .oracle import (
    _log2_fraction,
    pair_distance_profile,
    read_set_file,
    rectangle_prob,
    rectangle_prob_fraction,
)
from .sweeps import (
    AxisSpec, ResultTable, SweepSpec, _check_grid_budget, _lattice, figure_phi_surface, run_sweep,
)
from .verify import SUITES, run_suites

_USAGE_ERROR = 2
_PROPERTY_FAILURE = 1


def _print_pairs(pairs, as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(pairs)))
    else:
        for key, value in pairs:
            print(f"{key} = {value}")


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected start:stop:count, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _grid(text: str) -> list[float]:
    start, stop, count = _parse_range(text)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_grid_budget("grid", count)
    return _lattice(start, stop, count)


def _fraction(text: str) -> Fraction:
    """A correlation such as 0.5 or 1/3; a zero denominator is bad input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _emit(table: ResultTable, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(table.to_csv_text())
    else:
        table.write_csv(out_path)


def _cmd_exponent(args) -> int:
    beta = args.alpha if args.beta is None else args.beta
    bound = sphere_exponent(args.alpha, beta, args.rho, args.centers)
    _print_pairs(
        [
            ("exponent", bound.value),
            ("d_opt", bound.d_opt),
            ("kind", bound.kind),
            ("direction", bound.direction),
        ],
        args.json,
    )
    return 0


def _cmd_bound(args) -> int:
    beta = args.alpha if args.beta is None else args.beta
    report = compare_bounds(args.alpha, beta, args.rho)
    pairs = [(name, bound.value) for name, bound in sorted(report.bounds.items())]
    pairs.append(("tightest", report.tightest))
    if report.threshold is not None:
        pairs.append(("threshold", report.threshold))
    if report.predicts_avgdist is not None:
        pairs.append(("predicts_avgdist", report.predicts_avgdist))
    _print_pairs(pairs, args.json)
    return 0


def _cmd_oracle(args) -> int:
    rho = _fraction(args.rho)
    set_a = read_set_file(args.set_a)
    set_b = read_set_file(args.set_b)
    for label, s in (("A", set_a), ("B", set_b)):
        if s.n != args.n:
            raise ValueError(
                f"set {label} has dimension {s.n}, --n says {args.n}"
            )
    profile = pair_distance_profile(set_a, set_b)
    pairs = []
    if args.exact:
        exact = rectangle_prob_fraction(profile, rho)
        log2_p = _log2_fraction(exact)
        pairs.append(("p_exact", f"{exact.numerator}/{exact.denominator}"))
    else:
        log2_p = rectangle_prob(profile, float(rho))
    pairs.insert(0, ("log2_p", log2_p))
    pairs.append(("exponent", -log2_p / args.n))
    _print_pairs(pairs, args.json)
    return 0


def _cmd_hc(args) -> int:
    if (args.t is None) == (args.rho is None):
        raise ValueError("exactly one of --t and --rho is required")
    if args.t is not None:
        solution = solve_q(args.alpha, args.q0, args.t)
        _print_pairs(
            [
                ("a", solution.a),
                ("b", solution.b),
                ("q", solution.q),
                ("q0", solution.q0),
                ("residual", solution.residual),
                ("steps", solution.steps),
                ("evaluations", solution.evaluations),
            ],
            args.json,
        )
    else:
        bound = psi_bound(args.alpha, args.rho)
        _print_pairs(
            [("psi", bound.value), ("kind", bound.kind), ("direction", bound.direction)],
            args.json,
        )
    return 0


def _parse_axis(text: str) -> AxisSpec:
    name, _, rest = text.partition("=")
    grid = rest.removesuffix(":log")
    spacing = "linear" if grid == rest else "log"
    return AxisSpec(name, *_parse_range(grid), spacing)


def _parse_param(text: str) -> tuple[str, float | str]:
    name, _, raw = text.partition("=")
    if not raw:
        raise ValueError(f"expected name=value, got {text!r}")
    try:
        return name, float(raw)
    except ValueError:
        return name, raw


def _cmd_sweep(args) -> int:
    spec = SweepSpec(
        operation=args.op,
        axes=tuple(_parse_axis(text) for text in args.axis or ()),
        params=dict(_parse_param(text) for text in args.param or ()),
    )
    _emit(run_sweep(spec), args.out)
    return 0


def _cmd_figure(args) -> int:
    _emit(figure_phi_surface(args.grid_count), args.out)
    return 0


def _cmd_scan(args) -> int:
    frontier = feasibility_scan(
        _grid(args.r1),
        _grid(args.rho),
        None if args.r2 is None else _grid(args.r2),
        margin=args.margin,
    )
    if args.json:
        print(json.dumps({
            "r1": list(frontier.r1_values),
            "r2_max": list(frontier.r2_max),
            "margin": frontier.margin,
        }))
        return 0
    rows = [
        (r1, math.nan if r2 is None else r2)
        for r1, r2 in zip(frontier.r1_values, frontier.r2_max)
    ]
    _emit(ResultTable(("r1", "r2_max"), tuple(rows)), args.out)
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    if args.json:
        payload = {
            "seed": args.seed,
            "passed": all(r.passed for r in results),
            "results": [
                {"suite": r.suite, "name": r.name, "passed": r.passed,
                 "detail": r.detail, "elapsed_s": r.elapsed}
                for r in results
            ],
        }
        print(json.dumps(payload))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            detail = f": {r.detail}" if r.detail else ""
            print(f"{status} {r.suite}.{r.name}{detail}")
    return 0 if all(r.passed for r in results) else _PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperrect",
        description=(
            "Exponents and bounds for rectangle probabilities of "
            "correlated binary strings"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="sphere-pair rectangle exponent")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--centers", choices=("same", "opposite"), default="same")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_exponent)

    p = sub.add_parser("bound", help="compare lower-direction bounds")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("oracle", help="exact rectangle probability of set files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set-a", required=True)
    p.add_argument("--set-b", required=True)
    p.add_argument("--rho", required=True, help="float, or a fraction like 1/3 with --exact")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("hc", help="hypercontractive norm index / psi bound")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q0", type=float, default=2.0)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_hc)

    p = sub.add_parser("sweep", help="grid-evaluate one operation to CSV")
    p.add_argument("--op", required=True)
    p.add_argument("--axis", action="append", metavar="NAME=START:STOP:COUNT[:log]")
    p.add_argument("--param", action="append", metavar="NAME=VALUE")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("figure", help="phi surface grid to CSV")
    p.add_argument("--grid-count", type=int, default=201)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("scan", help="adder-MAC feasibility frontier")
    p.add_argument("--r1", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--rho", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--r2", default=None, metavar="START:STOP:COUNT")
    p.add_argument("--margin", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--suite", choices=("all", *sorted(SUITES)), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
