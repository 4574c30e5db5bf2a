"""End-to-end tests of the command-line interface.

Each subcommand runs in-process through main(argv) with captured output;
values are cross-checked against direct library calls, since the CLI is
a thin wrapper that must introduce no numerics of its own.
"""

import hashlib
import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperrect import (
    CubeSet,
    compare_bounds,
    feasibility_scan,
    psi_bound,
    solve_q,
    sphere_exponent,
    thm1_expansion,
    write_set_file,
)
import hyperrect.cli as cli_module
import hyperrect.oracle as oracle_module
from hyperrect.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(text):
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


class TestExponentCommand:
    def test_independence(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exponent", "--alpha", "0.5", "--beta", "0.5",
            "--rho", "0", "--centers", "same",
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert float(pairs["exponent"]) == pytest.approx(1.0, abs=1e-9)

    def test_full_rates(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exponent", "--alpha", "1", "--beta", "1",
            "--rho", "0.5", "--centers", "same",
        )
        assert code == 0
        assert float(parse_pairs(out)["exponent"]) == pytest.approx(0.0, abs=1e-9)

    def test_near_one_matches_expansion(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exponent", "--alpha", "0.5", "--beta", "0.5", "--rho", "0.9",
        )
        assert code == 0
        got = float(parse_pairs(out)["exponent"])
        assert abs(got - thm1_expansion(0.5, 0.9).value) < 0.02

    def test_beta_defaults_to_alpha(self, capsys):
        code, out, _ = run_cli(capsys, "exponent", "--alpha", "0.4", "--rho", "0.3")
        assert code == 0
        expected = sphere_exponent(0.4, 0.4, 0.3, centers="same").value
        assert float(parse_pairs(out)["exponent"]) == expected

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exponent", "--alpha", "0.5", "--rho", "0.3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        direct = sphere_exponent(0.5, 0.5, 0.3, centers="same")
        assert payload["exponent"] == direct.value
        assert payload["d_opt"] == direct.d_opt
        assert payload["kind"] == "sphere_same"

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "exponent", "--alpha", "0.5", "--rho", "1.0")
        assert code == 2
        assert "error:" in err


class TestBoundCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--alpha", "0.3", "--rho", "0.5")
        assert code == 0
        report = compare_bounds(0.3, 0.3, 0.5)
        pairs = parse_pairs(out)
        assert pairs["tightest"] == report.tightest
        assert float(pairs["threshold"]) == report.threshold
        for name, bound in report.bounds.items():
            assert float(pairs[name]) == bound.value

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--alpha", "0.3", "--rho", "0.5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["predicts_avgdist"] is True
        assert payload["tightest"] == "avgdist_lower"


class TestOracleCommand:
    def test_singleton_pair(self, capsys, tmp_path):
        a = tmp_path / "a.set"
        a.write_text("n=2\n00\n")
        code, out, _ = run_cli(
            capsys,
            "oracle", "--n", "2", "--set-a", str(a), "--set-b", str(a),
            "--rho", "0.5",
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert float(pairs["log2_p"]) == pytest.approx(
            math.log2(0.140625), abs=1e-12
        )

    def test_sphere_exact_mode(self, capsys, tmp_path):
        sphere = CubeSet.sphere(4, 1)
        path = tmp_path / "s.set"
        write_set_file(path, sphere)
        code, out, _ = run_cli(
            capsys,
            "oracle", "--n", "4", "--set-a", str(path), "--set-b", str(path),
            "--rho", "1/2", "--exact",
        )
        assert code == 0
        pairs = parse_pairs(out)
        assert pairs["p_exact"] == "27/256"
        assert float(pairs["log2_p"]) == pytest.approx(math.log2(27 / 256))

    def test_exact_mode_sums_once(self, capsys, tmp_path, monkeypatch):
        # The rational sum is computed once; log2_p is taken from it.
        calls = []
        original = oracle_module.rectangle_prob_fraction

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle_module, "rectangle_prob_fraction", spy)
        monkeypatch.setattr(cli_module, "rectangle_prob_fraction", spy)
        path = tmp_path / "s.set"
        write_set_file(path, CubeSet.sphere(4, 1))
        code, out, _ = run_cli(
            capsys,
            "oracle", "--n", "4", "--set-a", str(path), "--set-b", str(path),
            "--rho", "1/3", "--exact",
        )
        assert code == 0
        assert len(calls) == 1
        assert out == (
            "log2_p = -3.53249508082702\n"
            "p_exact = 7/81\n"
            "exponent = 0.883123770206755\n"
        )

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_unrealizable_profile_exit_2(self, capsys, tmp_path, monkeypatch, exact):
        # Set files always give realizable profiles, so substitute one
        # with P = 9/4 at rho = 1/2.
        bogus = oracle_module.DistanceProfile(2, (16, 0, 0), 4, 4)
        monkeypatch.setattr(cli_module, "pair_distance_profile", lambda a, b: bogus)
        a = tmp_path / "a.set"
        a.write_text("n=2\n00\n")
        code, out, err = run_cli(
            capsys,
            "oracle", "--n", "2", "--set-a", str(a), "--set-b", str(a),
            "--rho", "1/2", *exact,
        )
        assert code == 2
        assert out == ""
        assert "no pair of sets" in err

    def test_exponent_output(self, capsys, tmp_path):
        a = tmp_path / "a.set"
        a.write_text("n=4\n0000\n")
        code, out, _ = run_cli(
            capsys,
            "oracle", "--n", "4", "--set-a", str(a), "--set-b", str(a),
            "--rho", "0",
        )
        assert code == 0
        pairs = parse_pairs(out)
        # exponent = -log2(P)/n; P = 2^-8 at rho=0 for singleton pair.
        assert float(pairs["exponent"]) == pytest.approx(2.0, abs=1e-12)

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.set"
        bad.write_text("n=4\n0000\n010\n")
        code, _, err = run_cli(
            capsys,
            "oracle", "--n", "4", "--set-a", str(bad), "--set-b", str(bad),
            "--rho", "0.5",
        )
        assert code == 2
        assert "line 3" in err

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        a = tmp_path / "a.set"
        a.write_text("n=3\n000\n")
        code, _, err = run_cli(
            capsys,
            "oracle", "--n", "4", "--set-a", str(a), "--set-b", str(a),
            "--rho", "0.5",
        )
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "oracle", "--n", "2", "--set-a", str(tmp_path / "nope.set"),
            "--set-b", str(tmp_path / "nope.set"), "--rho", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_zero_denominator_exit_2(self, capsys, tmp_path, exact):
        a = tmp_path / "a.set"
        a.write_text("n=2\n00\n")
        code, out, err = run_cli(
            capsys,
            "oracle", "--n", "2", "--set-a", str(a), "--set-b", str(a),
            "--rho", "1/0", *exact,
        )
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    def test_json(self, capsys, tmp_path):
        a = tmp_path / "a.set"
        a.write_text("n=2\n00\n11\n")
        code, out, _ = run_cli(
            capsys,
            "oracle", "--n", "2", "--set-a", str(a), "--set-b", str(a),
            "--rho", "1/4", "--exact", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_exact"] == "17/64"
        assert payload["log2_p"] == pytest.approx(math.log2(17 / 64))


class TestHcCommand:
    def test_solve_at_t(self, capsys):
        code, out, _ = run_cli(
            capsys, "hc", "--alpha", "0.5", "--t", "0.05", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        sol = solve_q(0.5, 2.0, 0.05)
        assert payload["q"] == sol.q
        assert payload["residual"] <= 1e-9
        assert payload["evaluations"] == sol.evaluations
        assert payload["steps"] == sol.steps
        assert "bracket_sign_changes" not in payload

    def test_psi_at_rho(self, capsys):
        code, out, _ = run_cli(
            capsys, "hc", "--alpha", "0.5", "--rho", "0.95", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["psi"] == psi_bound(0.5, 0.95).value
        assert payload["direction"] == "upper_on_P"

    def test_t_and_rho_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "hc", "--alpha", "0.5", "--t", "0.05", "--rho", "0.9"
        )
        assert code == 2

    def test_neither_t_nor_rho(self, capsys):
        code, _, err = run_cli(capsys, "hc", "--alpha", "0.5")
        assert code == 2

    def test_out_of_range_exit_2(self, capsys):
        # Past t = 53 ln2 / 2 (q0 = 2) the norm index rounds to 1.
        code, _, err = run_cli(capsys, "hc", "--alpha", "0.5", "--t", "20")
        assert code == 2
        assert "rounds to 1" in err

    def test_long_time_exit_0(self, capsys):
        # The old fixed scan refused every t > 2.5.
        code, out, _ = run_cli(capsys, "hc", "--alpha", "0.5", "--t", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["q"] == solve_q(0.5, 2.0, 5.0).q

    def test_huge_t_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "hc", "--alpha", "0.5", "--q0", "2", "--t", "1e307"
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv", [("--q0", "inf", "--t", "0.1"), ("--t", "nan"), ("--q0", "nan", "--t", "0.1")]
    )
    def test_non_finite_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, "hc", "--alpha", "0.5", *argv)
        assert code == 2
        assert "error:" in err


    def test_split_retired(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["hc", "--alpha", "0.5", "--rho", "0.95", "--split", "0.3"])
        capsys.readouterr()
        assert info.value.code == 2


class TestSweepCommand:
    def test_sweep_to_csv(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--op", "thm1_expansion",
            "--axis", "alpha=0.3:0.7:3",
            "--param", "rho=0.95",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "alpha,exponent"
        assert len(lines) == 4

    def test_log_axis(self, capsys, tmp_path):
        out_path = tmp_path / "log.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--op", "c_function",
            "--axis", "lam=0.001:0.1:3:log",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        lams = [float(line.split(",")[0]) for line in lines[1:]]
        assert lams == pytest.approx([0.001, 0.01, 0.1])

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--op", "binary_entropy", "--axis", "p=0.1:0.5:3"
        )
        assert code == 0
        assert out.splitlines()[0] == "p,h"

    def test_unknown_op_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--op", "nonsense", "--axis", "p=0:1:3"
        )
        assert code == 2

    def test_bad_axis_syntax_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--op", "binary_entropy", "--axis", "p=0.1:0.5"
        )
        assert code == 2

    def test_domain_error_names_point(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--op", "rhct_lower",
            "--axis", "rho=0.5:1.0:2", "--param", "alpha=0.5",
        )
        assert code == 2
        assert "rho" in err


class TestGridBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--op", "phi", "--axis", "x=0:1:1000000000000", "--param", "y=0.5"],
            ["sweep", "--op", "phi", "--axis", "x=0:1:1000000", "--axis", "y=0:1:1000000"],
            ["figure", "--grid-count", "1000000"],
            ["scan", "--r1", "0.1:0.9:1000000000000", "--rho", "0.1:0.9:3"],
            ["scan", "--r1", "0.1:0.9:10000", "--rho", "0.1:0.9:10000"],
        ],
    )
    def test_over_budget_exit_2(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err


class TestFigureCommand:
    def test_small_grid(self, capsys, tmp_path):
        out_path = tmp_path / "phi.csv"
        code, _, _ = run_cli(
            capsys, "figure", "--grid-count", "5", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,y,phi"
        assert len(lines) == 26


class TestGoldenOutput:
    """sha256 of whole CSV outputs, recorded before the scan and the CSV
    writer were restructured; any change to a byte of them fails here."""

    @pytest.mark.parametrize(
        "argv, digest, lines",
        [
            (
                ["figure", "--grid-count", "201"],
                "8d332a4924a3bf907798ee9ce7ca405e6939c33a4ecc013fe02a07d6e0c123bd",
                40402,
            ),
            (
                ["scan", "--r1", "0.2:0.999:30", "--rho", "0.0125:0.9875:79"],
                "bb1889fda2307e6c90d6cc30a44fad816492a3900bd6aa304a8fa3e77807ce6a",
                31,
            ),
            (
                [
                    "sweep", "--op", "sphere_exponent", "--axis", "alpha=0.1:0.9:12",
                    "--axis", "rho=0.1:0.9:12", "--param", "beta=alpha",
                ],
                "a136b9e16b857277b2e4763b2ec0938724ea6065ac959cd7991d84cf4a6b6e74",
                145,
            ),
        ],
        ids=["figure", "scan", "sweep"],
    )
    def test_csv_digest(self, capsys, argv, digest, lines):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


class TestScanCommand:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--r1", "0.2:0.8:4", "--rho", "0.05:0.95:10", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        r1 = [0.2 + i * 0.2 for i in range(4)]
        rho = [0.05 + i * 0.1 for i in range(10)]
        frontier = feasibility_scan(r1, rho)
        got = payload["r2_max"]
        for a, b in zip(got, frontier.r2_max):
            if b is None:
                assert a is None
            else:
                assert a == pytest.approx(b)

    def test_csv_output(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys,
            "scan", "--r1", "0.3:0.7:3", "--rho", "0.1:0.9:5",
            "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r1,r2_max"
        assert len(lines) == 4

    def test_bad_range_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--r1", "0.5", "--rho", "0.1:0.9:5")
        assert code == 2

    @pytest.mark.parametrize("margin", ["nan", "inf", "-inf", "-1e-3"])
    def test_bad_margin_exit_2(self, capsys, margin):
        code, out, err = run_cli(
            capsys,
            "scan", "--r1", "0.3:0.9:3", "--rho", "0.2:0.8:3", f"--margin={margin}",
        )
        assert code == 2
        assert out == ""
        assert "margin" in err


class TestVerifyCommand:
    def test_entropy_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "entropy")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines
        assert all(l.startswith("PASS") for l in lines)

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "entropy", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["results"]
        assert all(item["passed"] for item in payload["results"])
        assert all(item["suite"] == "entropy" for item in payload["results"])
        assert all(item["elapsed_s"] >= 0.0 for item in payload["results"])

    def test_plain_lines_carry_no_time(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--suite", "entropy")
        assert "elapsed" not in out

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "bogus"])
        capsys.readouterr()
        assert info.value.code == 2


# Values that no parser or domain check may turn into a traceback.
_HOSTILE = ("nan", "inf", "-inf", "1e308", "-1e308", "1/0", "abc", "", "0", "1",
            "-1", "0.5", "3", "1e-300")


def _argv(draw, tmp):
    """One argv for a random subcommand, every value drawn from _HOSTILE."""
    value = lambda: draw(st.sampled_from(_HOSTILE))  # noqa: E731
    count = lambda: draw(st.sampled_from(("3", "1", "0", "-1", "nan", "1e308")))  # noqa: E731
    grid = lambda: f"{value()}:{value()}:{count()}"  # noqa: E731
    command = draw(st.sampled_from(
        ("exponent", "bound", "oracle", "hc", "sweep", "figure", "scan", "verify")
    ))
    if command in ("exponent", "bound"):
        return [command, "--alpha", value(), "--beta", value(), "--rho", value()]
    if command == "oracle":
        exact = draw(st.sampled_from(([], ["--exact"])))
        return [command, "--n", value(), "--set-a", tmp, "--set-b", tmp,
                "--rho", value(), *exact]
    if command == "hc":
        when = draw(st.sampled_from(("--t", "--rho")))
        return [command, "--alpha", value(), "--q0", value(), when, value()]
    if command == "sweep":
        op = draw(st.sampled_from(("phi", "psi_bound", "sphere_exponent", "c_function")))
        name = draw(st.sampled_from(("x", "alpha", "rho", "lam")))
        param = draw(st.sampled_from(("y", "beta", "rho")))
        return [command, "--op", op, "--axis", f"{name}={grid()}",
                "--param", f"{param}={value()}"]
    if command == "figure":
        return [command, "--grid-count", count()]
    if command == "scan":
        return [command, "--r1", grid(), "--rho", grid(), "--r2", grid(),
                "--margin", value()]
    return [command, "--suite", draw(st.sampled_from(("entropy", "bogus"))),
            "--seed", value()]


class TestHostileInput:
    def test_every_subcommand_exits_cleanly(self, capsys, tmp_path):
        # NaN, +-inf, 1e308, 1/0 and non-numeric text give exit 0, 1 or 2:
        # bad input is a ValueError, and any other exception fails here.
        path = tmp_path / "a.set"
        path.write_text("n=1\n0\n1\n")

        @settings(max_examples=200, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def drive(data):
            argv = _argv(data.draw, str(path))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            capsys.readouterr()
            assert code in (0, 1, 2), argv

        drive()


class TestTopLevel:
    def test_no_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        capsys.readouterr()
        assert info.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert out.strip()
