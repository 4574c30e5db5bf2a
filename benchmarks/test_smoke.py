"""Smoke test for the benchmark at tiny size.

    python3 -m pytest benchmarks/test_smoke.py -q

Checks that every metric BENCHMARK.json names appears on every workload,
that the untraced workers never load the tracer, that the tracer
reproduces known call counts on single-call probes, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_on_every_workload(workload: str, trace: int) -> None:
    done = _run(*SPEC["command"][1:], "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_untraced_worker_never_loads_the_tracer() -> None:
    reports = {}
    for mode in ("setup", "timed", "replay", "traced"):
        done = _run(str(HERE / "worker.py"), mode, "exact", "1", "0.1", "--tiny")
        assert done.returncode == 0, done.stderr
        reports[mode] = json.loads(done.stdout.strip().splitlines()[-1])["tracer_active"]
    assert reports == {"setup": False, "timed": False, "replay": False, "traced": True}


@pytest.fixture
def tracer():
    import hyperrect  # noqa: F401  (the tracer wraps what is imported)
    import tracer as tracer_module

    active = tracer_module.Tracer()
    active.install()
    try:
        yield active
    finally:
        active.uninstall()


def test_tracer_reproduces_known_counts(tracer) -> None:
    import hyperrect as hr

    hr.binary_entropy_inv(0.3)
    assert tracer.report()["entropy.h_evals_per_inv"] == 43

    hr.sphere_exponent(0.5, 0.5, 0.9)
    assert tracer.report()["exponents.h_inv_per_sphere"] == 100

    solution = hr.solve_q(0.5, 2.0, 0.1)
    report = tracer.report()
    assert solution.steps == 1780
    assert report["hypercontractivity.steps_per_solve"] == 1780
    assert report["hypercontractivity.h_inv_per_solve"] == 7120
    assert report["hypercontractivity.c_calls"] == 7120


def test_tracer_parents_pool_threads_to_their_sweep(tracer) -> None:
    import time

    import hyperrect as hr

    start = time.perf_counter()
    hr.figure_phi_surface(41)
    elapsed = time.perf_counter() - start
    report = tracer.report()
    assert report["sweeps.points"] == 41 * 41
    # Each phi point is one phi, one star and two inverse spans.
    assert report["entropy.calls"] == 4 * 41 * 41
    # Spans on the pool's threads are children of run_sweep, so its self
    # time excludes them, and overlapping children never make it negative.
    assert 0.0 <= report["sweeps.self_s"] < 0.5 * elapsed


def test_covered_length_merges_overlaps() -> None:
    from tracer import _covered

    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert _covered([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(*SPEC["command"][1:], "--workload", "hc", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
