"""Tests of the self-verification suites.

Each suite property is tested once, by running its suite here; the other
test modules do not restate what a suite already checks.
"""

import time

import pytest

from hyperrect.verify import SUITES, CheckResult, run_suites


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    results = run_suites([name])
    assert results
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed
    assert all(r.suite == name for r in results)


def test_check_times_add_up_to_the_suite_time():
    start = time.perf_counter()
    results = run_suites(["entropy"])
    wall = time.perf_counter() - start
    assert all(r.elapsed >= 0.0 for r in results)
    total = sum(r.elapsed for r in results)
    # Only the call into the suite and its seeding fall outside the checks.
    assert total <= wall
    assert total >= 0.9 * wall - 1e-3


def test_check_result_positional_construction():
    result = CheckResult("entropy", "name", True, "detail")
    assert result.elapsed == 0.0
    assert CheckResult("entropy", "name", False, "", 1.5).elapsed == 1.5
