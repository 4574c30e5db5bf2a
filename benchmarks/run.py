"""Benchmark for hyperrect: end-to-end and per-layer metrics on three workloads.

    python3 benchmarks/run.py --workload {grid,hc,exact,all} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run it from the root of a checkout; it imports ``hyperrect`` from ``src/``.

Each workload is a closed loop: one client issues an operation only after
the previous one returned, in one process, through the public API.

  grid   CLI-style grid commands with their CSV: the phi figure, sphere-exponent
         sweeps and feasibility scans, on the default sweep pool.
  hc     scalar hypercontractivity: psi bounds, norm-index solves and
         direct certificates.
  exact  enumeration oracles: distance profiles with float and rational
         probabilities, the noise operator, sphere profiles and the
         convergence study.

With ``--trace 0`` the run reports the end-to-end metrics, with the
tracer never loaded:

  setup_s      median over several fresh interpreters of the time to import
               hyperrect.cli, build its parser and finish the warm-up call
  ops_per_s    operations per second of timed operation time
  op_p50_ms    median operation latency
  op_tail_ms   latency at the highest percentile with ten samples beyond it
  peak_rss_mb  peak resident memory of the timed worker

Failed operations and failed output checks are counted in ``failed`` of
the result line; ``fail_ratio`` is printed beside the metrics.

With ``--trace 1`` the run replays a fixed number of cycles once with the
tracer installed and once without, and reports per-layer counts and times
(see tracer.py) plus the traced/untraced wall ratio.  The replayed work is
fixed per workload so the counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--tiny`` shrinks
every input, for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The names of workloads.WORKLOADS; the parent never imports hyperrect.
WORKLOADS = ("grid", "hc", "exact")
# Setup-only interpreters per run; the timed worker adds one more sample.
SETUP_SAMPLES = 6
# Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """A worker failed to produce a result."""


def _worker_env() -> dict[str, str]:
    # Users get the default sweep pool of os.cpu_count() threads.
    env = dict(os.environ)
    env.pop("HYPERRECT_THREADS", None)
    return env


def _run_worker(mode: str, workload: str, seed: int, limit: float, tiny: bool, deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), repr(limit)]
    if tiny:
        argv.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for the {mode} worker")
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker for {workload} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{mode} worker for {workload} exited {done.returncode}:\n{done.stderr.strip()}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if mode != "traced" and result["tracer_active"]:
        raise BenchmarkError(f"the tracer was active in the untraced {mode} worker")
    return result


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _source_digest() -> str:
    """Digest of the package sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyperrect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _record(workload: str, args, worker: dict) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "sweep_workers": worker["workers"],
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _end_to_end(workload: str, args, deadline: float) -> tuple[dict, list[str], int]:
    setups = [
        _run_worker("setup", workload, args.seed, 0.0, args.tiny, deadline)
        for _ in range(SETUP_SAMPLES)
    ]
    timed = _run_worker("timed", workload, args.seed, float(args.seconds), args.tiny, deadline)
    latencies = [x for cycle in timed["latencies"] for x in cycle]
    tail, percentile = _tail(latencies)
    metrics = {
        "setup_s": statistics.median([w["setup_s"] for w in setups + [timed]]),
        "ops_per_s": len(latencies) / timed["op_s"],
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    workers = setups + [timed]
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    notes = {
        "op_tail_ms": f"p{percentile:.1f} of {len(latencies)} samples",
        "ops_per_s": f"{len(latencies)} ops in {timed['cycles']} cycles, {timed['op_s']:.3f} s timed",
    }
    print("record " + json.dumps(_record(workload, args, timed)))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"{workload} fail_ratio = {len(failures) / attempted:.6g} 1  ({len(failures)} of {attempted})")
    return {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()}, failures, attempted


def _per_layer(workload: str, args, deadline: float) -> tuple[dict, list[str], int]:
    traced = _run_worker("traced", workload, args.seed, 0.0, args.tiny, deadline)
    replay = _run_worker("replay", workload, args.seed, 0.0, args.tiny, deadline)
    cycles = traced["cycles"]
    layers = dict(traced["layers"])
    layers["cli.import_s"] = traced["import_s"]
    layers["trace.wall_ratio"] = traced["op_s"] / replay["op_s"]
    attempted = traced["attempted"] + replay["attempted"]
    failures = traced["failures"] + replay["failures"]
    print("record " + json.dumps(_record(workload, args, traced)))
    print(
        f"{workload} traced/untraced wall ratio = {layers['trace.wall_ratio']:.3f} "
        f"({traced['op_s']:.3f} s / {replay['op_s']:.3f} s over {cycles} cycles)"
    )
    for name, value in layers.items():
        print(f"{workload} {name} = {value:.6g} {_layer_unit(name)}")
    return {n: {"value": v, "unit": _layer_unit(n)} for n, v in layers.items()}, failures, attempted


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")) or "_per_" in name:
        return "1"
    return "count"


def _run(workload: str, args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    measure = _per_layer if args.trace else _end_to_end
    metrics, failures, attempted = measure(workload, args, deadline)
    for failure in failures[:10]:
        print(f"{workload} FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "hyperrect" / "__init__.py").is_file():
        print(f"error: no hyperrect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [_run(name, args) for name in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in zip(names, results)
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
