"""One benchmark phase in a fresh interpreter; started by run.py.

    python3 benchmarks/worker.py MODE WORKLOAD SEED LIMIT [--tiny]

MODE is one of
  setup   import the CLI, build its parser, finish the warm-up call, stop;
  timed   then run whole cycles until LIMIT seconds of operations are timed;
  traced  install the tracer after the import, then run the workload's
          fixed number of trace cycles (one with --tiny); LIMIT is unused;
  replay  the same cycles untraced, to price the tracer.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
MODES = ("setup", "timed", "traced", "replay")


def _import_cli():
    """Import hyperrect.cli from this checkout; returns (module, seconds)."""
    sys.path.insert(0, str(SOURCE))
    start = time.perf_counter()
    import hyperrect.cli

    elapsed = time.perf_counter() - start
    package = sys.modules["hyperrect"]
    if not Path(package.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"hyperrect imported from {package.__file__}, not {SOURCE}")
    return hyperrect.cli, elapsed


def _tracer_active(package) -> bool:
    """Whether the tracer module is loaded or any public function is wrapped."""
    if "tracer" in sys.modules:
        return True
    return any(
        inspect.isfunction(value) and hasattr(value, "__wrapped__")
        for value in (getattr(package, name, None) for name in package.__all__)
    )


class _Runner:
    """Runs operations, times them, and checks their outputs untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[list[float]] = []  # per cycle, per operation
        self.attempted = 0
        self.failures: list[str] = []

    def run_cycle(self, ops, timed: bool = True) -> float:
        """Run ops in order, then check them; returns the seconds timed."""
        outputs: dict[str, object] = {}
        cycle: list[float] = []
        spent = 0.0
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                outputs[op.key] = op.run()
            except Exception as exc:  # a failed operation is a measured outcome
                elapsed = time.perf_counter() - start
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
            spent += elapsed
            if timed:
                cycle.append(elapsed)
        self.pause(True)
        try:
            for op in ops:
                if op.key not in outputs:
                    continue
                try:
                    problem = op.check(outputs[op.key], outputs)
                except Exception as exc:  # a check that cannot run is a failed check
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem is not None:
                    self.failures.append(f"{op.key}: {problem}")
        finally:
            self.pause(False)
        if cycle:
            self.latencies.append(cycle)
        return spent

    def pause(self, paused: bool) -> None:
        """Checks are not the program's work; the tracer skips them."""
        if self.tracer is not None:
            self.tracer.paused = paused


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or argv[0] not in MODES or argv[4:] not in ([], ["--tiny"]):
        print(__doc__, file=sys.stderr)
        return 2
    mode, workload_name, seed, limit = argv[0], argv[1], int(argv[2]), float(argv[3])
    tiny = argv[4:] == ["--tiny"]

    cli, import_s = _import_cli()
    package = sys.modules["hyperrect"]
    tracer = None
    if mode == "traced":
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()

    start = time.perf_counter()
    cli.build_parser()
    parser_s = time.perf_counter() - start

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    runner = _Runner(tracer)
    # The warm-up belongs to set-up, so the tracer skips it as well.
    runner.pause(True)
    warmup_s = runner.run_cycle(
        [workload.warmup(random.Random(f"{workload_name}:{seed}:warmup"), tiny)], timed=False
    )
    setup_s = import_s + parser_s + warmup_s

    result = {
        "mode": mode,
        "import_s": import_s,
        "setup_s": setup_s,
    }
    if mode != "setup":
        draw = workloads.Sampler(f"{workload_name}:{seed}:ops")
        replayed = 1 if tiny else workload.trace_cycles
        spent = 0.0
        while (spent < limit) if mode == "timed" else (draw.cycle < replayed):
            spent += runner.run_cycle(workload.cycle(draw, tiny))
            draw.cycle += 1
        result["cycles"] = draw.cycle
        result["op_s"] = spent
        result["latencies"] = runner.latencies
    if tracer is not None:
        tracer.paused = True
        result["layers"] = tracer.report()
        tracer.uninstall()
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        tracer_active=_tracer_active(package),
        numpy=sys.modules["numpy"].__version__,
        workers=os.cpu_count(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
