"""Per-layer spans and counts for the benchmark's traced run.

The tracer wraps hyperrect's public functions from outside the package:
each function named in a layer module's ``__all__`` (for ``cli``, which
has no ``__all__``, its public functions) is replaced in every
``hyperrect`` module namespace that binds it.  The package looks those
names up at call time, so cross-module calls go through the wrappers.

A span is one call of a wrapped function.  Its self time is its wall
duration minus the union of its children's intervals, so children that
overlap on the sweep pool's threads are never counted twice; its wait
time is self wall time minus the thread CPU time spent outside its
children.  Spans opened on a pool thread with nothing open on that
thread belong to the ``run_sweep`` call that owns the pool.

``binary_entropy`` runs hundreds of thousands of times per workload, so
it gets no span: each call only adds one to the span that is open.

Totals are kept per thread and merged when the report is built; no span
is stored after it closes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import Counter

LAYERS = (
    "entropy",
    "optimize",
    "exponents",
    "hypercontractivity",
    "oracle",
    "adder_mac",
    "sweeps",
    "cli",
)

# Functions counted instead of spanned: name -> layer.
_COUNT_ONLY = {"binary_entropy": "entropy"}

# For these spans, record how many calls of the inner functions ran
# beneath them on the same thread.
_NESTED = {
    "sphere_exponent": ("binary_entropy_inv",),
    "solve_q": ("binary_entropy_inv", "c_function"),
}

# Spans whose inclusive time feeds a named oracle metric.
_ORACLE_GROUPS = {
    "oracle.profile_s": ("pair_distance_profile", "sphere_distance_profile"),
    "oracle.prob_s": ("rectangle_prob", "rectangle_prob_fraction"),
    "oracle.fwht_s": ("noise_operator",),
}


class _Span:
    __slots__ = ("name", "parent", "thread", "start", "kids", "kid_cpu", "counted", "snap")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.kids = []
        self.kid_cpu = 0.0
        self.counted = 0
        self.snap = ()


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack: list[_Span] = []
        self.calls = Counter()
        self.self_s = Counter()
        self.self_cpu = Counter()
        self.counted = Counter()
        self.nested = Counter()
        self.extra = Counter()
        self.scan_keys: set[tuple[float, float]] = set()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    if len(intervals) == 1:
        start, end = intervals[0]
        return end - start
    total = 0.0
    cur_start, cur_end = None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


class Tracer:
    """Wraps hyperrect's public functions and aggregates their spans.

    ``paused`` makes every wrapper a plain pass-through; the benchmark
    sets it while it checks outputs, so checks never count as work.
    """

    def __init__(self) -> None:
        self.paused = False
        self._main = threading.get_ident()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._sweep: _Span | None = None
        self._layer_of: dict[str, str] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "hyperrect" or name.startswith("hyperrect."))
        }
        for layer in LAYERS:
            module = modules.get(f"hyperrect.{layer}")
            if module is None:
                continue
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._layer_of[name] = _COUNT_ONLY.get(name, layer)
                wrapper = self._count_only(fn) if name in _COUNT_ONLY else self._span(fn)
                for target in modules.values():
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patch(target, attr, wrapper)
        table = getattr(modules.get("hyperrect.sweeps"), "ResultTable", None)
        if table is not None and inspect.isfunction(getattr(table, "to_csv_text", None)):
            self._layer_of["to_csv_text"] = "sweeps"
            self._patch(table, "to_csv_text", self._span(table.to_csv_text))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, wrapper) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    # -- per-thread state ---------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    # -- wrappers -----------------------------------------------------

    def _count_only(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.paused:
                stack = tracer._state().stack
                if stack:
                    stack[-1].counted += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn):
        tracer = self
        name = fn.__name__
        nested = _NESTED.get(name, ())
        is_sweep = name == "run_sweep"
        is_golden = name == "golden_section_maximize"
        perf = time.perf_counter
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif state.ident != tracer._main:
                parent = tracer._sweep
            else:
                parent = None
            span = _Span(name, parent, state.ident)
            state.calls[name] += 1
            if nested:
                span.snap = tuple(state.calls[inner] for inner in nested)
            if is_golden and args:
                args = (tracer._counting_objective(args[0], state),) + args[1:]
            if parent is not None and parent.name == "feasibility_scan" and name == "morss_lower_exponent":
                state.extra["adder_mac.lookups"] += 1
                state.scan_keys.add((args[0] + args[1], args[2]))
            stack.append(span)
            outer_sweep = tracer._sweep
            if is_sweep:
                tracer._sweep = span
            span.start = perf()
            cpu0 = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = cpu_clock() - cpu0
                end = perf()
                stack.pop()
                if is_sweep:
                    tracer._sweep = outer_sweep
                tracer._close(span, end, cpu, state)
            tracer._after(name, args, result, state)
            return result

        return traced

    def _counting_objective(self, objective, state: _ThreadState):
        def counted(x):
            state.extra["optimize.evals"] += 1
            return objective(x)

        return counted

    def _close(self, span: _Span, end: float, cpu: float, state: _ThreadState) -> None:
        name = span.name
        covered = _covered(span.kids) if span.kids else 0.0
        state.self_s[name] += end - span.start - covered
        state.self_cpu[name] += cpu - span.kid_cpu
        if span.counted:
            state.counted[name] += span.counted
        for inner, before in zip(_NESTED.get(name, ()), span.snap):
            state.nested[name, inner] += state.calls[inner] - before
        parent = span.parent
        if parent is not None:
            parent.kids.append((span.start, end))
            if parent.thread == span.thread:
                parent.kid_cpu += cpu

    @staticmethod
    def _after(name: str, args: tuple, result, state: _ThreadState) -> None:
        if name == "solve_q":
            state.extra["hypercontractivity.steps"] += result.steps
        elif name == "pair_distance_profile":
            state.extra["oracle.pairs"] += len(args[0]) * len(args[1])
        elif name == "run_sweep":
            state.extra["sweeps.points"] += len(result.rows)

    # -- report -------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Merged per-layer metrics, by the names BENCHMARK.json lists."""
        calls, self_s, self_cpu = Counter(), Counter(), Counter()
        counted, nested, extra = Counter(), Counter(), Counter()
        scan_keys: set[tuple[float, float]] = set()
        with self._states_lock:
            states = list(self._states)
        for state in states:
            calls.update(state.calls)
            self_s.update(state.self_s)
            self_cpu.update(state.self_cpu)
            counted.update(state.counted)
            nested.update(state.nested)
            extra.update(state.extra)
            scan_keys |= state.scan_keys

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n, owner in self._layer_of.items() if owner == layer]
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
            out[f"{layer}.wait_s"] = max(0.0, sum(self_s[n] - self_cpu[n] for n in names))

        h_inv = calls["binary_entropy_inv"]
        out["entropy.h_inv_calls"] = h_inv
        out["entropy.h_evals"] = sum(counted.values())
        out["entropy.h_evals_per_inv"] = ratio(counted["binary_entropy_inv"], h_inv)
        out["optimize.evals_per_call"] = ratio(
            extra["optimize.evals"], calls["golden_section_maximize"]
        )
        out["exponents.sphere_calls"] = calls["sphere_exponent"]
        out["exponents.h_inv_per_sphere"] = ratio(
            nested["sphere_exponent", "binary_entropy_inv"], calls["sphere_exponent"]
        )
        solves = calls["solve_q"]
        out["hypercontractivity.solves"] = solves
        out["hypercontractivity.steps_per_solve"] = ratio(
            extra["hypercontractivity.steps"], solves
        )
        out["hypercontractivity.c_calls"] = calls["c_function"]
        out["hypercontractivity.h_inv_per_solve"] = ratio(
            nested["solve_q", "binary_entropy_inv"], solves
        )
        out["oracle.pairs"] = extra["oracle.pairs"]
        for metric, names in _ORACLE_GROUPS.items():
            out[metric] = sum(self_s[n] for n in names)
        lookups = extra["adder_mac.lookups"]
        out["adder_mac.lookups"] = lookups
        out["adder_mac.total_reuse_share"] = ratio(lookups - len(scan_keys), lookups)
        out["sweeps.points"] = extra["sweeps.points"]
        out["sweeps.csv_s"] = self_s["to_csv_text"]
        return out

