"""Span tracing of blockgp's public functions, from outside the program.

The tracer wraps each public function where it is called from: every
module that imported the name gets the wrapper, so calls between blockgp
modules are seen as well as calls from the benchmark.  A span is
(name, start, end, parent, phase); the phase is the benchmark phase
(setup, fit, predict, checks) that was open when the span began.  Spans
are kept in memory and written out once, when the run ends.

Self time is a span's duration minus the part covered by its children.
Nothing here is active until ``install`` is called, and wrappers record
only while ``recording`` is true.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
import time
from collections import defaultdict
from typing import Dict, List

# Objective evaluations, as the training loops call them.
OBJECTIVES = ("evaluate_bound", "vi_stochastic", "tpep_stochastic")
QU_GRADIENTS = ("uncollapsed_qu_gradient", "tpep_qu_gradient")


class Agg:
    """Per (phase, name) totals."""

    __slots__ = ("calls", "total", "self_time", "failed", "entries", "flops",
                 "jittered", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.failed = 0
        self.entries = 0
        self.flops = 0.0
        self.jittered = 0
        self.durations: List[float] = []


class Tracer:
    def __init__(self):
        self.recording = False
        self.phase = ""
        self.spans: List[tuple] = []
        self.aggs: Dict[tuple, Agg] = defaultdict(Agg)
        self._stack: List[list] = []  # [span index, child time]

    def reset(self):
        self.spans = []
        self.aggs = defaultdict(Agg)
        self._stack = []

    def wrap(self, name, fn, measure=None):
        """Wrap fn so each call is a span; measure(agg, args, result) adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[index] = (name, start, end, parent, tracer.phase)
                agg = tracer.aggs[(tracer.phase, name)]
                agg.calls += 1
                agg.total += dur
                agg.self_time += dur - frame[1]
                agg.durations.append(dur)
                if not ok:
                    agg.failed += 1
            if measure is not None:
                measure(agg, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def agg(self, name: str, phases=("setup", "fit", "predict")) -> Agg:
        """Totals of one span name summed over the given phases."""
        out = Agg()
        for phase in phases:
            a = self.aggs.get((phase, name))
            if a is None:
                continue
            out.calls += a.calls
            out.total += a.total
            out.self_time += a.self_time
            out.failed += a.failed
            out.entries += a.entries
            out.flops += a.flops
            out.jittered += a.jittered
            out.durations.extend(a.durations)
        return out

    def write(self, path: str, meta: dict):
        """Write the recorded spans as gzipped JSON lines, one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(meta) + "\n")
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, start, end, parent, phase]) + "\n")


def wrapper_cost(tracer: Tracer) -> float:
    """Seconds one recorded call costs over a plain call, on a wrapped no-op.

    The median of 5 paired loops of 20 000 calls; the tracer is left empty.
    """
    calls = 20000

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    tracer.recording, tracer.phase = True, "calibration"
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        diffs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
    tracer.recording = False
    tracer.reset()
    return statistics.median(diffs)


def _kernel_entries(agg, args, result):
    agg.entries += int(result.shape[0]) * int(result.shape[1])


def _chol_counts(agg, args, result):
    n = result.size
    agg.flops += n ** 3 / 3.0
    if result.jitter_used > 0.0:
        agg.jittered += 1


def _objective_value(agg, args, result):
    value = getattr(result, "total", result)
    if not math.isfinite(value):
        agg.failed += 1


def _patch(tracer, modules, attr, name, measure=None):
    """Replace attr in every module that holds it with one shared wrapper."""
    original = getattr(modules[0], attr)
    wrapped = tracer.wrap(name, original, measure)
    for mod in modules:
        if getattr(mod, attr) is not original:
            raise RuntimeError(f"{mod.__name__}.{attr} is not {modules[0].__name__}.{attr}")
        setattr(mod, attr, wrapped)


def _patch_method(tracer, cls, attr, name, measure=None):
    setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), measure))


def install(tracer: Tracer):
    """Wrap blockgp's public functions in every module that calls them.

    A module that no longer imports a name is skipped, so the tracer
    follows the program as its imports change; a module that holds a
    different object under the same name is an error.
    """
    import blockgp.bounds_pep as bounds_pep
    import blockgp.bounds_vi as bounds_vi
    import blockgp.data as data
    import blockgp.kernels as kernels
    import blockgp.linalg as linalg
    import blockgp.prediction as prediction
    import blockgp.training as training

    every = (kernels, linalg, bounds_vi, bounds_pep, prediction, training, data)

    def holders(home, attr):
        return [home] + [m for m in every if m is not home and hasattr(m, attr)
                         and getattr(m, attr) is getattr(home, attr)]

    _patch(tracer, holders(kernels, "kernel_matrix"), "kernel_matrix",
           "kernel_matrix", _kernel_entries)
    _patch(tracer, holders(linalg, "chol"), "chol", "chol", _chol_counts)
    _patch(tracer, holders(bounds_vi, "prepare"), "prepare", "prepare")
    _patch_method(tracer, bounds_vi.PreparedBound, "block_gap", "block_gap")
    for attr in ("__init__", "logpdf", "posterior"):
        _patch_method(tracer, linalg.LowRankGaussian, attr, "low_rank_gaussian")
    _patch(tracer, holders(training, "evaluate_bound"), "evaluate_bound", "evaluate_bound",
           _objective_value)
    _patch(tracer, holders(training, "finite_difference_gradient"),
           "finite_difference_gradient", "finite_difference_gradient")
    _patch(tracer, holders(bounds_vi, "vi_stochastic"), "vi_stochastic", "vi_stochastic",
           _objective_value)
    _patch(tracer, holders(bounds_pep, "tpep_stochastic"), "tpep_stochastic",
           "tpep_stochastic", _objective_value)
    for attr in ("uncollapsed_qu_gradient", "optimal_qu"):
        _patch(tracer, holders(bounds_vi, attr), attr, attr)
    for attr in ("tpep_collapsed", "tpep_qu_gradient", "tpep_optimal_qu"):
        _patch(tracer, holders(bounds_pep, attr), attr, attr)
    _patch(tracer, holders(data, "initial_state"), "initial_state", "initial_state")
    _patch(tracer, holders(prediction, "predict"), "predict", "predict")
