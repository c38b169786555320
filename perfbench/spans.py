"""Span recording for the traced benchmark run, from outside the library.

`install` replaces every public function of the measured layers in the
module globals where callers look it up (rainbow_lab.cli, .entanglement,
.continuum, .fitting), plus CorrelationMatrix.eigenvalues, with a wrapper
that records one span per call: name, layer, thread, start, end, parent
span and whether it raised.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children.
A child is a span that started while its parent was the innermost open span
of the same thread, so a span run on a pool thread is a root of that thread
and never a child of the thread that submitted it.  The layer of a function
is the module that defines it.  qubism and sdrg only serve small-system
oracles and are left unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import Counter

LAYERS = ("lattice", "spectra", "entanglement", "fitting", "continuum")
CALLER_MODULES = ("cli", "entanglement", "continuum", "fitting")


class Span:
    __slots__ = ("name", "layer", "thread", "parent", "start", "end", "error")

    def __init__(self, name, layer, thread, parent):
        self.name = name
        self.layer = layer
        self.thread = thread
        self.parent = parent
        self.start = self.end = 0.0
        self.error = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and work counts of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = Counter()
        self._clock = clock
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, func, count=None):
        """`func` wrapped so that each call records a span; `count(counts,
        args, result)` adds the call's work counts after it returns."""
        clock = self._clock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(name, layer, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def export(self) -> list:
        """Spans as JSON-ready rows [name, layer, thread, start, end, parent
        row index or -1, error], in the order they ended."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.layer, s.thread, s.start, s.end,
             index[id(s.parent)] if s.parent is not None else -1, s.error]
            for s in self.spans
        ]


def self_times(spans) -> dict:
    """Self time per span (keyed by id)."""
    own = {id(s): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[id(s.parent)] -= s.duration
    return own


def summarize(rec: Recorder, wall_s: float) -> dict:
    """Per-layer metrics of a traced run whose cli.main took `wall_s`.

    cli.self_s is the traced wall time minus the root spans, i.e. argument
    parsing, the sweep loop and CSV writing.  It is meaningful for --jobs 1,
    where every span runs on the main thread.
    """
    own = self_times(rec.spans)
    out = {}
    for layer in LAYERS:
        mine = [s for s in rec.spans if s.layer == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(own[id(s)] for s in mine)
        out[f"{layer}.errors"] = sum(s.error for s in mine)
    out["cli.self_s"] = wall_s - sum(s.duration for s in rec.spans if s.parent is None)
    c = rec.counts
    out["lattice.dense_mb"] = c["dense_bytes"] / 2**20
    out["spectra.dim_sum"] = c["dim_sum"]
    out["spectra.dim_max"] = c["dim_max"]
    out["entanglement.block_dim_sum"] = c["block_dim_sum"]
    out["entanglement.eig_calls"] = c["eig_calls"]
    out["entanglement.eig_per_block"] = c["eig_calls"] / c["blocks"] if c["blocks"] else 0.0
    return out


# ------------------------------------------------------------ work counts

def _count_dense(counts, args, result):
    from rainbow_lab.lattice import HoppingMatrix

    if isinstance(result, HoppingMatrix) and not (args and args[0] is result):
        counts["dense_bytes"] += 8 * result.dim**2


def _count_spectrum(counts, args, result):
    counts["dim_sum"] += result.dim
    counts["dim_max"] = max(counts["dim_max"], result.dim)


def _count_block(counts, args, result):
    counts["blocks"] += 1
    counts["block_dim_sum"] += result.size


def _count_eig(counts, args, result):
    counts["eig_calls"] += 1


COUNTERS = {
    "hopping_matrix": _count_dense,
    "hopping_matrix_1d": _count_dense,
    "hopping_matrix_2d": _count_dense,
    "diagonalize": _count_spectrum,
    "correlation_matrix": _count_block,
    "block_correlation": _count_block,
    "CorrelationMatrix.eigenvalues": _count_eig,
}


def install(rec: Recorder) -> None:
    """Wrap the measured layers' public functions, recording into `rec`."""
    import importlib

    wrapped = {}
    for short in CALLER_MODULES:
        module = importlib.import_module(f"rainbow_lab.{short}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            if obj not in wrapped:
                wrapped[obj] = rec.wrap(layer, name, obj, COUNTERS.get(name))
            setattr(module, name, wrapped[obj])
    from rainbow_lab.entanglement import CorrelationMatrix

    name = "CorrelationMatrix.eigenvalues"
    CorrelationMatrix.eigenvalues = rec.wrap(
        "entanglement", name, CorrelationMatrix.eigenvalues, COUNTERS[name]
    )
