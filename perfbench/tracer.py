"""Spans and counters recorded from outside the program.

`Tracer.install` wraps every public function of the cartanvp modules and
rebinds each wrapper wherever the function was imported by name (a
`from .forms import interior` in varprin gets the wrapper too).  A call
made while the same function is already running is passed straight
through, so recursive functions (canon, evaluate) record only their
outermost call.  Spans are kept in flat arrays (function, start, end,
parent) and written out at the end; self time is a span's duration minus
the durations of its child spans.  Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "symexpr", "forms", "linalg", "ideals", "decomp", "varprin",
    "flows", "liouville", "specio", "fixtures", "cli",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = Counter()
        self._stack = [-1]
        self._active: list[bool] = []

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for name, f in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(f) or f.__module__ != mod.__name__:
                    continue
                wrapped[f] = self._wrap(f, f"{short}.{name}")
        for mod in modules + [package]:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, name, wrapped[val])

    def _wrap(self, f, qname: str):
        i = len(self.names)
        self.names.append(qname)
        self._active.append(False)
        hook = _HOOKS.get(qname)
        sig = inspect.signature(f) if hook else None
        active, stack = self._active, self._stack
        fid, start, end, parent = self.fid, self.start, self.end, self.parent
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if active[i]:
                return f(*args, **kwargs)
            active[i] = True
            s = len(fid)
            fid.append(i)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(s)
            start.append(clock())
            try:
                out = f(*args, **kwargs)
            finally:
                end[s] = clock()
                stack.pop()
                active[i] = False
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, out)
            return out

        return wrapper

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the child spans' durations."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        par = np.frombuffer(self.parent, dtype=np.int32)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=len(dur))
        return dur - child

    def summary(self) -> dict:
        """Per-function call counts and self seconds, and per-module self
        seconds, keyed like the metrics ('symexpr.canon.calls')."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        own = self.self_times()
        calls = np.bincount(fid, minlength=len(self.names))
        selfs = np.bincount(fid, weights=own, minlength=len(self.names))
        out: dict = dict(self.counts)
        for i, q in enumerate(self.names):
            mod = q.split(".")[0]
            out[f"{q}.calls"] = int(calls[i])
            out[f"{q}.self_s"] = float(selfs[i])
            out[f"{mod}.self_s"] = out.get(f"{mod}.self_s", 0.0) + float(selfs[i])
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# counters read from arguments and return values at the module boundary


def _is_zero(counts, args, out):
    counts[f"symexpr.is_zero.{out.verdict}"] += 1


def _frobenius(counts, args, out):
    counts[f"ideals.frobenius_check.{out.verdict}"] += 1


def _certify_rank(counts, args, out):
    # certify_rank skips points that fail to evaluate; out.count = points kept
    counts["linalg.samples_drawn"] += args["count"]
    counts["linalg.samples_kept"] += out.count


def _flow(counts, args, out):
    t, step = args["t"], args["step"]
    steps = 0 if t == 0 else max(1, math.ceil(abs(t) / step))
    counts["flows.rk4_steps"] += steps
    counts["flows.field_evals"] += 4 * steps


_HOOKS = {
    "symexpr.is_zero": _is_zero,
    "ideals.frobenius_check": _frobenius,
    "linalg.certify_rank": _certify_rank,
    "flows.flow": _flow,
}
