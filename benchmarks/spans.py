"""Timing shims for the traced benchmark run.

The shims are installed from outside the package: each traced public
function is replaced, on its own module and on every stratdiff module that
imported it by name, with a wrapper that records a span.  Nothing under
src/ is edited, and uninstalling restores the original objects.

A span is (name, start, end, parent span, operation tag).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its direct children cover; calls are strictly nested because the
benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Public functions timed in the traced run, by module.  The layer of a span
# is the module part of its name.
TRACED = {
    "network": ("validate_instance", "sequence_time"),
    "exact": ("dp_optimal", "brute_force_optimal"),
    "treewidth": ("min_fill_decomposition", "validate_decomposition",
                  "tw_full_optimal", "tw_partial_optimal"),
    "decompose": ("component_instances", "solve_full_via_decomposition"),
    "heuristics": ("greedy_sequence", "majority_sequence"),
    "simulate": ("simulate_sequence",),
    "cli": ("main",),
}
MODULES = ("network", "exact", "treewidth", "decompose", "heuristics",
           "generators", "simulate", "cli")

# Root spans opened by the benchmark itself; their self time is the part of
# an operation (or a check) that no layer span covers.
OP = "op"
CHECK = "check"


class Tracer:
    """Records nested spans; one instance per traced phase."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tags = []
        self.tag = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tags.append(self.tag)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per-span self time, in span order."""
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durs)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += durs[i]
        return [d - c for d, c in zip(durs, covered)]

    def summary(self):
        """{name: [calls, self s, total s]} for spans under OP roots, and
        the same for spans under CHECK roots."""
        selfs = self.self_times()
        parts = {OP: {}, CHECK: {}}
        for i, name in enumerate(self.names):
            rec = parts[self.tags[i][0]].setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += selfs[i]
            rec[2] += self.ends[i] - self.starts[i]
        return parts[OP], parts[CHECK]

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "op": self.tags[i]}) + "\n")


def _shim(tracer, name, fn):
    def shim(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return functools.update_wrapper(shim, fn)


def _decompose_shim(tracer, fn):
    """solve_full_via_decomposition, with its solver argument timed too."""
    def shim(instance, solver, *args, **kwargs):
        def block_solve(sub):
            return tracer.call("decompose.block_solve", solver, sub)
        return tracer.call("decompose.solve_full_via_decomposition", fn,
                           instance, block_solve, *args, **kwargs)
    return functools.update_wrapper(shim, fn)


def install(tracer):
    """Replace every traced function on every stratdiff module that holds it.

    Returns the list of (module, attribute, original) needed to undo it.
    """
    mods = [importlib.import_module("stratdiff")]
    mods += [importlib.import_module(f"stratdiff.{m}") for m in MODULES]
    undo = []
    for mod_name, names in TRACED.items():
        home = importlib.import_module(f"stratdiff.{mod_name}")
        for attr in names:
            orig = getattr(home, attr)
            if attr == "solve_full_via_decomposition":
                shim = _decompose_shim(tracer, orig)
            else:
                shim = _shim(tracer, f"{mod_name}.{attr}", orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, shim)
                        undo.append((mod, key, orig))
    return undo


def uninstall(undo):
    for mod, key, orig in reversed(undo):
        setattr(mod, key, orig)
