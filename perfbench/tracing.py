"""Spans and counters recorded from outside the program.

`Tracer.install` wraps every public module-level function of each layer
module and rebinds it wherever a capalink module refers to it, so calls made
through `from .x import f` names are seen too.  A span opens only where a
call crosses from one layer into another, and records its name, start, end
and parent.  The kernel evaluators are counted but open no span: they run
millions of times inside the oracle, and their time belongs to the caller.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import logging
import sys
import time

import numpy as np

LAYERS = ("cli", "scenario", "channel", "numerics", "uplink", "downlink", "regions", "coupling", "verify")
"The modules under src/capalink timed as layers; geometry counts toward its callers."

COUNTERS = (
    "channel.kernel_points",
    "channel.rho_clamps",
    "numerics.oracle_calls",
    "numerics.oracle_kernel_points",
    "verify.noise_samples",
    "scenario.channel_pair_calls",
    "downlink.pentagons",
    "regions.hull_input_points",
    "coupling.elements",
    "coupling.matrix_bytes",
)

LEAVES = {"channel.kernel_Q", "channel.kernel_at_points"}


def _kernel(tr, args, out):
    tr.counts["channel.kernel_points"] += out.size
    if tr.caller_layer() == "numerics":
        tr.counts["numerics.oracle_kernel_points"] += out.size


def _noise(tr, args, out):
    tr.counts["verify.noise_samples"] += getattr(out, "values", out).size


def _pentagon(tr, args, out):
    if tr.caller_layer() == "downlink":
        tr.counts["downlink.pentagons"] += 1


def _hull(tr, args, out):
    tr.counts["regions.hull_input_points"] += len(args[0])


HOOKS = {
    "channel.kernel_Q": _kernel,
    "channel.kernel_at_points": _kernel,
    "numerics.adaptive_integrate_2d": lambda tr, args, out: tr.count("numerics.oracle_calls"),
    "numerics.sample_noise_batch": _noise,
    "numerics.sample_noise_field": _noise,
    "scenario.channel_pair": lambda tr, args, out: tr.count("scenario.channel_pair_calls"),
    "uplink.region_ul": _pentagon,
    "regions.convex_hull": _hull,
    "coupling.coupled_pair": lambda tr, args, out: tr.count("coupling.elements", args[0].count),
}


class _ClampCounter(logging.Filter):
    "Counts the channel layer's clamp warnings and lets every record through."

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def filter(self, record):
        if "clamping" in str(record.msg):
            self.tracer.count("channel.rho_clamps")
        return True


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = collections.Counter({name: 0 for name in COUNTERS})
        self._patches = []
        self._filter = _ClampCounter(self)

    def count(self, name, n=1):
        self.counts[name] += n

    def caller_layer(self):
        return self.spans[self.stack[-1]][1] if self.stack else None

    def _wrap(self, layer, name, fn):
        qual = f"{layer}.{name}"
        hook = HOOKS.get(qual)
        if layer == "coupling":
            hook = self._matrix_bytes(hook)
        leaf = qual in LEAVES
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if leaf or (stack and spans[stack[-1]][1] == layer):
                out = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([qual, layer, clock(), 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    spans[idx][3] = clock()
                    stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def _matrix_bytes(self, hook):
        "Bytes of the matrices the coupling layer returns, computed from their sizes."

        def counted(tr, args, out):
            if isinstance(out, np.ndarray) and out.ndim == 2:
                tr.count("coupling.matrix_bytes", out.nbytes)
            if hook is not None:
                hook(tr, args, out)

        return counted

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"capalink.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "capalink" and not modname.startswith("capalink."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        logging.getLogger("capalink.channel").addFilter(self._filter)

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()
        logging.getLogger("capalink.channel").removeFilter(self._filter)

    def self_ms(self):
        "Per layer: span time minus the time of its child spans, in ms."
        out = {layer: 0.0 for layer in LAYERS}
        for name, layer, start, end, parent in self.spans:
            dur = end - start
            out[layer] += dur
            if parent >= 0:
                out[self.spans[parent][1]] -= dur
        return {f"{layer}.self_ms": 1e3 * v for layer, v in out.items()}
