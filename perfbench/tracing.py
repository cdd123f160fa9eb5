"""Spans and counters recorded around calls into the program's public
functions, by swapping module attributes for timing wrappers.

A span records (op, id, parent id, name, start, end, attributes).  Calls
too frequent to keep one span each (a likelihood evaluation, a special
function) only add to a per-op call count and busy time.  Everything stays
in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import itertools
import json
from contextlib import ExitStack, contextmanager
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute, layer name, kind).  A function imported by name into
# another module is wrapped where the caller looks it up.
LAYERS = (
    ("rmstbayes.cli", "ingest_csv", "dataio.ingest", SPAN),
    ("rmstbayes.cli", "run_chains", "sampler.run_chains", SPAN),
    ("rmstbayes.simulation", "run_chains", "sampler.run_chains", SPAN),
    ("rmstbayes.sampler", "log_posterior", "inference.log_posterior", COUNT),
    ("rmstbayes.cli", "rmst_difference", "rmst.difference", SPAN),
    ("rmstbayes.simulation", "rmst_difference", "rmst.difference", SPAN),
    ("rmstbayes.rmst", "rmst_difference", "rmst.difference", SPAN),
    ("rmstbayes.rmst", "rmst_distribution", "rmst.distribution", SPAN),
    ("rmstbayes.rmst", "rmst_numeric", "rmst.quadrature", COUNT),
    ("rmstbayes.rmst", "lower_incomplete_gamma", "specfun.gamma", COUNT),
    ("rmstbayes.rmst", "incomplete_beta_compl", "specfun.beta", COUNT),
    ("rmstbayes.cli", "summarize", "summaries.summarize", SPAN),
    ("rmstbayes.simulation", "summarize", "summaries.summarize", SPAN),
    ("rmstbayes.summaries", "summarize", "summaries.summarize", SPAN),
    ("rmstbayes.summaries", "kde_mode", "summaries.kde_mode", SPAN),
    ("rmstbayes.model_selection", "waic", "model_selection.waic", SPAN),
    ("rmstbayes.model_selection", "pointwise_matrix", "model_selection.pointwise", SPAN),
    ("rmstbayes.simulation", "generate_scenario", "simulation.generate", SPAN),
)


def _attributes(name, args):
    if name == "sampler.run_chains":
        cfg = args[2]
        return {"sweeps": cfg.chains * cfg.iterations}
    if name == "rmst.distribution":
        return {"draws": args[0].n_chains * args[0].n_kept}
    return None


@contextmanager
def patched(module: str, attribute: str, make_wrapper):
    """Replace ``module.attribute`` by ``make_wrapper(original)`` for the block."""
    mod = importlib.import_module(module)
    original = getattr(mod, attribute)
    setattr(mod, attribute, make_wrapper(original))
    try:
        yield
    finally:
        setattr(mod, attribute, original)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}          # op -> {layer: [calls, seconds]}
        self._stack = []
        self._ids = itertools.count(1)
        self._op = None
        self._op_counts = None

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self._op, sid, parent, name, start, end,
                                   _attributes(name, args)))
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record = self._op_counts[name]
                record[0] += 1
                record[1] += perf_counter() - start
        return wrapper

    @contextmanager
    def op(self, index: int, name: str):
        """Wrap every layer of ``LAYERS`` and record the block as the root
        span of one operation."""
        self._op = index
        self._op_counts = self.counts[index] = {
            layer: [0, 0.0] for _, _, layer, kind in LAYERS if kind == COUNT}
        sid = next(self._ids)
        with ExitStack() as stack:
            for module, attribute, layer, kind in LAYERS:
                make = self._span if kind == SPAN else self._count
                stack.enter_context(patched(module, attribute,
                                            lambda fn, n=layer, m=make: m(n, fn)))
            self._stack.append(sid)
            start = perf_counter()
            try:
                yield
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((index, sid, None, name, start, end, None))

    def totals(self, index: int) -> dict:
        """Busy seconds, calls and attribute sums per layer for one op."""
        spans = [s for s in self.spans if s[0] == index]
        root = next(s for s in spans if s[2] is None)
        out = {"op_s": root[5] - root[4],
               "children_s": sum(s[5] - s[4] for s in spans if s[2] == root[1])}
        for _, _, parent, name, start, end, attrs in spans:
            if parent is None:
                continue
            out[name + "_s"] = out.get(name + "_s", 0.0) + end - start
            out[name + "_calls"] = out.get(name + "_calls", 0) + 1
            for key, value in (attrs or {}).items():
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        for name, (calls, seconds) in self.counts[index].items():
            out[name + "_calls"] = calls
            out[name + "_s"] = seconds
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")
            for op, counts in self.counts.items():
                for name, (calls, seconds) in counts.items():
                    fh.write(json.dumps({"op": op, "counter": name, "calls": calls,
                                         "seconds": seconds}) + "\n")
