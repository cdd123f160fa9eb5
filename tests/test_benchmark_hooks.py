"""The benchmark under ``perfbench/`` times the program by swapping module
attributes for wrappers, and a traced operation fails if one of them is
missing.  Every (module, attribute) it names must resolve.  The benchmark's
files are read as source, not imported."""

import ast
import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _tree(name):
    with open(os.path.join(PERFBENCH, name), encoding="utf-8") as f:
        return ast.parse(f.read())


def _layers():
    """(module, attribute) of each entry of ``tracing.LAYERS``."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


def _patched_calls(name):
    """(module, attribute) of each ``patched("module", "attribute", ...)``
    call with literal arguments in one benchmark file."""
    return [(call.args[0].value, call.args[1].value)
            for call in ast.walk(_tree(name))
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "patched"
            and all(isinstance(a, ast.Constant) for a in call.args[:2])]


def test_every_benchmark_hook_resolves():
    layers, breaks = _layers(), _patched_calls("worker.py")
    assert ("rmstbayes.model_selection", "pointwise_matrix") in layers
    assert ("rmstbayes.sampler", "log_posterior") in layers
    assert ("rmstbayes.sampler", "log_posterior") in breaks
    missing = [f"{module}.{attribute}" for module, attribute in layers + breaks
               if not callable(getattr(importlib.import_module(module), attribute, None))]
    assert missing == []
