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


def test_sampler_steps_go_through_the_hooked_log_posterior(monkeypatch):
    # The benchmark's breaks and its log-posterior counter wrap the module
    # attribute, so a sampler that evaluated its beta and shape steps some
    # other way would silently change what the benchmark measures.
    import rmstbayes.sampler as sampler
    from rmstbayes import ModelSpec, SamplerConfig, ScenarioConfig, generate_scenario
    calls = []
    original = sampler.log_posterior

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return original(*args, **kwargs)
    monkeypatch.setattr(sampler, "log_posterior", counted)
    data = generate_scenario(ScenarioConfig("C", n=64), 0)
    iterations = 30
    sampler.run_chains(data, ModelSpec("weibull", "random"),
                       SamplerConfig(chains=2, iterations=iterations, burnin=10, seed=1))
    # one block call for both chains per beta update and per shape step,
    # after one single-draw call or more per chain for its initial point
    blocks = [shape for shape in calls if len(shape) == 2]
    assert len(blocks) == iterations * (sampler._BETA_UPDATES + 1)
    assert blocks[0][0] == 2


def test_special_function_layers_count_the_rmst_calls():
    # The benchmark counts specfun.gamma and specfun.beta at the names the
    # closed forms look them up by; each must be specfun's own function, so
    # that a count is one call the RMST really makes.
    import rmstbayes.rmst as rmst
    import rmstbayes.specfun as specfun
    layers = _layers()
    for name in ("lower_incomplete_gamma", "incomplete_beta_compl"):
        assert ("rmstbayes.rmst", name) in layers
        assert getattr(rmst, name) is getattr(specfun, name)
