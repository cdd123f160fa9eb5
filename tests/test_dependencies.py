"""The runtime depends on numpy only: importing the package, running short
Weibull and log-normal fits, the posterior RMST and log-logistic RMSTs must
not load scipy or mpmath (both are test-only dependencies).  The package root and
``rmstbayes.inference`` export pinned lists of names, and the options the
root's dataclasses and functions take are pinned too."""

import dataclasses
import inspect
import os
import subprocess
import sys
import types

import rmstbayes
import rmstbayes.inference

SCRIPT = """
import sys
import numpy as np
import rmstbayes
from rmstbayes import (ModelSpec, SamplerConfig, ScenarioConfig, generate_scenario,
                       rmst_difference, run_chains)
cfg = SamplerConfig(chains=1, iterations=40, burnin=20, seed=1)
run_chains(generate_scenario(ScenarioConfig("C", n=64), 0), ModelSpec("weibull", "random"), cfg)
draws = run_chains(generate_scenario(ScenarioConfig("B", n=64), 0),
                   ModelSpec("lognormal", "random"), cfg)
rmst_difference(draws, 100.0)
# log-logistic shapes on both sides of 1: the beta's second argument of either sign
rmstbayes.rmst_value(rmstbayes.FamilyParams.loglogistic(-5.0, np.array([0.7, 1.6])),
                     rmstbayes.NO_EFFECT, 100.0)
print(sorted(m for m in ("scipy", "mpmath") if m in sys.modules))
"""


def test_import_and_fit_load_neither_scipy_nor_mpmath():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


ROOT_NAMES = [
    "DataError", "EffectKind", "EffectValue", "Family", "FamilyParams", "ModelSpec",
    "NO_EFFECT", "PosteriorDraws", "RmstSampleVector", "RmstSummary",
    "SamplerConfig", "ScenarioConfig", "SimMetrics", "SurvivalDataset", "WaicResult",
    "effective_sample_size", "evaluate_replications", "frailty",
    "generate_scenario", "histogram_bins", "ingest_csv", "random_offset",
    "rmst_difference", "rmst_distribution", "rmst_numeric", "rmst_value", "run_chains",
    "scenario_truth", "split_rhat", "summarize", "waic", "write_csv",
]


def test_package_root_names_are_pinned():
    # the public surface grows or shrinks only by editing this list
    names = [name for name, value in vars(rmstbayes).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == sorted(ROOT_NAMES)


# The public names that rmstbayes.inference defines (not those it imports).
INFERENCE_NAMES = [
    "Model", "ModelSpec", "ParamLayout", "SurvivalDataset", "effect_log_prior",
    "log_posterior", "log_prior", "pointwise_log_likelihood",
]


def test_inference_names_are_pinned():
    module = rmstbayes.inference
    names = [name for name, value in vars(module).items()
             if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__]
    assert sorted(names) == sorted(INFERENCE_NAMES)


# Field names of each root-exported dataclass, and parameter names with their
# defaults of each root-exported function.
OPTIONS = [
    "EffectValue(kind, value)",
    "FamilyParams(family, lam, k, mu, sigma2)",
    "ModelSpec(family, effect)",
    "PosteriorDraws(values, columns, layout, spec, acceptance, config)",
    "RmstSampleVector(values)",
    "RmstSummary(mean, median, mode, sd, ci_level, ci_low, ci_high, exceedance)",
    "SamplerConfig(chains, iterations, burnin, seed)",
    "ScenarioConfig(scenario, n, beta, random_effect_variance, censor_prob, tau, "
    "replications, seed)",
    "SimMetrics(bias, mse, mode_diff, median_diff, truth, replications, failures)",
    "SurvivalDataset(time, event, x, cluster, column_names)",
    "WaicResult(lppd, p_waic, pointwise_lppd, pointwise_p)",
    "effective_sample_size(draws, column)",
    "evaluate_replications(cfg, spec, sampler_cfg)",
    "frailty(v)",
    "generate_scenario(cfg, replicate=0)",
    "histogram_bins(v)",
    "ingest_csv(path, time_col='time', event_col='event', cluster_col='cluster', "
    "group_col='group', covariate_cols=None)",
    "random_offset(u)",
    "rmst_difference(draws, tau, cluster=None, covariates=())",
    "rmst_distribution(draws, tau, x1, cluster=None, covariates=())",
    "rmst_numeric(p, e, tau)",
    "rmst_value(p, e, tau)",
    "run_chains(data, spec, cfg)",
    "scenario_truth(cfg)",
    "split_rhat(draws, column)",
    "summarize(v, level=0.95, thresholds=())",
    "waic(data, spec, draws)",
    "write_csv(data, path)",
]


def test_settable_options_are_pinned():
    # a new option, or a new default, is a visible edit of this list
    got = []
    for name, value in sorted(vars(rmstbayes).items()):
        if isinstance(value, type) and dataclasses.is_dataclass(value):
            params = [f.name for f in dataclasses.fields(value)]
        elif inspect.isfunction(value):
            params = [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                      for p in inspect.signature(value).parameters.values()]
        else:
            continue
        got.append(f"{name}({', '.join(params)})")
    assert got == OPTIONS
