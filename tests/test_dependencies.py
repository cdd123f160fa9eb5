"""The runtime depends on numpy only: importing the package, running short
Weibull and log-normal fits and the posterior RMST must not load scipy or
mpmath (both are test-only dependencies).  The package root exports a pinned
list of names."""

import os
import subprocess
import sys
import types

import rmstbayes

SCRIPT = """
import sys
import rmstbayes
from rmstbayes import (ModelSpec, SamplerConfig, ScenarioConfig, generate_scenario,
                       rmst_difference, run_chains)
cfg = SamplerConfig(chains=1, iterations=40, burnin=20, seed=1)
run_chains(generate_scenario(ScenarioConfig("C", n=64), 0), ModelSpec("weibull", "random"), cfg)
draws = run_chains(generate_scenario(ScenarioConfig("B", n=64), 0),
                   ModelSpec("lognormal", "random"), cfg)
rmst_difference(draws, 100.0)
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
    "NO_EFFECT", "PosteriorDraws", "RmstQuery", "RmstSampleVector", "RmstSummary",
    "SamplerConfig", "ScenarioConfig", "SimMetrics", "SurvivalDataset", "WaicResult",
    "effective_sample_size", "evaluate_replications", "forest_rows", "frailty",
    "generate_scenario", "histogram_bins", "ingest_csv", "random_offset",
    "rmst_difference", "rmst_distribution", "rmst_exponential", "rmst_loglogistic",
    "rmst_lognormal", "rmst_numeric", "rmst_value", "rmst_weibull", "run_chains",
    "scenario_truth", "split_rhat", "summarize", "waic", "write_csv",
]


def test_package_root_names_are_pinned():
    # the public surface grows or shrinks only by editing this list
    names = [name for name, value in vars(rmstbayes).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(names) == sorted(ROOT_NAMES)
