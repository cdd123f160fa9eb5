"""The runtime depends on numpy only: importing the package, running short
Weibull and log-normal fits and the posterior RMST must not load scipy or
mpmath (both are test-only dependencies)."""

import os
import subprocess
import sys

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
