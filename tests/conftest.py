import math

import numpy as np
import pytest

from rmstbayes import (ModelSpec, SamplerConfig, ScenarioConfig,
                       generate_scenario, run_chains)
from rmstbayes.families import kernel_args, log_hazard_survival


def log_h_s(p, e, t):
    """(log h, log S) of FamilyParams p under EffectValue e at one time t,
    as floats, through the likelihood's kernel."""
    eta, shape, effect = kernel_args(p, e)
    log_h, log_s = log_hazard_survival(p.family, eta, shape, t, math.log(t), e.kind, effect)
    return float(log_h), float(log_s)


@pytest.fixture(scope="session")
def scenario_c_small():
    """One Scenario-C replicate small enough for fast fits."""
    return generate_scenario(ScenarioConfig("C", n=128), 0)


@pytest.fixture(scope="session")
def exp_fit_small(scenario_c_small):
    """A short but usable exponential fixed-effects fit."""
    spec = ModelSpec("exponential")
    cfg = SamplerConfig(chains=2, iterations=600, burnin=300, seed=7)
    return scenario_c_small, spec, run_chains(scenario_c_small, spec, cfg)


def make_weibull_dataset(n: int, k: float, seed: int, beta=(-6.0, 0.5, 0.5),
                         cap: float = 100.0, censor_prob: float = 0.1):
    """Clustered Weibull data (S = exp(-lam t^k), lam = exp(x beta))."""
    from rmstbayes import SurvivalDataset

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    x1 = (np.arange(n) % 2).astype(float)
    x2 = rng.standard_normal(n)
    lam = np.exp(beta[0] + beta[1] * x1 + beta[2] * x2)
    t = (rng.exponential(1.0, n) / lam) ** (1.0 / k)
    event = np.ones(n, dtype=int)
    censored = rng.random(n) < censor_prob
    t = np.where(censored, rng.random(n) * t, t)
    event = np.where(censored, 0, event)
    over = t > cap
    t, event = np.where(over, cap, t), np.where(over, 0, event)
    x = np.column_stack([np.ones(n), x1, x2])
    cluster = np.ones(n, dtype=int)
    return SurvivalDataset(t, event, x, cluster, ("intercept", "group", "x2"))
