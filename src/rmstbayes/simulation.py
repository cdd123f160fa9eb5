"""Synthetic clustered survival-data generators and the replication harness.

Three generators, all with four clusters, a balanced binary group indicator,
a standard-normal covariate x2, and cluster offsets u_i ~ N(0, 0.1):

* A: log-logistic, S(t) = 1 / (1 + (e^m t)^k) with k = 2 and
     m = -(b0 + b1*x1 + b2*x2 + u); the kernel's eta is mu = k*m.
* B: log-normal, log T ~ N(eta, sigma^2), eta = b0 + b1*x1 + b2*x2 + u, sigma^2 = 1.
* C: exponential with rate exp(eta), eta = b0 + b1*x1 + b2*x2 + u.

Each subject is independently censored with probability ``censor_prob`` at a
U(0, T) time, then every time above the administrative cap of 100 is
truncated to the cap and censored.

Note on Scenario A's treatment coefficient: the default is -0.24, the value
whose closed-form group RMSTs at tau=100 are (87.99, 82.69, diff -5.30);
see scenario_truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .families import Family, _finite
from .inference import ModelSpec, SurvivalDataset
from .rmst import rmst_closed_form, rmst_difference
from .sampler import SamplerConfig, run_chains
from .summaries import summarize


@dataclass(frozen=True)
class _Scenario:
    family: Family
    beta: tuple   # default (b0, b1, b2)
    shape: float | None   # log-logistic k (A) or log-normal sigma^2 (B)


_CAP = 100.0   # administrative censoring time
_CLUSTERS = 4  # clusters in every scenario
_SCENARIOS = {
    "A": _Scenario(Family.LOG_LOGISTIC, (5.0, -0.24, 1.0), shape=2.0),
    "B": _Scenario(Family.LOG_NORMAL, (3.0, -0.5, 1.0), shape=1.0),
    "C": _Scenario(Family.EXPONENTIAL, (-4.5, 0.5, 1.0), shape=None),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's run settings; its family and shape are fixed by the
    scenario (see _SCENARIOS), and ``beta`` defaults to it.  ``n`` is a
    positive multiple of 2 * _CLUSTERS, ``replications`` >= 1, ``seed`` >= 0;
    ``beta`` is three finite numbers, the effect variance finite, >= 0, ``tau`` finite, > 0."""

    scenario: str
    n: int = 512
    beta: tuple = ()
    random_effect_variance: float = 0.1
    censor_prob: float = 0.1
    tau: float = 100.0
    replications: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose A, B, or C")
        if not self.beta:
            object.__setattr__(self, "beta", _SCENARIOS[self.scenario].beta)
        if len(self.beta) != 3 or not _finite(self.beta):
            raise ValueError(f"beta must be three finite numbers, got {self.beta}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.random_effect_variance < math.inf:
            raise ValueError("random_effect_variance must be finite and at least 0, "
                             f"got {self.random_effect_variance}")
        if self.n < 2 * _CLUSTERS:
            raise ValueError(f"n must be at least {2 * _CLUSTERS} (2 * clusters), got {self.n}")
        if self.n % (2 * _CLUSTERS) != 0:
            raise ValueError("n must be divisible by 2 * clusters for balance")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if not 0.0 <= self.censor_prob <= 1.0:
            raise ValueError("censor_prob must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")

    @property
    def family(self) -> Family:
        return _SCENARIOS[self.scenario].family

    @property
    def shape(self) -> float | None:
        return _SCENARIOS[self.scenario].shape


def generate_scenario(cfg: ScenarioConfig, replicate: int = 0) -> SurvivalDataset:
    """One seeded replicate dataset; deterministic in (cfg, replicate)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, replicate])))
    per_cell = cfg.n // (2 * _CLUSTERS)
    cluster = np.repeat(np.arange(1, _CLUSTERS + 1), 2 * per_cell)
    x1 = np.tile(np.repeat([0, 1], per_cell), _CLUSTERS).astype(float)
    x2 = rng.standard_normal(cfg.n)
    u_cluster = rng.normal(0.0, math.sqrt(cfg.random_effect_variance), size=_CLUSTERS)
    b0, b1, b2 = cfg.beta
    lin = b0 + b1 * x1 + b2 * x2 + u_cluster[cluster - 1]

    if cfg.scenario == "A":
        quant = rng.random(cfg.n)
        # inverse CDF of S(t) = 1/(1 + (e^m t)^k) with m = -lin
        t = np.exp(lin) * (1.0 / quant - 1.0) ** (1.0 / cfg.shape)
    elif cfg.scenario == "B":
        t = np.exp(rng.normal(lin, math.sqrt(cfg.shape)))
    else:
        t = rng.exponential(1.0 / np.exp(lin))  # rate exp(lin)

    event = np.ones(cfg.n, dtype=int)
    censored = rng.random(cfg.n) < cfg.censor_prob
    censor_times = rng.random(cfg.n) * t
    t = np.where(censored, censor_times, t)
    event = np.where(censored, 0, event)
    over_cap = t > _CAP
    t = np.where(over_cap, _CAP, t)
    event = np.where(over_cap, 0, event)

    x = np.column_stack([np.ones(cfg.n), x1, x2])
    return SurvivalDataset(time=t, event=event, x=x, cluster=cluster,
                           column_names=("intercept", "group", "x2"))


def scenario_truth(cfg: ScenarioConfig) -> tuple:
    """Closed-form (group0, group1, difference) RMSTs at x2 = 0, u = 0."""
    b0, b1, _ = cfg.beta
    # the linear predictor is the kernel's eta, except in A (mu = -k lin)
    scale = -cfg.shape if cfg.scenario == "A" else 1.0
    g0, g1 = (rmst_closed_form(cfg.family, scale * (b0 + b1 * x1), cfg.shape, cfg.tau)
              for x1 in (0.0, 1.0))
    return g0, g1, g1 - g0


@dataclass(frozen=True)
class SimMetrics:
    """Replication-averaged accuracy of the posterior RMST difference."""

    bias: float
    mse: float
    mode_diff: float
    median_diff: float
    truth: float
    replications: int
    failures: int = 0

    def __post_init__(self):
        if self.replications > 0 and self.mse < self.bias ** 2 - 1e-9:
            raise ValueError("mse must be >= bias^2 over replications")


def evaluate_replications(cfg: ScenarioConfig, spec: ModelSpec,
                          sampler_cfg: SamplerConfig) -> SimMetrics:
    """Fit each replicate by MCMC and score the RMST-difference posterior."""
    _, _, truth = scenario_truth(cfg)
    means, modes, medians = [], [], []
    failures = 0
    for rep in range(cfg.replications):
        data = generate_scenario(cfg, rep)
        rep_cfg = replace(sampler_cfg, seed=sampler_cfg.seed + rep)
        try:
            draws = run_chains(data, spec, rep_cfg)
            _, _, diff = rmst_difference(draws, cfg.tau)
        except (RuntimeError, ValueError):
            failures += 1
            continue
        s = summarize(diff.values, level=0.95)
        means.append(s.mean)
        modes.append(s.mode)
        medians.append(s.median)
    if not means:
        raise RuntimeError("all replications failed")
    means = np.asarray(means)
    return SimMetrics(
        bias=float(np.mean(means - truth)),
        mse=float(np.mean((means - truth) ** 2)),
        mode_diff=float(np.mean(np.asarray(modes) - truth)),
        median_diff=float(np.mean(np.asarray(medians) - truth)),
        truth=truth,
        replications=len(means),
        failures=failures,
    )
