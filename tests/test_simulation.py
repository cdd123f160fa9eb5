"""Scenario generators, closed-form truths, and the replication harness."""

import math

import numpy as np
import pytest

from rmstbayes.families import EffectKind, Family, FamilyParams, NO_EFFECT
from rmstbayes.inference import ModelSpec
from rmstbayes.rmst import rmst_numeric
from rmstbayes.sampler import SamplerConfig
from rmstbayes.simulation import (ScenarioConfig, SimMetrics,
                                  evaluate_replications, generate_scenario,
                                  scenario_truth)
from tests.conftest import log_h_s


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig("D")
    with pytest.raises(ValueError):
        ScenarioConfig("A", n=100)  # not divisible by 2 * clusters
    with pytest.raises(ValueError):
        ScenarioConfig("A", censor_prob=1.5)
    # a run without data would sample only the prior
    for n in (0, -8):
        with pytest.raises(ValueError, match="n must be at least 8"):
            ScenarioConfig("C", n=n)
    with pytest.raises(ValueError, match="replications must be at least 1"):
        ScenarioConfig("C", replications=0)
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        ScenarioConfig("C", seed=-1)
    for beta in ((1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (1.0, math.nan, 0.0), (1.0, 0.0, math.inf)):
        with pytest.raises(ValueError, match="beta must be three finite numbers"):
            ScenarioConfig("C", beta=beta)
    for variance in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="random_effect_variance must be finite and at least 0"):
            ScenarioConfig("C", random_effect_variance=variance)
    for tau in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ScenarioConfig("C", tau=tau)
    assert ScenarioConfig("C", random_effect_variance=0.0).random_effect_variance == 0.0


def test_generator_is_deterministic():
    cfg = ScenarioConfig("B", n=64)
    d1 = generate_scenario(cfg, 3)
    d2 = generate_scenario(cfg, 3)
    assert np.array_equal(d1.time, d2.time) and np.array_equal(d1.x, d2.x)
    d3 = generate_scenario(cfg, 4)
    assert not np.array_equal(d1.time, d3.time)


def test_generated_structure_is_balanced():
    cfg = ScenarioConfig("C", n=64)
    d = generate_scenario(cfg, 0)
    assert d.n == 64 and d.q == 3 and d.n_clusters == 4
    for i in range(1, 5):
        sel = d.cluster == i
        assert sel.sum() == 16
        assert d.x[sel, 1].sum() == 8  # half treated per cluster
    assert np.all(d.time <= 100.0)  # the administrative cap
    assert np.all(d.event[d.time == 100.0] == 0)


def test_truths_match_reference_triples():
    for sc, triple in (("A", (87.99, 82.69, -5.30)),
                       ("B", (29.51, 19.14, -10.37)),
                       ("C", (60.37, 45.85, -14.52))):
        got = scenario_truth(ScenarioConfig(sc))
        for g, t in zip(got, triple):
            assert abs(g - t) <= 0.01, (sc, got)


def test_truths_equal_quadrature_on_same_parameters():
    for sc in ("A", "B", "C"):
        cfg = ScenarioConfig(sc)
        g0, g1, diff = scenario_truth(cfg)
        b0, b1, _ = cfg.beta
        for x1, val in ((0.0, g0), (1.0, g1)):
            lin = b0 + b1 * x1
            if sc == "A":
                p = FamilyParams.loglogistic(cfg.shape * -lin, cfg.shape)
            elif sc == "B":
                p = FamilyParams.lognormal(lin, cfg.shape)
            else:
                p = FamilyParams.exponential(math.exp(lin))
            assert abs(val - rmst_numeric(p, NO_EFFECT, cfg.tau)) / val < 1e-8


@pytest.mark.parametrize("sc", ["B", "C"])
def test_large_sample_restricted_means_at_reference_covariates(sc):
    cfg0 = ScenarioConfig(sc)
    beta = (cfg0.beta[0], cfg0.beta[1], 0.0)
    cfg = ScenarioConfig(sc, n=100000, beta=beta, random_effect_variance=0.0,
                         censor_prob=0.0)
    d = generate_scenario(cfg, 0)
    g = d.x[:, 1]
    truth = scenario_truth(cfg)
    assert abs(d.time[g == 0].mean() - truth[0]) <= 0.2
    assert abs(d.time[g == 1].mean() - truth[1]) <= 0.2


@pytest.mark.parametrize("sc", ["A", "B", "C"])
def test_inverse_cdf_survival_fractions(sc):
    # with the covariate and cluster noise switched off, the empirical
    # survival fraction at several times must match the analytic survival
    cfg0 = ScenarioConfig(sc)
    beta = (cfg0.beta[0], cfg0.beta[1], 0.0)
    cfg = ScenarioConfig(sc, n=100000, beta=beta, random_effect_variance=0.0,
                         censor_prob=0.0)
    d = generate_scenario(cfg, 1)
    for x1 in (0.0, 1.0):
        lin = cfg.beta[0] + cfg.beta[1] * x1
        if sc == "A":
            p = FamilyParams.loglogistic(cfg.shape * -lin, cfg.shape)
        elif sc == "B":
            p = FamilyParams.lognormal(lin, cfg.shape)
        else:
            p = FamilyParams.exponential(math.exp(lin))
        sel = d.x[:, 1] == x1
        n = sel.sum()
        for t in (10.0, 25.0, 50.0):
            s = math.exp(log_h_s(p, NO_EFFECT, t)[1])
            emp = float((d.time[sel] > t).mean())
            se = math.sqrt(s * (1 - s) / n)
            assert abs(emp - s) <= 3 * se + 1e-4, (sc, x1, t, emp, s)


def test_censoring_fractions_reported_separately():
    cfg = ScenarioConfig("C", n=100000)
    d = generate_scenario(cfg, 0)
    capped = d.time == 100.0  # the administrative cap
    informative = (d.event == 0) & ~capped
    # Bernoulli(0.1) censoring applies before the administrative cap, so the
    # non-capped censor fraction is slightly below 0.1
    assert 0.07 <= informative.mean() <= 0.105
    assert (informative.mean() + capped.mean()) == (d.event == 0).mean()
    assert capped.mean() > 0.0


def test_sim_metrics_variance_inequality():
    with pytest.raises(ValueError):
        SimMetrics(bias=2.0, mse=1.0, mode_diff=0.0, median_diff=0.0,
                   truth=0.0, replications=5)
    m = SimMetrics(bias=1.0, mse=1.5, mode_diff=0.1, median_diff=0.1,
                   truth=-14.52, replications=5)
    assert m.mse >= m.bias ** 2


def test_evaluate_replications_small_run():
    cfg = ScenarioConfig("C", n=64, replications=2, seed=1)
    metrics = evaluate_replications(cfg, ModelSpec(Family.EXPONENTIAL),
                                    SamplerConfig(chains=2, iterations=400,
                                                  burnin=200, seed=0))
    assert metrics.replications == 2 and metrics.failures == 0
    assert abs(metrics.truth + 14.52) <= 0.01
    assert abs(metrics.bias) < 15.0  # n=64 is noisy; sanity bound only
    assert metrics.mse >= metrics.bias ** 2 - 1e-9


def test_replication_metrics_deterministic():
    cfg = ScenarioConfig("C", n=64, replications=2, seed=1)
    spec = ModelSpec(Family.EXPONENTIAL)
    scfg = SamplerConfig(chains=1, iterations=300, burnin=150, seed=0)
    a = evaluate_replications(cfg, spec, scfg)
    b = evaluate_replications(cfg, spec, scfg)
    assert a == b
