"""MCMC sampler determinism, correctness on conjugate targets, and the
split-Rhat / effective-sample-size diagnostics."""

import math
import warnings

import numpy as np
import pytest

from rmstbayes.families import EffectKind, Family
from rmstbayes.inference import ModelSpec, ParamLayout, SurvivalDataset
from rmstbayes.sampler import (PosteriorDraws, SamplerConfig,
                               effective_sample_size, run_chains, split_rhat)


def _exp_data(n=200, seed=4, lam=math.exp(-4.5)):
    rng = np.random.default_rng(seed)
    t = rng.exponential(1.0 / lam, n)
    return SurvivalDataset(t, np.ones(n, dtype=int), np.ones((n, 1)),
                           np.ones(n, dtype=int), ("intercept",))


def _synthetic_draws(series_by_chain, column="x"):
    """Wrap raw (chains, n) values as PosteriorDraws for diagnostics tests."""
    arr = np.asarray(series_by_chain, dtype=float)[:, :, None]
    layout = ParamLayout(q=1, has_shape=False, effect=EffectKind.NONE, n_clusters=0)
    return PosteriorDraws(values=arr, columns=(column,), layout=layout,
                          spec=ModelSpec(Family.EXPONENTIAL), acceptance={},
                          config=SamplerConfig(chains=arr.shape[0],
                                               iterations=arr.shape[1] + 1,
                                               burnin=1))


# --------------------------------------------------------------- sampler ---

def test_same_seed_is_bit_identical():
    data = _exp_data()
    spec = ModelSpec(Family.EXPONENTIAL)
    cfg = SamplerConfig(chains=2, iterations=300, burnin=150, seed=42)
    d1 = run_chains(data, spec, cfg)
    d2 = run_chains(data, spec, cfg)
    assert np.array_equal(d1.values, d2.values)


def test_distinct_seeds_differ():
    data = _exp_data()
    spec = ModelSpec(Family.EXPONENTIAL)
    d1 = run_chains(data, spec, SamplerConfig(chains=1, iterations=200, burnin=100, seed=1))
    d2 = run_chains(data, spec, SamplerConfig(chains=1, iterations=200, burnin=100, seed=2))
    assert not np.array_equal(d1.values, d2.values)


def test_zero_iterations_rejected():
    with pytest.raises(ValueError):
        SamplerConfig(iterations=0, burnin=0)
    with pytest.raises(ValueError):
        SamplerConfig(iterations=100, burnin=100)


def test_posterior_mean_recovers_truth():
    # n=1000 exponential data with beta = (-4.5, 0.5)
    rng = np.random.default_rng(8)
    n = 1000
    x1 = (np.arange(n) % 2).astype(float)
    lam = np.exp(-4.5 + 0.5 * x1)
    t = rng.exponential(1.0 / lam)
    data = SurvivalDataset(t, np.ones(n, dtype=int),
                           np.column_stack([np.ones(n), x1]), np.ones(n, dtype=int),
                           ("intercept", "group"))
    draws = run_chains(data, ModelSpec(Family.EXPONENTIAL),
                       SamplerConfig(chains=2, iterations=2000, burnin=1000, seed=3))
    flat = draws.flat()
    for j, truth in enumerate((-4.5, 0.5)):
        mean, sd = flat[:, j].mean(), flat[:, j].std(ddof=1)
        assert abs(mean - truth) < 3 * sd + 3 / math.sqrt(n)


def test_sampled_rate_matches_conjugate_gamma_posterior():
    # intercept-only exponential with a near-flat prior on beta0: the implied
    # posterior of lam = exp(beta0) is Gamma(sum delta, sum t)
    data = _exp_data(n=150, seed=12)
    spec = ModelSpec(Family.EXPONENTIAL, coef_prior_variance=1e10)
    draws = run_chains(data, spec,
                       SamplerConfig(chains=4, iterations=4000, burnin=1000, seed=5))
    lam = np.exp(draws.flat()[:, 0])
    d, total = data.event.sum(), data.time.sum()
    ref_mean, ref_var = d / total, d / total ** 2
    ess = effective_sample_size(draws, 0)
    mc_se = math.sqrt(ref_var / max(ess, 10.0))
    assert abs(lam.mean() - ref_mean) < 3 * mc_se
    assert abs(lam.var(ddof=1) - ref_var) < 0.3 * ref_var


def test_acceptance_rates_reasonable_after_adaptation(exp_fit_small):
    _, _, draws = exp_fit_small
    for name, rates in draws.acceptance.items():
        for r in rates:
            assert 0.1 <= r <= 0.6, (name, rates)


def test_natural_scale_positivity():
    data = _exp_data(n=60, seed=2)
    data = SurvivalDataset(data.time, data.event, data.x,
                           np.tile([1, 2], 30), ("intercept",))
    spec = ModelSpec(Family.WEIBULL, EffectKind.FRAILTY)
    draws = run_chains(data, spec, SamplerConfig(chains=1, iterations=200, burnin=100, seed=0))
    assert tuple(draws.columns) == ("intercept", "k", "v[1]", "v[2]", "phi")
    for col in ("k", "v[1]", "v[2]", "phi"):
        assert np.all(draws.column(col) > 0)


def _sweep_calls(monkeypatch, n_clusters, iterations):
    """Calls of the sampler's log-density entry points in a two-chain
    Weibull random-effects fit, with the event order of every call."""
    import rmstbayes.inference as inference
    import rmstbayes.sampler as sampler

    events = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("log_posterior", "cluster_log_density", "log_prior"):
        counted(sampler, name)
    counted(inference, "pointwise_log_likelihood")  # one likelihood pass each
    n = 96
    data = SurvivalDataset(np.random.default_rng(3).weibull(1.5, n) * 40.0,
                           np.ones(n, dtype=int), np.ones((n, 1)),
                           np.arange(n) % n_clusters + 1, ("intercept",))
    draws = run_chains(data, ModelSpec(Family.WEIBULL, EffectKind.RANDOM),
                       SamplerConfig(chains=2, iterations=iterations, burnin=10, seed=4))
    monkeypatch.undo()
    return events, draws


@pytest.mark.parametrize("n_clusters", [4, 16])
def test_sweep_cost_does_not_grow_with_clusters(monkeypatch, n_clusters):
    short, _ = _sweep_calls(monkeypatch, n_clusters, 20)
    events, draws = _sweep_calls(monkeypatch, n_clusters, 40)
    # Same seed, so the longer run repeats the shorter one and adds 2 x 20
    # sweeps.
    per_sweep = {name: (events.count(name) - short.count(name)) / 40
                 for name in set(events)}
    beta_updates = SamplerConfig().beta_updates
    assert per_sweep == {"log_posterior": beta_updates + 1,   # beta, shape
                         "cluster_log_density": 2,             # all M effects
                         "log_prior": 2,                       # phi
                         "pointwise_log_likelihood": beta_updates + 3}
    # Every likelihood pass comes straight from a log_posterior or
    # cluster_log_density call: the phi step's log_prior calls make none.
    for before, event in zip(events, events[1:]):
        if event == "pointwise_log_likelihood":
            assert before in ("log_posterior", "cluster_log_density")
    names = ["beta", "shape", *(f"effect[{i}]" for i in range(1, n_clusters + 1)), "phi"]
    assert list(draws.acceptance) == names
    assert all(len(rates) == 2 for rates in draws.acceptance.values())


def test_initialization_failure_is_explicit():
    data = _exp_data(n=30)
    # phi prior upper bound far below the phi = xi/2 init is fine; instead make
    # initialization impossible via an absurd uniform bound on sigma^2
    spec = ModelSpec(Family.LOG_NORMAL, sigma2_upper=1e-12)
    with pytest.raises(RuntimeError):
        run_chains(data, spec, SamplerConfig(chains=1, iterations=50, burnin=10, seed=0))


# ----------------------------------------------------------------- rhat ---

def test_rhat_constant_chains_is_one_by_convention():
    draws = _synthetic_draws(np.ones((2, 200)))
    assert split_rhat(draws, 0) == 1.0


def test_rhat_well_mixed_chains_near_one():
    rng = np.random.default_rng(0)
    draws = _synthetic_draws(rng.normal(0, 1, (2, 500)))
    assert split_rhat(draws, 0) < 1.05


def test_rhat_offset_chains_is_large():
    rng = np.random.default_rng(1)
    a = rng.normal(0, 1, 400)
    b = rng.normal(10, 1, 400)
    draws = _synthetic_draws(np.stack([a, b]))
    assert split_rhat(draws, 0) > 1.5


def test_rhat_detects_within_chain_trend():
    # split halves expose a drifting chain even with a single chain
    trend = np.linspace(0, 5, 400) + np.random.default_rng(2).normal(0, 0.1, 400)
    draws = _synthetic_draws(trend[None, :])
    assert split_rhat(draws, 0) > 1.5


def test_rhat_requires_enough_draws():
    draws = _synthetic_draws(np.random.default_rng(0).normal(size=(1, 20)))
    with pytest.raises(ValueError):
        split_rhat(draws, 0)


# ------------------------------------------------------------------ ess ---

def test_ess_white_noise_close_to_sample_size():
    rng = np.random.default_rng(3)
    n = 1000
    draws = _synthetic_draws(rng.normal(0, 1, (2, n)))
    ess = effective_sample_size(draws, 0)
    assert 0.5 * 2 * n <= ess <= 1.5 * 2 * n


def test_ess_ar1_matches_analytic_rate():
    rho = 0.9
    rng = np.random.default_rng(4)
    n = 20000
    x = np.empty(n)
    x[0] = rng.normal()
    eps = rng.normal(0, math.sqrt(1 - rho ** 2), n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    draws = _synthetic_draws(x[None, :])
    ess = effective_sample_size(draws, 0)
    expected = n * (1 - rho) / (1 + rho)
    assert expected / 2 <= ess <= expected * 2


def test_ess_constant_chain_is_zero_with_warning():
    draws = _synthetic_draws(np.ones((2, 200)))
    with pytest.warns(RuntimeWarning):
        assert effective_sample_size(draws, 0) == 0.0


def test_ess_requires_enough_draws():
    draws = _synthetic_draws(np.random.default_rng(0).normal(size=(2, 20)))
    with pytest.raises(ValueError):
        effective_sample_size(draws, 0)


def test_column_lookup_by_name_and_index(exp_fit_small):
    _, _, draws = exp_fit_small
    assert split_rhat(draws, "intercept") == split_rhat(draws, 0)
    with pytest.raises(KeyError):
        draws.column_index("nope")
