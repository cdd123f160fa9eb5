"""MCMC sampler determinism, correctness on conjugate targets, and the
split-Rhat / effective-sample-size diagnostics."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from rmstbayes.families import EffectKind, Family
from rmstbayes.inference import ModelSpec, ParamLayout, SurvivalDataset
from rmstbayes.sampler import (PosteriorDraws, SamplerConfig,
                               effective_sample_size, run_chains, split_rhat)
from rmstbayes.simulation import ScenarioConfig, generate_scenario


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


def test_negative_seed_rejected():
    # SeedSequence refuses it, but only once sampling starts
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SamplerConfig(seed=-1)
    assert SamplerConfig(seed=0).seed == 0


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


def test_sampled_rate_matches_conjugate_gamma_posterior(monkeypatch):
    # intercept-only exponential with a near-flat prior on beta0: the implied
    # posterior of lam = exp(beta0) is Gamma(sum delta, sum t)
    import rmstbayes.inference as inference
    monkeypatch.setattr(inference, "_COEF_PRIOR_VARIANCE", 1e10)
    data = _exp_data(n=150, seed=12)
    spec = ModelSpec(Family.EXPONENTIAL)
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


def _sweep_calls(monkeypatch, family, n_clusters, iterations, chains):
    """Calls of the sampler's log-density entry points in a random-effects
    fit, in order, with a "pass" event for every likelihood pass (a call of
    the likelihood kernel) and an "effect_log_prior" event for every
    evaluation of the effects' prior, whoever makes them."""
    import rmstbayes.inference as inference
    import rmstbayes.sampler as sampler

    events = []

    def counted(module, name, event):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("log_posterior", "log_prior"):
        counted(sampler, name, name)
    counted(sampler, "pointwise_log_likelihood", "effect_pass")
    counted(inference, "log_hazard_survival", "pass")
    for module in (sampler, inference):
        counted(module, "effect_log_prior", "effect_log_prior")
    n = 96
    data = SurvivalDataset(np.random.default_rng(3).weibull(1.5, n) * 40.0,
                           np.ones(n, dtype=int), np.ones((n, 1)),
                           np.arange(n) % n_clusters + 1, ("intercept",))
    draws = run_chains(data, ModelSpec(family, EffectKind.RANDOM),
                       SamplerConfig(chains=chains, iterations=iterations, burnin=10, seed=4))
    monkeypatch.undo()
    return events, draws


@pytest.mark.parametrize("n_clusters", [4, 16])
def test_sweep_cost_does_not_grow_with_clusters(monkeypatch, n_clusters):
    # A sweep moves every chain once; each step is one block call for all
    # chains, so the counts per sweep depend on neither M nor the chains.
    from rmstbayes.sampler import _BETA_UPDATES as beta_updates
    for family in (Family.WEIBULL, Family.EXPONENTIAL):
        has_shape = family is not Family.EXPONENTIAL
        for chains in (1, 2):
            short, _ = _sweep_calls(monkeypatch, family, n_clusters, 20, chains)
            events, draws = _sweep_calls(monkeypatch, family, n_clusters, 40, chains)
            # Same seed, so the longer run repeats the shorter one and adds
            # 20 sweeps.
            per_sweep = {name: (events.count(name) - short.count(name)) / 20
                         for name in set(events)}
            assert per_sweep == {
                "log_posterior": beta_updates + has_shape,  # beta, shape
                "effect_pass": 1,                          # all M effects
                "pass": beta_updates + has_shape + 1,
                "effect_log_prior": 2,                     # effect and phi proposals
                "log_prior": 2 * chains,                   # phi, chain by chain
            }, (family, chains)
            # Every likelihood pass comes straight from a log_posterior call
            # or from the effect step's one pass at its proposal: the phi
            # step's log_prior calls make none.
            calls = [event for event in events if event != "effect_log_prior"]
            for before, event in zip(calls, calls[1:]):
                if event == "pass":
                    assert before in ("log_posterior", "effect_pass")
            names = ["beta", *(["shape"] if has_shape else []),
                     *(f"effect[{i}]" for i in range(1, n_clusters + 1)), "phi"]
            assert list(draws.acceptance) == names
            assert all(len(rates) == chains for rates in draws.acceptance.values())


@pytest.mark.parametrize("family, effect", [(Family.LOG_NORMAL, EffectKind.RANDOM),
                                            (Family.WEIBULL, EffectKind.FRAILTY)])
def test_chains_run_in_lockstep_as_if_alone(family, effect):
    # each chain draws from its own stream: a third chain run beside them
    # leaves the first two chains' kept draws and acceptance rates unchanged
    data = generate_scenario(ScenarioConfig("B", n=96), 1)
    runs = [run_chains(data, ModelSpec(family, effect),
                       SamplerConfig(chains=chains, iterations=160, burnin=80, seed=5))
            for chains in (2, 3)]
    assert runs[1].values[:2].tobytes() == runs[0].values.tobytes()
    for name, rates in runs[0].acceptance.items():
        assert runs[1].acceptance[name][:2] == rates
    assert not np.array_equal(runs[1].values[2], runs[1].values[0])


def test_initialization_failure_is_explicit(monkeypatch):
    import rmstbayes.sampler as sampler
    data = _exp_data(n=30)
    # a posterior that is -inf everywhere leaves no finite initial point
    monkeypatch.setattr(sampler, "log_posterior", lambda model, theta: (-math.inf, None))
    spec = ModelSpec(Family.LOG_NORMAL)
    with pytest.raises(RuntimeError, match="initial point"):
        run_chains(data, spec, SamplerConfig(chains=1, iterations=50, burnin=10, seed=0))


# SHA-256 of run_chains(...).values for every family x effect on a small
# scenario-A dataset: a change to the sampler that moves any kept draw by
# one bit fails here, so a change that keeps the Markov kernel can show it
# does, and one that changes the kernel must update these on purpose.  The
# digests depend on IEEE-754 double arithmetic and on numpy's exp/log
# rounding; they were taken with numpy 2.4 on x86-64.
KERNEL_DIGESTS = {
    ("exponential", "none"): "28a6094220ddd69b61fffd06ccbcfa1386a9058268f59787ad8c57aef403450b",
    ("exponential", "random"): "2a09d896666df5fee9f4e0e4282757d73999cb66d8b01c4d2bc8459f8d529af7",
    ("exponential", "frailty"): "8e2431409f556f685e25ea30e71133d3d55299a991e116b4ea010fd8e4d4595d",
    ("weibull", "none"): "86eaf3495fd002c72ed32ad302fac8dd3d3b46f1fa1c3ac0815209c4cdf65f1e",
    ("weibull", "random"): "89fe9c5791fd64d7b86fb78822acf8d8fb2309c030d9f92c63e3e97be7a5500f",
    ("weibull", "frailty"): "42ae1fd083d9452d2e60679db62bdb06606732de44c9b43158f537ec51feb3fa",
    ("loglogistic", "none"): "4461e0023cfd3f7994541935d62a8b7c452d4b4342ed7729c64f92d0cca563b8",
    ("loglogistic", "random"): "7611a4e67493bedb265f0c68cf3a7c6d216cdc17719eaafdceb8eaa373e0b221",
    ("loglogistic", "frailty"): "f2f639f3a24f88a4515667ed4a8f5fcc1031c69155be1cbc87df40a1cb9689dd",
    ("lognormal", "none"): "d4f62a2cc20e54c84d65d34d6209036cdc0063f11c91ec8fa0bdf4df63a51cee",
    ("lognormal", "random"): "8da7bd3c6da9a23a4739a3b83fb2bb2cf5f864eb04bb3486f0bbd1670d1ddb46",
    ("lognormal", "frailty"): "7c10f1fa639acbe37f98358284b8d2b8485466ab185002e7dbab97e571b9ec9d",
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_kept_draws_are_pinned(family, effect):
    data = generate_scenario(ScenarioConfig("A", n=64), 0)
    draws = run_chains(data, ModelSpec(family, effect),
                       SamplerConfig(chains=2, iterations=120, burnin=80, seed=7))
    digest = hashlib.sha256(draws.values.tobytes()).hexdigest()
    assert digest == KERNEL_DIGESTS[family.value, effect.value]


def _diagnostic_cases():
    """Seeded synthetic draw sets: AR(1) chains at offset means over 1-4
    chains and odd and even lengths, too-short sets that raise, a set whose
    chains are all constant and one with a single constant chain."""
    rng = np.random.default_rng(2024)
    cases = []
    for chains in (1, 2, 3, 4):
        for n in (3, 8, 49, 50, 99, 100, 101, 256, 377):
            for phi in (-0.9, -0.3, 0.0, 0.5, 0.9, 0.99, 0.999):
                x = np.empty((chains, n))
                x[:, 0] = rng.normal(size=chains)
                eps = rng.normal(size=(chains, n))
                for t in range(1, n):
                    x[:, t] = phi * x[:, t - 1] + eps[:, t]
                cases.append(x + rng.normal(0.0, 0.3, (chains, 1)))
    cases.append(np.full((2, 200), 1.5))
    one_flat = rng.normal(size=(3, 150))
    one_flat[1] = 0.25
    cases.append(one_flat)
    return cases


# SHA-256 of the repr of split_rhat and effective_sample_size (or of the
# ValueError each raises) over _diagnostic_cases(): a rewrite of the
# diagnostics that moves any value by one bit fails here.  Same IEEE-754
# and numpy caveats as KERNEL_DIGESTS (numpy's FFT rounding enters ESS).
DIAGNOSTICS_DIGEST = "1409c4d93e90845aea27efb78e0c17be164a1859de3d1ae38ded1a579cf55818"


def test_diagnostics_are_pinned():
    lines = []
    for values in _diagnostic_cases():
        draws = _synthetic_draws(values)
        for diagnostic in (split_rhat, effective_sample_size):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)  # constant chains
                    lines.append(repr(diagnostic(draws, 0)))
            except ValueError as exc:
                lines.append(f"ValueError: {exc}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DIAGNOSTICS_DIGEST


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
    # an index must lie in 0..dim-1: -1 would silently mean the last column
    dim = draws.values.shape[-1]
    assert draws.column_index(dim - 1) == dim - 1
    for index in (-1, dim):
        with pytest.raises(KeyError, match="outside"):
            split_rhat(draws, index)
    # a numpy integer is an index; a bool or a float is not one
    assert draws.column_index(np.int64(1)) == 1
    for column in (True, 1.5, 1.0):
        with pytest.raises(KeyError, match="name or an integer"):
            draws.column_index(column)
