"""WAIC arithmetic and its invariances."""

import math

import numpy as np
import pytest

from rmstbayes.families import Family
from rmstbayes.inference import ModelSpec, SurvivalDataset
from rmstbayes.model_selection import waic, waic_from_matrix
from rmstbayes.sampler import SamplerConfig, run_chains


def test_single_draw_has_zero_penalty():
    ll = np.array([[-1.0, -2.5, -0.3]])
    with pytest.warns(RuntimeWarning):  # one draw is a degenerate sample
        res = waic_from_matrix(ll)
    assert res.p_waic == 0.0
    assert math.isclose(res.waic, -2.0 * ll.sum(), rel_tol=1e-14)


def test_duplicating_draws_changes_nothing():
    rng = np.random.default_rng(0)
    ll = rng.normal(-2.0, 0.5, (50, 8))
    a = waic_from_matrix(ll)
    b = waic_from_matrix(np.vstack([ll, ll]))
    assert math.isclose(a.lppd, b.lppd, rel_tol=1e-12)
    # duplication halves the unbiased variance correction slightly
    assert abs(a.p_waic - b.p_waic) < 0.02 * abs(a.p_waic)


def test_invariant_to_draw_and_observation_reordering():
    rng = np.random.default_rng(1)
    ll = rng.normal(-2.0, 0.5, (60, 10))
    base = waic_from_matrix(ll)
    shuffled = waic_from_matrix(ll[rng.permutation(60)][:, rng.permutation(10)])
    assert math.isclose(base.waic, shuffled.waic, rel_tol=1e-12)


def test_adding_observation_copy_adds_its_pointwise_value():
    rng = np.random.default_rng(2)
    ll = rng.normal(-3.0, 0.3, (40, 5))
    base = waic_from_matrix(ll)
    extended = waic_from_matrix(np.hstack([ll, ll[:, [2]]]))
    assert math.isclose(extended.lppd - base.lppd, base.pointwise_lppd[2], rel_tol=1e-12)
    assert math.isclose(extended.p_waic - base.p_waic, base.pointwise_p[2], rel_tol=1e-12)


def test_log_sum_exp_survives_extreme_values():
    ll = np.array([[-1e6, -3.0], [-1e6 + 1.0, -3.5]])
    res = waic_from_matrix(ll)
    assert math.isfinite(res.waic) and math.isfinite(res.lppd)


def test_identity_waic_deviance_scale():
    rng = np.random.default_rng(3)
    ll = rng.normal(-2.0, 0.4, (30, 6))
    res = waic_from_matrix(ll)
    assert math.isclose(res.waic, -2.0 * (res.lppd - res.p_waic), rel_tol=1e-14)
    assert res.p_waic >= 0.0


def test_waic_needs_enough_draws(exp_fit_small):
    from dataclasses import replace
    data, spec, draws = exp_fit_small
    few = replace(draws, values=draws.values[:, :49])  # 98 kept draws
    with pytest.raises(ValueError, match="need >= 100"):
        waic(data, spec, few)
    assert math.isfinite(waic(data, spec, replace(draws, values=draws.values[:, :50])).waic)


def test_degenerate_draws_warn(exp_fit_small):
    data, spec, draws = exp_fit_small
    frozen = draws.values.copy()
    frozen[:, :, :] = frozen[:1, :1, :]
    from dataclasses import replace
    deg = replace(draws, values=frozen)
    with pytest.warns(RuntimeWarning):
        res = waic(data, spec, deg)
    assert res.p_waic == 0.0


def test_waic_prefers_true_weibull_over_exponential():
    from rmstbayes.sampler import SamplerConfig, run_chains
    from tests.conftest import make_weibull_dataset

    data = make_weibull_dataset(n=300, k=1.7, seed=21)
    cfg = SamplerConfig(chains=2, iterations=800, burnin=400, seed=9)
    res = {}
    for fam in (Family.WEIBULL, Family.EXPONENTIAL):
        spec = ModelSpec(fam)
        res[fam] = waic(data, spec, run_chains(data, spec, cfg)).waic
    assert res[Family.WEIBULL] < res[Family.EXPONENTIAL]


def test_waic_matches_pipeline_computation(exp_fit_small):
    data, spec, draws = exp_fit_small
    from rmstbayes.model_selection import pointwise_matrix
    res = waic(data, spec, draws)
    ref = waic_from_matrix(pointwise_matrix(data, spec, draws))
    assert math.isclose(res.waic, ref.waic, rel_tol=1e-14)


def test_waic_refuses_draws_from_another_model(scenario_c_small):
    data = scenario_c_small
    spec = ModelSpec("weibull", "random")
    draws = run_chains(data, spec, SamplerConfig(chains=1, iterations=200, burnin=100, seed=3))
    assert math.isfinite(waic(data, spec, draws).waic)
    # one more design column and one cluster fewer: the same parameter count
    keep = data.cluster <= 3
    wider = SurvivalDataset(data.time[keep], data.event[keep],
                            np.column_stack([data.x[keep], data.x[keep, 2] ** 2]),
                            data.cluster[keep])
    for other_data, other_spec in ((data, ModelSpec("loglogistic", "random")),
                                   (wider, spec)):
        with pytest.raises(ValueError, match="another model"):
            waic(other_data, other_spec, draws)
