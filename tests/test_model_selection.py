"""WAIC arithmetic and its invariances, and the streamed WAIC against the
whole-matrix arithmetic."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import rmstbayes.inference as I
import rmstbayes.model_selection as MS
from rmstbayes.families import EffectKind, Family
from rmstbayes.inference import Model, ModelSpec, SurvivalDataset, pointwise_log_likelihood
from rmstbayes.model_selection import waic, waic_from_matrix
from rmstbayes.sampler import PosteriorDraws, SamplerConfig, run_chains


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
    data, spec, draws = exp_fit_small
    few = replace(draws, values=draws.values[:, :49])  # 98 kept draws
    with pytest.raises(ValueError, match="need >= 100"):
        waic(data, spec, few)
    assert math.isfinite(waic(data, spec, replace(draws, values=draws.values[:, :50])).waic)


def test_degenerate_draws_warn(exp_fit_small):
    data, spec, draws = exp_fit_small
    frozen = draws.values.copy()
    frozen[:, :, :] = frozen[:1, :1, :]
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
    res = waic(data, spec, draws)
    thetas = draws.layout.to_sampling(draws.flat())
    ref = waic_from_matrix(pointwise_log_likelihood(Model(data, spec), thetas))
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


# ------------------------------------------------------- streamed WAIC ---

def _per_draw_reference(data, spec, draws):
    """WAIC of the (S, n) matrix stacked from per-draw likelihood rows."""
    model = Model(data, spec)
    thetas = draws.layout.to_sampling(draws.flat())
    return waic_from_matrix(np.vstack([pointwise_log_likelihood(model, th) for th in thetas]))


def _assert_same_waic(res, ref, rel=1e-12):
    for name in ("waic", "lppd", "p_waic"):
        assert math.isclose(getattr(res, name), getattr(ref, name), rel_tol=rel), name
    for name in ("pointwise_lppd", "pointwise_p"):
        np.testing.assert_allclose(getattr(res, name), getattr(ref, name), rtol=rel, atol=0.0,
                                   err_msg=name)


def _synthetic_draws(data, spec, thetas):
    """PosteriorDraws holding the sampling-scale rows ``thetas`` as one chain."""
    layout = Model(data, spec).layout
    s = len(thetas)
    return PosteriorDraws(values=layout.to_natural(thetas)[None], columns=layout.column_names(),
                          layout=layout, spec=spec, acceptance={},
                          config=SamplerConfig(chains=1, iterations=2 * s, burnin=s))


def _weibull_posterior(n, s, clusters=8, seed=0):
    """Weibull random-effects data of n rows and s draws near its truth."""
    rng = np.random.default_rng(seed)
    group = np.arange(n) % 2
    time = np.minimum(rng.weibull(1.5, n) * 60.0 * np.exp(-0.3 * group) + 0.1, 100.0)
    data = SurvivalDataset(time, (time < 100.0).astype(int),
                           np.column_stack([np.ones(n), group]),
                           np.arange(n) % clusters + 1)
    spec = ModelSpec(Family.WEIBULL, EffectKind.RANDOM)
    centre = np.concatenate([[-6.1, 0.45, np.log(1.5)], np.zeros(clusters), [np.log(0.3)]])
    thetas = centre + rng.normal(0.0, 0.05, (s, len(centre)))
    return data, spec, _synthetic_draws(data, spec, thetas)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_streamed_waic_matches_per_draw_matrix(scenario_c_small, family, effect):
    data, spec = scenario_c_small, ModelSpec(family, effect)
    draws = run_chains(data, spec, SamplerConfig(chains=2, iterations=400, burnin=100, seed=5))
    block = MS._BLOCK_ELEMENTS // len(data.time)
    few = replace(draws, values=draws.values[:, :100])
    assert draws.flat().shape[0] % block != 0 and few.flat().shape[0] < block
    for d in (draws, few):
        _assert_same_waic(waic(data, spec, d), _per_draw_reference(data, spec, d))


def test_streamed_waic_one_draw_per_block_when_rows_exceed_the_block():
    data, spec, draws = _weibull_posterior(n=MS._BLOCK_ELEMENTS + 1, s=MS._MIN_DRAWS)
    assert MS._BLOCK_ELEMENTS // len(data.time) == 0  # so B = 1
    _assert_same_waic(waic(data, spec, draws), _per_draw_reference(data, spec, draws))


def test_waic_makes_one_kernel_call_per_block(monkeypatch):
    data, spec, draws = _weibull_posterior(n=512, s=1000)
    block = MS._BLOCK_ELEMENTS // 512
    kernel, rows = I.log_hazard_survival, []

    def counting(family, eta, *args):
        rows.append(eta.shape)
        return kernel(family, eta, *args)

    monkeypatch.setattr(I, "log_hazard_survival", counting)
    waic(data, spec, draws)
    assert len(rows) == math.ceil(1000 / block)
    assert rows == [(block, 512)] * (1000 // block) + [(1000 % block, 512)]


def test_waic_memory_does_not_grow_with_the_draws():
    data, spec, draws = _weibull_posterior(n=512, s=12_000)
    waic(data, spec, draws)
    tracemalloc.start()
    try:
        waic(data, spec, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The (S, n) matrix alone would be 49 MB.
    assert peak < 16e6


def test_partly_constant_draws_do_not_warn():
    data, spec, draws = _weibull_posterior(n=200, s=500)
    thetas = np.repeat(draws.layout.to_sampling(draws.flat())[:1], 500, axis=0)
    u1 = draws.layout.effect_indices.start
    thetas[:, u1] = np.linspace(-0.5, 0.5, 500)  # only cluster 1 varies
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = waic(data, spec, _synthetic_draws(data, spec, thetas))
    in_one = data.cluster == 1
    assert np.all(res.pointwise_p[in_one] > 0.0) and np.all(res.pointwise_p[~in_one] == 0.0)
