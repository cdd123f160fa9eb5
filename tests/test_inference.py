"""Log-likelihood, log-prior, and log-posterior for the 12 model variants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmstbayes.families as F
import rmstbayes.inference as I
from rmstbayes.families import (EffectKind, Family, FamilyParams, NO_EFFECT,
                                frailty, random_offset)
from rmstbayes.inference import (Model, ModelSpec, ParamLayout, SurvivalDataset,
                                 effect_log_prior, log_posterior, log_prior,
                                 pointwise_log_likelihood)
from tests.conftest import log_h_s


def _one_row(t=2.0, delta=1):
    return SurvivalDataset(time=[t], event=[delta], x=[[1.0]], cluster=[1])


def _prior_model(spec, n_clusters=1):
    """Intercept-only model with one row per cluster, for prior checks."""
    m = n_clusters
    data = SurvivalDataset(np.ones(m), np.ones(m, dtype=int), np.ones((m, 1)),
                           np.arange(1, m + 1))
    return Model(data, spec)


def _toy(n=12, seed=5, q=3, clusters=3):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.integers(0, 2, n), rng.normal(0, 1, n)])[:, :q]
    return SurvivalDataset(
        time=rng.exponential(30.0, n) + 0.5,
        event=rng.integers(0, 2, n),
        x=x,
        cluster=np.tile(np.arange(1, clusters + 1), n // clusters + 1)[:n],
    )


# ------------------------------------------------------------ likelihood ---

def test_single_event_exponential_loglik_is_log_density():
    spec = ModelSpec(Family.EXPONENTIAL)
    # beta = 0 -> lam = 1: log f(t) = -t
    model = Model(_one_row(2.0, 1), spec)
    assert math.isclose(pointwise_log_likelihood(model, np.array([0.0])).sum(), -2.0,
                        rel_tol=1e-15)


def test_single_censored_exponential_loglik_is_log_survival():
    spec = ModelSpec(Family.EXPONENTIAL)
    model = Model(_one_row(2.0, 0), spec)
    assert math.isclose(pointwise_log_likelihood(model, np.array([0.0])).sum(), -2.0,
                        rel_tol=1e-15)


def test_weibull_frailty_likelihood_matches_scalar_reference():
    # five rows summed by hand from the scalar family functions
    data = SurvivalDataset(
        time=[3.0, 10.0, 25.0, 7.0, 40.0],
        event=[1, 0, 1, 1, 0],
        x=[[1, 0], [1, 1], [1, 0], [1, 1], [1, 0]],
        cluster=[1, 1, 2, 2, 2],
    )
    spec = ModelSpec(Family.WEIBULL, EffectKind.FRAILTY)
    beta = np.array([-5.0, 0.4])
    k, v = 1.6, np.array([0.8, 1.7])
    theta = np.concatenate([beta, [math.log(k)], np.log(v), [math.log(1.0)]])
    expected = 0.0
    for i in range(5):
        lam = math.exp(beta @ data.x[i])
        p = FamilyParams.weibull(lam, k)
        e = frailty(v[data.cluster[i] - 1])
        t = float(data.time[i])
        expected += sum(log_h_s(p, e, t)) if data.event[i] else log_h_s(p, e, t)[1]
    total = pointwise_log_likelihood(Model(data, spec), theta).sum()
    assert math.isclose(total, expected, rel_tol=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_identity_effects_leave_likelihood_unchanged(family):
    data = _toy()
    base_spec = ModelSpec(family)
    theta = np.array([-4.0, 0.3, -0.1] + ([0.2] if base_spec.has_shape else []))
    base = pointwise_log_likelihood(Model(data, base_spec), theta).sum()
    m = data.n_clusters
    for effect, eff_val in ((EffectKind.RANDOM, 0.0), (EffectKind.FRAILTY, 0.0)):
        spec = ModelSpec(family, effect)
        theta_e = np.concatenate([theta, np.full(m, eff_val), [math.log(2.0)]])
        total = pointwise_log_likelihood(Model(data, spec), theta_e).sum()
        assert math.isclose(total, base, rel_tol=1e-13)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_pointwise_sums_to_total(family, effect):
    data = _toy()
    model = Model(data, ModelSpec(family, effect))
    rng = np.random.default_rng(3)
    theta = rng.normal(-1.0, 0.5, model.layout.dim)
    pw = pointwise_log_likelihood(model, theta)
    assert len(pw) == data.n
    # the log-likelihood term of the posterior is the sum of the rows, and
    # log_posterior hands back the rows it summed
    lp, rows = log_posterior(model, theta)
    assert np.array_equal(rows, pw)
    assert math.isclose(float(pw.sum()), lp - log_prior(model, theta), rel_tol=1e-12)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_pointwise_writes_neither_theta_nor_the_model(family, effect):
    # theta and every per-row array of the compiled model are read only, so
    # a write into one raises, and their bytes are unchanged after
    model = Model(_toy(), ModelSpec(family, effect))
    theta = np.random.default_rng(7).normal(-1.0, 0.5, (3, model.layout.dim))
    arrays = {"theta": theta, **{name: value for name, value in vars(model).items()
                                 if isinstance(value, np.ndarray)}}
    assert {"x", "time", "event", "censored", "logt", "cluster"} <= set(arrays)
    before = {}
    for name, x in arrays.items():
        x.flags.writeable = False
        before[name] = x.tobytes()
    rows = pointwise_log_likelihood(model, theta)
    one_by_one = [pointwise_log_likelihood(model, th) for th in theta]
    assert rows.tobytes() == np.stack(one_by_one).tobytes()
    assert {name: x.tobytes() for name, x in arrays.items()} == before


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_carried_xb_gives_the_recomputed_rows(family, effect):
    # The sampler forms each chain's x @ beta at a beta proposal and its
    # rows' effects at an effect proposal, each in a block of all chains,
    # and eta from the two, and hands them to the shape step, which moves
    # neither: the rows and log posterior they give are a fresh
    # evaluation's, bit for bit, whatever block each was formed in.
    model = Model(_toy(n=40, clusters=4), ModelSpec(family, effect))
    layout = model.layout
    q = layout.q
    rng = np.random.default_rng(11)
    theta = rng.normal(-1.0, 0.5, (3, layout.dim))
    others = rng.normal(-1.0, 0.5, (3, layout.dim))
    xb = np.stack([(theta[:1, :q] @ model.x.T)[0],  # a block of one
                   (np.vstack([others[:1, :q], theta[1:2, :q]]) @ model.x.T)[1],
                   (np.vstack([others[:, :q], theta[2:, :q]]) @ model.x.T)[3]])
    offset = model.offset(np.vstack([others, theta]))
    offset = None if offset is None else offset[3:]
    assert (offset is None) == (effect is EffectKind.NONE)
    eta = model.eta(xb, offset)
    moved = theta.copy()
    for index in (layout.shape_index, layout.phi_index):
        if index is not None:
            moved[:, index] += rng.normal(0.0, 0.1, 3)
    assert (I._log_likelihood(model, moved, eta, offset).tobytes()
            == pointwise_log_likelihood(model, moved).tobytes())
    carried = log_posterior(model, moved, None, eta, offset)
    fresh = log_posterior(model, moved)
    assert carried[0].tobytes() == fresh[0].tobytes()
    assert carried[1].tobytes() == fresh[1].tobytes()


def test_pointwise_matches_row_by_row_scalar_evaluation():
    data = _toy(n=9, clusters=3)
    spec = ModelSpec(Family.LOG_LOGISTIC, EffectKind.RANDOM)
    beta = np.array([-8.0, 0.5, 0.2])
    k = 1.8
    u = np.array([0.1, -0.2, 0.05])
    theta = np.concatenate([beta, [math.log(k)], u, [math.log(1.0)]])
    pw = pointwise_log_likelihood(Model(data, spec), theta)
    for i in range(data.n):
        mu = float(beta @ data.x[i])
        p = FamilyParams.loglogistic(mu, k)
        e = random_offset(float(u[data.cluster[i] - 1]))
        t = float(data.time[i])
        ref = sum(log_h_s(p, e, t)) if data.event[i] else log_h_s(p, e, t)[1]
        assert math.isclose(float(pw[i]), ref, rel_tol=1e-11)


def _normal_tail_calls(monkeypatch, effect):
    """Shapes of the log_std_normal_sf calls one log-normal pass makes."""
    calls = []
    log_sf = F.log_std_normal_sf

    def counted(z):
        calls.append(np.shape(z))
        return log_sf(z)

    monkeypatch.setattr(F, "log_std_normal_sf", counted)
    data = _toy(n=60, clusters=3)
    model = Model(data, ModelSpec(Family.LOG_NORMAL, effect))
    theta = np.random.default_rng(2).normal(-1.0, 0.5, model.layout.dim)
    assert pointwise_log_likelihood(model, theta).shape == (60,)
    return calls, data


def test_lognormal_likelihood_is_one_array_evaluation(monkeypatch):
    # the log-normal tail runs once, over the censored rows only: event rows
    # take log f directly
    calls, data = _normal_tail_calls(monkeypatch, EffectKind.RANDOM)
    assert calls == [(int((data.event == 0).sum()),)]


def test_lognormal_frailty_likelihood_runs_the_tail_over_all_rows(monkeypatch):
    # a frailty event row needs v log S as well as log h
    calls, _ = _normal_tail_calls(monkeypatch, EffectKind.FRAILTY)
    assert calls == [(60,)]


def test_tiny_censored_observation_contributes_nothing():
    spec = ModelSpec(Family.WEIBULL)
    theta = np.array([-5.0, math.log(1.5)])
    base = SurvivalDataset([20.0], [1], [[1.0]], [1])
    extra = SurvivalDataset([20.0, 1e-12], [1, 0], [[1.0], [1.0]], [1, 1])
    a = pointwise_log_likelihood(Model(base, spec), theta).sum()
    b = pointwise_log_likelihood(Model(extra, spec), theta).sum()
    assert abs(a - b) < 1e-10


def test_layout_mismatch_raises():
    model = Model(_toy(), ModelSpec(Family.WEIBULL))
    dim = model.layout.dim
    for shape in ((dim - 1,), (dim + 1,), (2, dim + 1), (2, 3, dim), ()):
        with pytest.raises(ValueError, match="parameter vector has shape"):
            pointwise_log_likelihood(model, np.zeros(shape))
    # the prior is evaluated one draw at a time
    with pytest.raises(ValueError, match="parameter vector has shape"):
        log_prior(model, np.zeros((2, dim)))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_block_rows_equal_single_draw_rows(scenario_c_small, family, effect):
    model = Model(scenario_c_small, ModelSpec(family, effect))
    thetas = np.random.default_rng(11).normal(0.0, 0.5, (37, model.layout.dim))
    thetas[:, 0] -= 3.0  # the intercept near the data's scale
    block = pointwise_log_likelihood(model, thetas)
    assert block.shape == (37, len(scenario_c_small.time))
    single = np.vstack([pointwise_log_likelihood(model, th) for th in thetas])
    assert np.all(np.isfinite(block))
    assert np.array_equal(block, single)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_row_term_matches_the_hazard_survival_pair(family, effect):
    # The kernel's row term against event*log h + log S built from its own
    # (log h, log S) pair.  The log-normal z = (log t - mu)/sigma spans about
    # [-38, 38]: sigma = 0.1 and log t - mu in [-3.75, 3.75].
    n, rng = 96, np.random.default_rng(13)
    lognormal = family is Family.LOG_NORMAL
    data = SurvivalDataset(np.exp(3.0 + np.linspace(-3.75, 3.75, n)), rng.integers(0, 2, n), np.ones((n, 1)),
                           np.arange(n) % 4 + 1)
    assert 0 < data.event.sum() < n
    model = Model(data, ModelSpec(family, effect))
    layout, has_effect = model.layout, effect is not EffectKind.NONE
    thetas = np.zeros((3, layout.dim))
    thetas[:, 0] = [3.0, 2.999, 3.001] if lognormal else [-4.0, -4.2, -3.8]
    if layout.has_shape:
        thetas[:, layout.shape_index] = math.log(0.01 if lognormal else 1.5)
    if has_effect:
        thetas[:, layout.effect_indices] = rng.normal(0.0, 0.003, (3, 4))
        thetas[:, layout.phi_index] = math.log(0.5)
    rows = pointwise_log_likelihood(model, thetas)
    assert pointwise_log_likelihood(model, thetas[0]).tobytes() == rows[0].tobytes()

    eta = thetas[:, :1] @ data.x.T
    shape = np.exp(thetas[:, layout.shape_index, None]) if layout.has_shape else None
    u = thetas[:, layout.effect_indices][:, model.cluster] if has_effect else 0.0
    logt = model.logt
    log_h, log_s = F.log_hazard_survival(family, eta, shape, data.time, logt, effect, u)
    pair = model.event * log_h + log_s
    if not lognormal or effect is EffectKind.FRAILTY:
        assert rows.tobytes() == pair.tobytes()
        return
    z = (logt - (eta + u)) / np.sqrt(shape)
    assert 35.0 < np.abs(z).max() < 38.5
    log_f = -logt - 0.5 * np.log(shape) - F._LOG_SQRT_2PI - 0.5 * z * z
    event = data.event == 1
    assert rows[:, event].tobytes() == log_f[:, event].tobytes()
    assert rows[:, ~event].tobytes() == log_s[:, ~event].tobytes()
    ulp = np.spacing(np.abs(log_f) + np.abs(log_s))
    assert np.all(np.abs(rows - pair) <= 2.0 * ulp)


# ---------------------------------------------------------------- layout ---

@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_layout_offsets_point_at_the_columns_they_name(family, effect):
    spec = ModelSpec(family, effect)
    shape_name = "sigma2" if family is Family.LOG_NORMAL else "k"
    for q in (1, 3):
        for m in (1, 5):
            layout = ParamLayout(q=q, has_shape=spec.has_shape, effect=effect, n_clusters=m,
                                 shape_name=shape_name)
            assert layout == Model(_toy(n=10, q=q, clusters=m), spec).layout
            names = layout.column_names()
            assert layout.dim == len(names)
            assert names[:q] == tuple(f"beta{j}" for j in range(q))
            if spec.has_shape:
                assert names[layout.shape_index] == shape_name
            else:
                assert layout.shape_index is None
            if effect is EffectKind.NONE:
                assert names[layout.effect_indices] == () and layout.phi_index is None
            else:
                prefix = "u" if effect is EffectKind.RANDOM else "v"
                assert names[layout.effect_indices] == tuple(
                    f"{prefix}[{i}]" for i in range(1, m + 1))
                assert names[layout.phi_index] == "phi"
            with pytest.raises(dataclasses.FrozenInstanceError):
                layout.dim = 0
            theta = np.random.default_rng(q + m).normal(0.0, 1.0, (2, layout.dim))
            np.testing.assert_allclose(layout.to_sampling(layout.to_natural(theta)), theta,
                                       rtol=1e-14, atol=1e-15)


# ----------------------------------------------------------------- prior ---

def test_prior_outside_uniform_supports_is_minus_inf():
    # phi ~ U(0, 10) and sigma^2 ~ U(0, 100)
    spec = ModelSpec(Family.EXPONENTIAL, EffectKind.RANDOM)
    theta = np.array([0.0, 0.0, 0.0, math.log(10.1)])
    assert log_prior(_prior_model(spec, 2), theta) == -math.inf
    model_ln = _prior_model(ModelSpec(Family.LOG_NORMAL))
    assert log_prior(model_ln, np.array([0.0, math.log(101.0)])) == -math.inf
    assert math.isfinite(log_prior(model_ln, np.array([0.0, math.log(99.0)])))


def test_prior_exchangeable_in_cluster_effects():
    spec = ModelSpec(Family.EXPONENTIAL, EffectKind.RANDOM)
    u = np.array([0.3, -0.7, 0.1])
    t1 = np.concatenate([[0.0], u, [math.log(1.0)]])
    t2 = np.concatenate([[0.0], u[::-1], [math.log(1.0)]])
    model = _prior_model(spec, 3)
    assert log_prior(model, t1) == log_prior(model, t2)


def test_frailty_prior_matches_gamma_density_with_jacobian():
    spec = ModelSpec(Family.EXPONENTIAL, EffectKind.FRAILTY)  # beta0 ~ N(0, 100), phi ~ U(0, 10)
    phi = 0.5
    theta = np.array([0.0, 0.0, 0.0, math.log(phi)])  # v = (1, 1)
    got = log_prior(_prior_model(spec, 2), theta)
    r = 1.0 / phi  # Gamma(2, 2) at v=1, log v sampled so Jacobian = log v = 0
    gamma_term = r * math.log(r) - math.lgamma(r) + (r - 1) * 0.0 - r * 1.0
    beta_term = -0.5 * (math.log(2 * math.pi) + math.log(100.0))
    phi_term = -math.log(10.0) + math.log(phi)
    assert math.isclose(got, 2 * gamma_term + beta_term + phi_term, rel_tol=1e-12)


def test_random_effect_prior_matches_normal_density():
    spec = ModelSpec(Family.EXPONENTIAL, EffectKind.RANDOM)  # beta0 ~ N(0, 100), phi ~ U(0, 10)
    phi, u = 2.0, 0.7
    theta = np.array([0.0, u, math.log(phi)])
    got = log_prior(_prior_model(spec, 1), theta)
    normal = -0.5 * math.log(2 * math.pi * phi * phi) - u * u / (2 * phi * phi)
    beta_term = -0.5 * (math.log(2 * math.pi) + math.log(100.0))
    phi_term = -math.log(10.0) + math.log(phi)
    assert math.isclose(got, normal + beta_term + phi_term, rel_tol=1e-12)


@pytest.mark.parametrize("q", range(1, 8))
def test_coefficient_prior_sums_like_numpy(q):
    # log_prior sums the beta terms in Python floats; for q < 8 the result
    # equals numpy's reduction bit for bit, which keeps the chains unchanged
    rng = np.random.default_rng(q)
    data = SurvivalDataset(np.ones(2), np.ones(2, dtype=int), rng.normal(size=(2, q)),
                           np.ones(2, dtype=int))
    beta = rng.normal(size=q) * 10.0 ** rng.uniform(-2.0, 3.0, q)  # mixed magnitudes
    numpy_sum = float(np.sum(I._COEF_LOG_NORM - 0.5 * beta * beta / I._COEF_PRIOR_VARIANCE))
    assert log_prior(Model(data, ModelSpec(Family.EXPONENTIAL)), beta) == numpy_sum


# ------------------------------------------------------------- posterior ---

@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", [EffectKind.RANDOM, EffectKind.FRAILTY])
def test_per_cluster_pieces_factorise_the_posterior(family, effect):
    data = _toy(n=40, clusters=5)
    model = Model(data, ModelSpec(family, effect))
    theta = np.random.default_rng(6).normal(-0.5, 0.3, model.layout.dim)

    def cluster_log_likelihood(theta):
        # the sampler's per-cluster log-likelihood: the rows summed by cluster
        return np.bincount(model.cluster, log_posterior(model, theta)[1], minlength=5)

    prior = effect_log_prior(model, theta)
    ll = cluster_log_likelihood(theta)
    assert ll.shape == prior.shape == (5,)
    assert abs(ll.sum() - pointwise_log_likelihood(model, theta).sum()) < 1e-10
    for i, col in enumerate(range(model.layout.dim)[model.layout.effect_indices]):
        moved = theta.copy()
        moved[col] += 0.37
        d_prior = effect_log_prior(model, moved) - prior
        d_ll = cluster_log_likelihood(moved) - ll
        others = np.arange(5) != i
        assert np.all(d_ll[others] == 0.0) and np.all(d_prior[others] == 0.0)
        d_post = log_posterior(model, moved)[0] - log_posterior(model, theta)[0]
        assert abs(d_ll[i] + d_prior[i] - d_post) < 1e-9
        # the effect step's per-cluster density: moving effect i moves entry
        # i alone, by the change in the log posterior
        d_density = ((cluster_log_likelihood(moved) + effect_log_prior(model, moved))
                     - (ll + prior))
        assert np.all(d_density[others] == 0.0)
        assert abs(d_density[i] - d_post) < 1e-9


def test_posterior_is_likelihood_plus_prior():
    data = _toy()
    model = Model(data, ModelSpec(Family.WEIBULL, EffectKind.RANDOM))
    theta = np.random.default_rng(0).normal(-0.5, 0.3, model.layout.dim)
    assert math.isclose(
        log_posterior(model, theta)[0],
        pointwise_log_likelihood(model, theta).sum() + log_prior(model, theta),
        rel_tol=1e-13)


def test_minus_inf_prior_propagates():
    data = _toy()
    spec = ModelSpec(Family.EXPONENTIAL, EffectKind.RANDOM)
    theta = np.concatenate([np.zeros(3), np.zeros(3), [math.log(10.5)]])  # phi > 10
    assert log_posterior(Model(data, spec), theta) == (-math.inf, None)


@pytest.mark.parametrize("effect", [EffectKind.RANDOM, EffectKind.FRAILTY])
def test_block_log_posterior_equals_single_draws(effect):
    # a block's lp and rows are its draws' bit for bit; a draw outside the
    # prior's support (sigma^2 >= 100 or phi >= 10) gets -inf and no pass
    model = Model(_toy(n=30, clusters=5), ModelSpec(Family.LOG_NORMAL, effect))
    layout = model.layout
    rng = np.random.default_rng(11)
    block = rng.normal(0.0, 0.3, (4, layout.dim))
    block[1, layout.shape_index] = math.log(150.0)   # sigma^2 past its support
    block[3, layout.phi_index] = math.log(20.0)      # phi past its support
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp, rows = log_posterior(model, block)
        sums = [float(effect_log_prior(model, theta).sum()) for theta in block]
        carried = log_posterior(model, block, sums)
        for outside in ([1], [1, 3]):
            only = log_posterior(model, block[outside])[0]
            assert list(only) == [-math.inf] * len(outside)
    assert lp.shape == (4,) and rows.shape == (4, model.x.shape[0])
    for c, theta in enumerate(block):
        single_lp, single_rows = log_posterior(model, theta)
        assert carried[0][c] == lp[c]
        if c in (1, 3):
            assert single_lp == lp[c] == -math.inf and single_rows is None
            continue
        assert lp[c] == single_lp
        assert np.array_equal(rows[c], single_rows)
        assert np.array_equal(carried[1][c], single_rows)


@pytest.mark.parametrize("effect", [EffectKind.RANDOM, EffectKind.FRAILTY])
def test_block_effect_log_prior_equals_single_draws(effect):
    model = Model(_toy(n=30, clusters=10), ModelSpec(Family.WEIBULL, effect))
    block = np.random.default_rng(12).normal(0.0, 0.5, (3, model.layout.dim))
    prior = effect_log_prior(model, block)
    assert prior.shape == (3, 10)
    for row, theta in zip(prior, block):
        assert np.array_equal(row, effect_log_prior(model, theta))
        # log_prior adds a carried sum exactly as it adds its own
        assert log_prior(model, theta, float(row.sum())) == log_prior(model, theta)


def test_exponential_posterior_mode_matches_closed_form_mle(monkeypatch):
    # flat-ish prior: the beta0 argmax on a grid sits at log(sum delta / sum t);
    # the prior's normalising constant does not move the argmax
    monkeypatch.setattr(I, "_COEF_PRIOR_VARIANCE", 1e8)
    rng = np.random.default_rng(9)
    n = 400
    t = rng.exponential(40.0, n)
    data = SurvivalDataset(t, np.ones(n, dtype=int), np.ones((n, 1)), np.ones(n, dtype=int))
    model = Model(data, ModelSpec(Family.EXPONENTIAL))
    grid = np.linspace(-5.0, -2.0, 1201)
    vals = [log_posterior(model, np.array([b]))[0] for b in grid]
    best = grid[int(np.argmax(vals))]
    mle = math.log(n / t.sum())
    assert abs(best - mle) < (grid[1] - grid[0]) * 1.5


def test_time_rescaling_shifts_exponential_argmax(monkeypatch):
    monkeypatch.setattr(I, "_COEF_PRIOR_VARIANCE", 1e8)  # flat-ish prior on beta0
    rng = np.random.default_rng(10)
    n = 300
    t = rng.exponential(25.0, n)
    spec = ModelSpec(Family.EXPONENTIAL)
    grid = np.linspace(-6.0, -1.0, 2001)

    def argmax(times):
        data = SurvivalDataset(times, np.ones(n, dtype=int), np.ones((n, 1)),
                               np.ones(n, dtype=int))
        model = Model(data, spec)
        vals = [log_posterior(model, np.array([b]))[0] for b in grid]
        return grid[int(np.argmax(vals))]

    shift = argmax(2 * t) - argmax(t)
    assert abs(shift + math.log(2.0)) < (grid[1] - grid[0]) * 2


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_posterior_finite_and_continuous_on_segments(a, b):
    data = _toy()
    model = Model(data, ModelSpec(Family.LOG_NORMAL, EffectKind.FRAILTY))
    t0 = np.full(model.layout.dim, a)
    t1 = np.full(model.layout.dim, b)
    vals = [log_posterior(model, t0 + s * (t1 - t0))[0] for s in np.linspace(0, 1, 9)]
    assert all(math.isfinite(v) for v in vals)
    # continuity: neighboring grid values stay within a modest factor
    diffs = np.abs(np.diff(vals))
    assert np.all(diffs < 1e3 * (1 + np.abs(vals[0])))


def test_dataset_validation():
    with pytest.raises(ValueError):
        SurvivalDataset([0.0], [1], [[1.0]], [1])
    with pytest.raises(ValueError):
        SurvivalDataset([1.0], [2], [[1.0]], [1])
    with pytest.raises(ValueError):
        SurvivalDataset([1.0], [1], [[1.0]], [2])  # clusters must start at 1
    with pytest.raises(ValueError):
        SurvivalDataset([1.0], [1], [[math.nan]], [1])
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SurvivalDataset([t], [1], [[1.0]], [1])
    # checked before the cast to int, which would make them 0, 1 and 1
    ones = np.ones((3, 1))
    for event in ([0.5, 1, 1], [1.7, 1, 1]):
        with pytest.raises(ValueError, match="event indicators"):
            SurvivalDataset([1.0, 2.0, 3.0], event, ones, [1, 1, 2])
    for cluster in ([1.5, 1, 2], [math.inf, 1, 2], [math.nan, 1, 2]):
        with pytest.raises(ValueError, match="cluster labels must be integers"):
            SurvivalDataset([1.0, 2.0, 3.0], [1, 0, 1], ones, cluster)
    data = SurvivalDataset([1.0, 2.0], [1.0, False], np.ones((2, 1)), [1.0, 1])
    assert data.event.tolist() == [1, 0] and data.cluster.tolist() == [1, 1]
