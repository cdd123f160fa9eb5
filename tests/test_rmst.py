"""Closed-form restricted-mean formulas against the adaptive-Simpson
quadrature oracle, reference values, analytic limits, and per-draw
posterior evaluation, whose outputs and WAIC are pinned bit for bit."""

import hashlib
import inspect
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmstbayes.rmst as R
from rmstbayes.families import (EffectKind, EffectValue, Family, FamilyParams,
                                NO_EFFECT, frailty, kernel_args, log_hazard_survival,
                                random_offset)
from rmstbayes.specfun import incomplete_beta_compl, lower_incomplete_gamma
from rmstbayes.inference import ModelSpec, ParamLayout, SurvivalDataset
from rmstbayes.model_selection import waic
from rmstbayes.sampler import PosteriorDraws, SamplerConfig
from tests.conftest import log_h_s


# ------------------------------------------------------- reference values ---

def test_exponential_reference_values():
    assert abs(R.rmst_closed_form(Family.EXPONENTIAL, -4.5, None, 100.0) - 60.37) <= 0.01
    assert abs(R.rmst_closed_form(Family.EXPONENTIAL, -4.0, None, 100.0) - 45.85) <= 0.01
    assert math.isclose(R.rmst_closed_form(Family.EXPONENTIAL, 0.0, None, 1.0),
                        1 - math.exp(-1), rel_tol=1e-14)


def test_loglogistic_reference_values():
    assert abs(R.rmst_closed_form(Family.LOG_LOGISTIC, -10.0, 2.0, 100.0) - 87.99) <= 0.01
    assert abs(R.rmst_closed_form(Family.LOG_LOGISTIC, -9.52, 2.0, 100.0) - 82.69) <= 0.01
    # k=2 admits the elementary form alpha * arctan(tau / alpha)
    alpha = math.exp(10.0 / 2.0)
    assert math.isclose(R.rmst_closed_form(Family.LOG_LOGISTIC, -10.0, 2.0, 100.0),
                        alpha * math.atan(100.0 / alpha), rel_tol=1e-12)
    # k <= 1; mpmath quadrature of 1 / (1 + e^-1.5 t^0.5) over [0, 100]
    assert math.isclose(R.rmst_closed_form(Family.LOG_LOGISTIC, -1.5, 0.5, 100.0),
                        42.5177303072, rel_tol=1e-11)


def test_lognormal_reference_values():
    assert abs(R.rmst_closed_form(Family.LOG_NORMAL, 3.0, 1.0, 100.0) - 29.51) <= 0.01
    assert abs(R.rmst_closed_form(Family.LOG_NORMAL, 2.5, 1.0, 100.0) - 19.14) <= 0.01


def test_weibull_shape_one_reduces_to_exponential():
    assert math.isclose(R.rmst_value(FamilyParams.weibull(0.02, 1.0), NO_EFFECT, 80.0),
                        R.rmst_value(FamilyParams.exponential(0.02), NO_EFFECT, 80.0),
                        rel_tol=1e-12)


# ----------------------------------------------------- quadrature oracles ---

def _random_params(rng, fam):
    if fam is Family.EXPONENTIAL:
        return FamilyParams.exponential(math.exp(rng.uniform(-6, -1)))
    if fam is Family.WEIBULL:
        return FamilyParams.weibull(math.exp(rng.uniform(-8, -1)), rng.uniform(0.5, 3.0))
    if fam is Family.LOG_LOGISTIC:
        return FamilyParams.loglogistic(rng.uniform(-12, -2), rng.uniform(1.05, 3.0))
    return FamilyParams.lognormal(rng.uniform(1, 4), rng.uniform(0.2, 2.0))


@pytest.mark.parametrize("fam", list(Family))
def test_closed_forms_match_quadrature(fam):
    rng = np.random.default_rng(list(Family).index(fam))
    worst = 0.0
    for _ in range(40):
        p = _random_params(rng, fam)
        tau = rng.uniform(5, 150)
        effects = [NO_EFFECT, random_offset(rng.normal(0, 0.5)),
                   frailty(rng.uniform(0.3, 2.5))]
        for e in effects:
            if fam is Family.LOG_NORMAL and e.kind is EffectKind.FRAILTY:
                continue  # approximate form; tested separately
            cf = R.rmst_value(p, e, tau)
            qd = R.rmst_numeric(p, e, tau)
            worst = max(worst, abs(cf - qd) / qd)
    assert worst < 1e-8


def _weibull_rmst_mpmath(eta, effect, k, tau):
    """int_0^tau exp(-e^(eta + effect) t^k) dt by mpmath quadrature at 30
    digits, split around the time scale e^(-(eta + effect)/k)."""
    with mp.workdps(30):
        lam, k = mp.exp(mp.mpf(eta) + mp.mpf(effect)), mp.mpf(k)
        scale = lam ** (-1 / k)
        points = [0] + [c * scale for c in (0.25, 1, 4) if c * scale < tau] + [tau]
        return float(mp.quad(lambda t: mp.exp(-lam * t ** k), points))


@pytest.mark.parametrize("kind, effect", [(EffectKind.NONE, 0.0),
                                          (EffectKind.RANDOM, -0.4),
                                          (EffectKind.FRAILTY, math.log(1.7))],
                         ids=["none", "random", "frailty"])
def test_proportional_hazard_forms_match_mpmath(kind, effect):
    # exponential (k = 1) and Weibull from eta = log lam itself; a random
    # effect u and a frailty v both enter as an offset on eta (u or log v)
    for fam, shapes in ((Family.EXPONENTIAL, (1.0,)), (Family.WEIBULL, (0.3, 1.3, 5.0))):
        for eta, k, tau in itertools.product((-12.0, -5.0, -1.0, 0.4), shapes,
                                             (5.0, 60.0, 150.0)):
            got = R.rmst_closed_form(fam, eta, k, tau, kind, effect)
            ref = _weibull_rmst_mpmath(eta, effect, k, tau)
            assert math.isclose(got, ref, rel_tol=1e-14), (fam, eta, k, tau)


@pytest.mark.parametrize("lam, k", [(0.5, 0.005), (1e-300, 1e-3)])
def test_weibull_rmst_where_the_gamma_form_leaves_range(lam, k):
    # Gamma(1/k + 1) overflows for k < 0.0059, and e^(-eta/k) at lam = 1e-300,
    # yet the RMST exists: those draws take the series form
    p = FamilyParams.weibull(lam, k)
    got = R.rmst_value(p, NO_EFFECT, 100.0)
    assert math.isclose(got, R.rmst_numeric(p, NO_EFFECT, 100.0), rel_tol=1e-8)
    # only those elements: the others keep the gamma form's bits
    values = R.rmst_closed_form(Family.WEIBULL, np.array([-4.0, math.log(lam), -1.0]),
                                np.array([1.5, k, 0.7]), 100.0)
    assert values[1] == got
    assert values[[0, 2]].tolist() == [R.rmst_closed_form(Family.WEIBULL, -4.0, 1.5, 100.0),
                                       R.rmst_closed_form(Family.WEIBULL, -1.0, 0.7, 100.0)]


def test_weibull_small_shape_quadrature_converges():
    # S(t) = exp(-lam t^k) has an unbounded slope at t = 0 for k < 1; the
    # reference value is the closed form, which agrees with mpmath
    p = FamilyParams.weibull(0.141, 0.505)
    got = R.rmst_numeric(p, NO_EFFECT, 142.0)
    assert math.isclose(got, 49.3956216908, rel_tol=1e-10)
    assert math.isclose(got, R.rmst_value(p, NO_EFFECT, 142.0), rel_tol=1e-10)


@pytest.mark.parametrize("k", [0.3, 0.5, 0.52, 0.8, 1.0])
def test_loglogistic_small_shape_closed_form_matches_quadrature(k):
    # k <= 1 makes the incomplete beta's second argument 1 - 1/k <= 0
    for mu in (-3.0, -1.56, 0.0):
        p = FamilyParams.loglogistic(mu, k)
        for tau in (40.0, 100.0):
            assert math.isclose(R.rmst_value(p, NO_EFFECT, tau),
                                R.rmst_numeric(p, NO_EFFECT, tau), rel_tol=1e-9)
            for v in (0.5, 2.0):
                assert math.isclose(R.rmst_value(p, frailty(v), tau),
                                    R.rmst_numeric(p, frailty(v), tau), rel_tol=1e-9)


@pytest.mark.parametrize("k", [
    # a = 1 + 1/k large, where the beta's alternating tail series in (1 - t)
    # must stay short enough not to cancel
    0.02, 0.03, 0.05,
])
def test_loglogistic_very_small_shape_matches_quadrature(k):
    p = FamilyParams.loglogistic(0.0, k)
    assert math.isclose(R.rmst_value(p, NO_EFFECT, 100.0),
                        R.rmst_numeric(p, NO_EFFECT, 100.0), rel_tol=1e-8)


def _recursive_simpson(f, a, b, tol):
    """Depth-first adaptive Simpson, as a reference: (value, points used)."""
    points = 3

    def recurse(x0, x2, f0, f1, f2, total, eps):
        nonlocal points
        x1 = 0.5 * (x0 + x2)
        flm, frm = f(0.5 * (x0 + x1)), f(0.5 * (x1 + x2))
        points += 2
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        if abs(left + right - total) <= 15.0 * eps:
            return left + right + (left + right - total) / 15.0
        return (recurse(x0, x1, f0, flm, f1, left, 0.5 * eps)
                + recurse(x1, x2, f1, frm, f2, right, 0.5 * eps))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    value = recurse(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol)
    return value, points


@pytest.mark.parametrize("f, a, b", [(math.sqrt, 0.0, 1.0),
                                     (lambda x: math.exp(-x * x), -3.0, 2.0),
                                     (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0)])
def test_breadth_first_simpson_accepts_the_recursive_intervals(f, a, b):
    calls = []

    def batched(xs):
        calls.append(len(xs))
        return np.array([f(float(x)) for x in xs])

    got = R.integrate(f, a, b)
    assert R._adaptive_simpson(batched, a, b, 1e-10, 60) == got
    ref, points = _recursive_simpson(f, a, b, 1e-10)
    assert sum(calls) == points
    assert math.isclose(got, ref, rel_tol=1e-14)
    assert len(calls) < 60  # one integrand call per depth, plus the first


def test_simpson_reports_the_interval_that_fails_to_converge():
    with pytest.raises(R.QuadratureError, match=r"\[0\.0, .*\] at depth 5"):
        R.integrate(lambda x: math.sqrt(x), 0.0, 1.0, tol=1e-14, max_depth=5)


def test_simpson_gives_up_on_noise_before_the_open_intervals_grow_unbounded():
    # every interval of a noisy integrand stays open, so breadth-first
    # refinement doubles them at each depth until the cap (2^16) stops it
    rng = np.random.default_rng(0)
    with pytest.raises(R.QuadratureError, match=r"at depth 16$"):
        R._adaptive_simpson(lambda xs: rng.random(len(xs)), 0.0, 1.0, 1e-10, 60)


def test_restricted_mean_identity_density_form():
    # integral of S equals integral of t f(t) plus tau S(tau), all by quadrature
    for p in (FamilyParams.exponential(0.02), FamilyParams.weibull(0.005, 1.7),
              FamilyParams.loglogistic(-9.0, 2.0), FamilyParams.lognormal(3.0, 1.0)):
        tau = 100.0
        lhs = R.integrate(lambda t: math.exp(log_h_s(p, NO_EFFECT, t)[1]) if t > 0 else 1.0,
                          0.0, tau)
        rhs = R.integrate(lambda t: t * math.exp(sum(log_h_s(p, NO_EFFECT, t))) if t > 0 else 0.0,
                          0.0, tau) + tau * math.exp(log_h_s(p, NO_EFFECT, tau)[1])
        assert abs(lhs - rhs) / lhs < 1e-8


# ------------------------------------------------------------- effects ---

def test_random_effect_is_base_form_with_shifted_parameter():
    p = FamilyParams.exponential(0.02)
    assert math.isclose(R.rmst_value(p, random_offset(math.log(2.0)), 100.0),
                        R.rmst_value(FamilyParams.exponential(0.04), NO_EFFECT, 100.0),
                        rel_tol=1e-14)
    assert R.rmst_value(p, random_offset(0.0), 100.0) == R.rmst_value(p, NO_EFFECT, 100.0)
    pw = FamilyParams.weibull(0.05, 1.7)
    assert math.isclose(R.rmst_value(pw, random_offset(0.3), 50.0),
                        R.rmst_numeric(pw, random_offset(0.3), 50.0), rel_tol=1e-9)


def test_frailty_identity_and_algebraic_cases():
    for p in (FamilyParams.exponential(0.02), FamilyParams.weibull(0.005, 1.7),
              FamilyParams.loglogistic(-9.0, 2.0), FamilyParams.lognormal(3.0, 1.0)):
        assert math.isclose(R.rmst_value(p, frailty(1.0), 100.0),
                            R.rmst_value(p, NO_EFFECT, 100.0)
                            if p.family is not Family.LOG_NORMAL
                            else R.rmst_value(p, frailty(1.0), 100.0), rel_tol=1e-12)
    # exponential frailty has the elementary form (1 - e^{-v lam tau}) / (v lam)
    assert math.isclose(R.rmst_value(FamilyParams.exponential(0.02), frailty(2.0), 100.0),
                        (1 - math.exp(-4.0)) / 0.04, rel_tol=1e-14)


def test_lognormal_frailty_identity_at_unit_frailty():
    p = FamilyParams.lognormal(3.0, 1.0)
    assert math.isclose(R.rmst_value(p, frailty(1.0), 100.0),
                        R.rmst_value(p, NO_EFFECT, 100.0), rel_tol=1e-12)


def test_loglogistic_frailty_matches_quadrature():
    p = FamilyParams.loglogistic(-10.0, 2.0)
    got = R.rmst_value(p, frailty(1.5), 100.0)
    ref = R.integrate(lambda t: (1 + math.exp(-10.0) * t * t) ** -1.5, 0.0, 100.0)
    assert math.isclose(got, ref, rel_tol=1e-9)


def test_loglogistic_frailty_small_v_uses_negative_beta_argument():
    # v - 1/k < 0 exercises the b <= 0 incomplete-beta path
    p = FamilyParams.loglogistic(-10.0, 2.0)
    v = 0.3
    got = R.rmst_value(p, frailty(v), 100.0)
    ref = R.rmst_numeric(p, frailty(v), 100.0)
    assert math.isclose(got, ref, rel_tol=1e-9)


def test_lognormal_frailty_reported_gap():
    p = FamilyParams.lognormal(3.0, 1.0)
    exact = R.rmst_numeric(p, frailty(2.0), 100.0)
    approx = R.rmst_value(p, frailty(2.0), 100.0)
    gap = abs(approx - exact) / exact
    print(f"log-normal frailty approximation gap at (mu=3, s2=1, v=2, tau=100): {gap:.4f}")
    assert gap < 1.0  # the approximation is crude but not absurd


def test_lognormal_frailty_approx_matches_its_own_integrand():
    # the closed form equals quadrature of the *approximated* integrand
    from rmstbayes.specfun import std_normal_sf
    mu, s2, v, tau = 3.0, 1.0, 1.6, 100.0
    sigma = math.sqrt(s2)
    z1 = (math.log(tau) - mu - s2) / sigma
    z0 = (math.log(tau) - mu) / sigma
    head = R.integrate(lambda y: math.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
                       * std_normal_sf(y) ** (v - 1.0), -40.0, z1)
    ref = math.exp(mu + s2 / 2) * head + tau * std_normal_sf(z0) ** v
    got = R.rmst_value(FamilyParams.lognormal(mu, s2), frailty(v), tau)
    assert abs(got - ref) / ref < 1e-8


@pytest.mark.xfail(strict=True,
                   reason="the analytic log-normal frailty approximation exceeds "
                          "5% relative error inside sigma <= 1.5, v in [0.5, 2] "
                          "(observed up to ~68%); kept as a documented limitation")
def test_lognormal_frailty_approximation_within_five_percent_in_box():
    worst = 0.0
    for mu in (1.0, 2.0, 3.0, 4.0):
        for s2 in (0.25, 1.0, 2.25):
            for v in (0.5, 1.3, 2.0):
                p = FamilyParams.lognormal(mu, s2)
                a = R.rmst_value(p, frailty(v), 100.0)
                e = R.rmst_numeric(p, frailty(v), 100.0)
                worst = max(worst, abs(a - e) / e)
    assert worst <= 0.05


# ----------------------------------------------- alternate parameterizations ---

def test_weibull_alt_closed_form_agrees_with_converted_params():
    # scale * gamma_inc((tau/scale)^k; 1/k + 1) + tau exp(-(tau/scale)^k)
    for scale, k, tau in ((20.0, 1.5, 50.0), (80.0, 0.9, 100.0), (5.0, 2.5, 30.0)):
        z = (tau / scale) ** k
        direct = scale * lower_incomplete_gamma(z, 1.0 / k + 1.0) + tau * math.exp(-z)
        p = FamilyParams.weibull(scale ** -k, k)
        via = R.rmst_value(p, NO_EFFECT, tau)
        assert abs(direct - via) / via < 1e-10


def test_loglogistic_alt_closed_form_agrees_with_converted_params():
    # scale * B(r/(1+r); 1 + 1/k, 1 - 1/k) + tau/(1+r), r = (tau/scale)^k
    for scale, k, tau in ((50.0, 2.0, 100.0), (120.0, 1.3, 100.0), (10.0, 3.0, 40.0)):
        r = (tau / scale) ** k
        direct = (scale * incomplete_beta_compl(1.0 / (1.0 + r), 1.0 + 1.0 / k, 1.0 - 1.0 / k)
                  + tau / (1.0 + r))
        p = FamilyParams.loglogistic(-k * math.log(scale), k)
        via = R.rmst_value(p, NO_EFFECT, tau)
        assert abs(direct - via) / via < 1e-10


# -------------------------------------------------------- analytic limits ---

def test_large_horizon_limits_equal_means():
    big = 1e6
    assert math.isclose(R.rmst_value(FamilyParams.exponential(0.02), NO_EFFECT, big),
                        1 / 0.02, rel_tol=1e-9)
    lam, k = 0.005, 1.7
    assert math.isclose(R.rmst_value(FamilyParams.weibull(lam, k), NO_EFFECT, big),
                        lam ** (-1 / k) * math.exp(math.lgamma(1 + 1 / k)), rel_tol=1e-9)
    mu, s2 = 3.0, 1.0
    assert math.isclose(R.rmst_value(FamilyParams.lognormal(mu, s2), NO_EFFECT, big),
                        math.exp(mu + s2 / 2), rel_tol=1e-9)
    # log-logistic mean for k > 1: (pi/k) / sin(pi/k) * e^{-mu/k}; at a 1e6
    # horizon the missing tail is ~6e-5 of the mean
    mu, k = -9.0, 2.0
    mean = math.exp(-mu / k) * (math.pi / k) / math.sin(math.pi / k)
    at_big = R.rmst_value(FamilyParams.loglogistic(mu, k), NO_EFFECT, big)
    assert math.isclose(at_big, mean, rel_tol=1e-4)
    assert at_big <= mean


@given(st.floats(1.0, 200.0), st.floats(1.0, 200.0))
@settings(max_examples=40, deadline=None)
def test_rmst_bounded_and_monotone_in_horizon(t1, t2):
    lo, hi = sorted((t1, t2))
    for p in (FamilyParams.exponential(0.02), FamilyParams.weibull(0.005, 1.7),
              FamilyParams.loglogistic(-9.0, 2.0), FamilyParams.lognormal(3.0, 1.0)):
        a, b = R.rmst_value(p, NO_EFFECT, lo), R.rmst_value(p, NO_EFFECT, hi)
        assert 0.0 <= a <= lo * (1 + 1e-12)
        assert a <= b * (1 + 1e-12)


# ------------------------------------------------ posterior-draw evaluation ---

def _fake_draws(family, rows, effect=EffectKind.NONE, n_clusters=0, q=2):
    """PosteriorDraws with hand-chosen natural-scale rows (one chain)."""
    spec = ModelSpec(family, effect)
    layout = ParamLayout(q=q, has_shape=spec.has_shape, effect=spec.effect,
                         n_clusters=n_clusters,
                         shape_name="sigma2" if family is Family.LOG_NORMAL else "k")
    values = np.asarray(rows, dtype=float)[None, :, :]
    return PosteriorDraws(values=values, columns=layout.column_names(),
                          layout=layout, spec=spec, acceptance={},
                          config=SamplerConfig(chains=1, iterations=2, burnin=1))


def test_single_draw_reproduces_reference_groups():
    draws = _fake_draws(Family.EXPONENTIAL, [[-4.5, 0.5]])
    g0, g1, diff = R.rmst_difference(draws, 100.0)
    assert abs(g0.values[0] - 60.37) <= 0.01
    assert abs(g1.values[0] - 45.85) <= 0.01
    assert abs(diff.values[0] + 14.52) <= 0.01


def test_identical_draws_give_degenerate_distribution():
    draws = _fake_draws(Family.WEIBULL, [[-6.0, 0.5, 1.7]] * 20)
    g0, _, diff = R.rmst_difference(draws, 100.0)
    assert np.ptp(g0.values) == 0.0 and np.ptp(diff.values) == 0.0


def test_distribution_mean_matches_per_draw_quadrature():
    rng = np.random.default_rng(11)
    rows = np.column_stack([rng.normal(-4.5, 0.1, 50), rng.normal(0.5, 0.1, 50)])
    draws = _fake_draws(Family.EXPONENTIAL, rows)
    _, _, diff = R.rmst_difference(draws, 100.0)
    ref = []
    for b0, b1 in rows:
        p0 = FamilyParams.exponential(math.exp(b0))
        p1 = FamilyParams.exponential(math.exp(b0 + b1))
        ref.append(R.rmst_numeric(p1, NO_EFFECT, 100.0) - R.rmst_numeric(p0, NO_EFFECT, 100.0))
    assert math.isclose(float(np.mean(diff.values)), float(np.mean(ref)), rel_tol=1e-8)


def test_cluster_query_uses_that_clusters_effect():
    rows = [[-4.5, 0.5, 0.3, -0.3, 2.0]]  # beta0, beta1, u1, u2, phi
    draws = _fake_draws(Family.EXPONENTIAL, rows, EffectKind.RANDOM, n_clusters=2)
    v1 = R.rmst_distribution(draws, 100.0, 0, cluster=1).values[0]
    expected = R.rmst_closed_form(Family.EXPONENTIAL, -4.5 + 0.3, None, 100.0)
    assert math.isclose(v1, expected, rel_tol=1e-12)
    marginal = R.rmst_distribution(draws, 100.0, 0).values[0]
    assert math.isclose(marginal, R.rmst_closed_form(Family.EXPONENTIAL, -4.5, None, 100.0),
                        rel_tol=1e-12)


def test_covariates_enter_eta_through_the_design_row():
    # q = 4: eta = beta0 + x1 beta1 + c1 beta2 + c2 beta3 at every draw
    rng = np.random.default_rng(13)
    rows = np.column_stack([rng.normal(-4.0, 0.3, 20), rng.normal(0.5, 0.2, (20, 3)),
                            rng.gamma(5.0, 0.3, 20)])  # beta0..beta3, k
    draws = _fake_draws(Family.WEIBULL, rows, q=4)
    cov = (0.7, -1.3)
    for x1 in (0, 1):
        got = R.rmst_distribution(draws, 100.0, x1, covariates=cov).values
        for j, (b0, b1, b2, b3, k) in enumerate(rows):
            eta = b0 + x1 * b1 + cov[0] * b2 + cov[1] * b3
            assert math.isclose(got[j], R.rmst_closed_form(Family.WEIBULL, eta, k, 100.0),
                                rel_tol=1e-13)
        # omitted covariates are zeros
        assert np.array_equal(R.rmst_distribution(draws, 100.0, x1).values,
                              R.rmst_distribution(draws, 100.0, x1, covariates=(0.0, 0.0)).values)


@pytest.mark.parametrize("q, cov", [(4, (0.7,)), (4, (0.7, -1.3, 2.0)), (2, (1.0,))])
def test_wrong_covariate_count_rejected(q, cov):
    draws = _fake_draws(Family.EXPONENTIAL, [[-4.5, 0.5, 0.2, -0.1][:q]], q=q)
    with pytest.raises(ValueError, match=f"expected {q - 2} extra covariate values"):
        R.rmst_distribution(draws, 100.0, 0, covariates=cov)
    with pytest.raises(ValueError, match="covariate"):
        R.rmst_difference(draws, 100.0, covariates=cov)


def test_design_without_a_group_column_rejected():
    # an intercept-only fit has no group to compare
    draws = _fake_draws(Family.WEIBULL, [[-4.5, 1.2]], q=1)
    with pytest.raises(ValueError, match="an intercept and a group indicator column"):
        R.rmst_distribution(draws, 100.0, 0)
    with pytest.raises(ValueError, match="an intercept and a group indicator column"):
        R.rmst_difference(draws, 100.0)


def test_cluster_query_rejected_without_effects():
    draws = _fake_draws(Family.EXPONENTIAL, [[-4.5, 0.5]])
    with pytest.raises(ValueError):
        R.rmst_distribution(draws, 100.0, 0, cluster=1)


def test_query_validation():
    draws = _fake_draws(Family.EXPONENTIAL, [[-4.5, 0.5]])
    with pytest.raises(ValueError):
        R.rmst_distribution(draws, 0.0, 0)
    with pytest.raises(ValueError):
        R.rmst_distribution(draws, 100.0, 2)
    # a cluster is a non-bool integer: True and 1.5 would mean cluster 1
    rows = [[-4.5, 0.5, 0.3, -0.3, 0.1, 2.0]]  # beta0, beta1, u1, u2, u3, phi
    draws = _fake_draws(Family.EXPONENTIAL, rows, EffectKind.RANDOM, n_clusters=3)
    one = R.rmst_distribution(draws, 100.0, 0, cluster=1).values
    assert np.array_equal(R.rmst_distribution(draws, 100.0, 0, cluster=np.int64(1)).values, one)
    for cluster in (True, 1.5, 1.0):
        with pytest.raises(ValueError, match="1..3"):
            R.rmst_distribution(draws, 100.0, 0, cluster=cluster)


@pytest.mark.parametrize("cluster", [0, -1, 4])
def test_cluster_outside_one_to_m_rejected(cluster):
    # cluster 0 and -1 would index from the end (clusters 3 and 2), and
    # M + 1 past it
    rows = [[-4.5, 0.5, 0.3, -0.3, 0.1, 2.0]]  # beta0, beta1, u1, u2, u3, phi
    draws = _fake_draws(Family.EXPONENTIAL, rows, EffectKind.RANDOM, n_clusters=3)
    with pytest.raises(ValueError, match="1..3"):
        R.rmst_distribution(draws, 100.0, 0, cluster=cluster)
    with pytest.raises(ValueError, match="1..3"):
        R.rmst_difference(draws, 100.0, cluster=cluster)


_INFINITE_TAU_CASES = [
    (FamilyParams.exponential(0.011), frailty(1.3)),
    (FamilyParams.weibull(0.01, 1.5), NO_EFFECT),
    (FamilyParams.loglogistic(-9.6, 2.0), random_offset(0.2)),
    (FamilyParams.lognormal(3.0, 1.0), NO_EFFECT),
    (FamilyParams.lognormal(3.0, 1.0), frailty(0.8)),
]


@pytest.mark.parametrize("p, e", _INFINITE_TAU_CASES,
                         ids=["exponential-frailty", "weibull", "loglogistic-random",
                              "lognormal", "lognormal-frailty"])
def test_infinite_tau_rejected_without_warning(p, e):
    # every closed form reaches the one tau check before any arithmetic
    eta, shape, effect = kernel_args(p, e)
    calls = [lambda tau: R.rmst_value(p, e, tau), lambda tau: R.rmst_numeric(p, e, tau),
             lambda tau: R.rmst_closed_form(p.family, eta, shape, tau, e.kind, effect)]
    draws = _fake_draws(Family.WEIBULL, [[-6.0, 0.5, 1.7]])
    calls.append(lambda tau: R.rmst_distribution(draws, tau, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            for tau in (math.inf, math.nan, -1.0):
                with pytest.raises(ValueError, match="positive and finite"):
                    call(tau)


def _posterior_rows(family, effect, rng, n=200):
    """Natural-scale draws (beta0, beta1[, shape][, u1/v1, u2/v2, phi]) that
    cover each family's ordinary range, with the edge draws in the last rows:
    Weibull with log(lam tau^k) > 700, log-logistic shapes 0.3, 0.5 and 0.52,
    and frailties 0.05 and 20."""
    if family is Family.EXPONENTIAL:
        cols = [rng.normal(-4.5, 0.5, n), rng.normal(0.5, 0.3, n)]
    elif family is Family.WEIBULL:
        b0, k = rng.normal(-7.0, 1.0, n), rng.uniform(0.5, 3.0, n)
        # log z = log lam + k log 100 > 700 at lam ~ 1: S(t) ~ 1{t < 1}
        b0[-3:], k[-3:] = (0.1, -0.2, 0.0), (160.0, 200.0, 250.0)
        cols = [b0, rng.normal(0.5, 0.3, n), k]
    elif family is Family.LOG_LOGISTIC:
        mu, k = rng.uniform(-12.0, -2.0, n), rng.uniform(1.05, 3.0, n)
        mu[-3:], k[-3:] = (-1.5, -1.56, -3.0), (0.3, 0.5, 0.52)
        cols = [mu, rng.normal(0.3, 0.3, n), k]
    else:
        cols = [rng.uniform(1.0, 4.0, n), rng.normal(-0.5, 0.3, n), rng.uniform(0.2, 2.0, n)]
    if effect is EffectKind.RANDOM:
        cols += [rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.5, n), rng.uniform(0.2, 1.0, n)]
    elif effect is EffectKind.FRAILTY:
        v1 = rng.uniform(0.3, 2.5, n)
        v1[-5:] = (0.05, 20.0, 0.05, 20.0, 0.05)
        cols += [v1, rng.uniform(0.3, 2.5, n), rng.uniform(0.2, 1.0, n)]
    return np.column_stack(cols)


def _draw_params(family, eta, shape):
    if family is Family.EXPONENTIAL:
        return FamilyParams.exponential(math.exp(eta))
    if family is Family.WEIBULL:
        return FamilyParams.weibull(math.exp(eta), shape)
    if family is Family.LOG_LOGISTIC:
        return FamilyParams.loglogistic(eta, shape)
    return FamilyParams.lognormal(eta, shape)


@pytest.mark.parametrize("effect", list(EffectKind))
@pytest.mark.parametrize("fam", list(Family))
def test_distribution_matches_quadrature_at_every_draw(fam, effect):
    # one array evaluation over the draws against rmst_numeric draw by draw,
    # for the marginal query (u = 0 / v = 1) and a cluster query
    rng = np.random.default_rng(10 * list(Family).index(fam) + list(EffectKind).index(effect))
    rows = _posterior_rows(fam, effect, rng)
    has_effect = effect is not EffectKind.NONE
    draws = _fake_draws(fam, rows, effect, n_clusters=2 if has_effect else 0)
    shape = rows[:, 2] if fam is not Family.EXPONENTIAL else [None] * len(rows)
    queries = [(1, None)] + ([(0, 1)] if has_effect else [])
    for x1, cluster in queries:
        got = R.rmst_distribution(draws, 100.0, x1, cluster).values
        assert got.shape == (len(rows),)
        eta = rows[:, 0] + x1 * rows[:, 1]
        worst = 0.0
        for s in range(len(rows)):
            p = _draw_params(fam, eta[s], shape[s])
            e = NO_EFFECT
            if cluster is not None:
                e = (random_offset if effect is EffectKind.RANDOM else frailty)(rows[s, -3])
            if fam is Family.LOG_NORMAL and e.kind is EffectKind.FRAILTY:
                # approximate closed form; rmst_numeric gives the exact value
                # (see the xfail above), so check against the scalar path
                ref = R.rmst_value(p, e, 100.0)
            else:
                with np.errstate(over="ignore"):
                    ref = R.rmst_numeric(p, e, 100.0)
            worst = max(worst, abs(got[s] - ref) / ref)
        assert worst <= 1e-8, (x1, cluster, worst)


def test_distribution_is_one_array_evaluation(monkeypatch):
    # the closed form runs once over all draws: one incomplete-gamma call
    # per Weibull query and no per-draw FamilyParams
    gamma_calls, built = [], []
    gamma = R.lower_incomplete_gamma
    post_init = FamilyParams.__post_init__

    def counted_gamma(z, a, log_factor):
        gamma_calls.append(np.shape(z))
        return gamma(z, a, log_factor)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(R, "lower_incomplete_gamma", counted_gamma)
    monkeypatch.setattr(FamilyParams, "__post_init__", counted_post_init)
    rng = np.random.default_rng(5)
    rows = _posterior_rows(Family.WEIBULL, EffectKind.RANDOM, rng, n=300)
    draws = _fake_draws(Family.WEIBULL, rows, EffectKind.RANDOM, n_clusters=2)
    for x1, cluster in ((0, None), (1, 2)):
        gamma_calls.clear()
        assert R.rmst_distribution(draws, 100.0, x1, cluster).values.shape == (300,)
        assert gamma_calls == [(300,)]
    assert built == []

    # and one incomplete-beta call per log-logistic query, frailty included
    beta_calls = []
    beta = R.incomplete_beta_compl

    def counted_beta(one_minus_z, a, b, log_factor):
        beta_calls.append(np.shape(one_minus_z))
        return beta(one_minus_z, a, b, log_factor)

    monkeypatch.setattr(R, "incomplete_beta_compl", counted_beta)
    for effect in (EffectKind.RANDOM, EffectKind.FRAILTY):
        rows = _posterior_rows(Family.LOG_LOGISTIC, effect, rng, n=300)
        draws = _fake_draws(Family.LOG_LOGISTIC, rows, effect, n_clusters=2)
        for x1, cluster in ((0, None), (1, 2)):
            beta_calls.clear()
            assert R.rmst_distribution(draws, 100.0, x1, cluster).values.shape == (300,)
            assert beta_calls == [(300,)]
    assert built == []


def test_closed_forms_take_arrays_and_scalars_alike():
    lam, k, v = np.array([0.01, 0.02, 3.0]), np.array([0.7, 1.5, 150.0]), np.array([0.5, 1.0, 2.0])
    cases = [
        (FamilyParams.exponential(lam), NO_EFFECT),
        (FamilyParams.weibull(lam, k), random_offset(v - 1.0)),
        (FamilyParams.loglogistic(np.log(lam), k), frailty(v)),
        (FamilyParams.lognormal(np.log(lam) + 8.0, k), frailty(v)),
    ]
    for p, e in cases:
        got = R.rmst_value(p, e, 100.0)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        for j in range(3):
            pj = FamilyParams(p.family, *(None if f is None else float(f[j])
                                          for f in (p.lam, p.k, p.mu, p.sigma2)))
            ej = EffectValue(e.kind, float(np.broadcast_to(e.value, 3)[j]))
            one = R.rmst_value(pj, ej, 100.0)
            assert isinstance(one, float)
            assert math.isclose(got[j], one, rel_tol=1e-15)
    with pytest.raises(ValueError, match="positive shape"):
        R.rmst_closed_form(Family.WEIBULL, np.log(lam), np.array([1.5, -1.5, 1.0]), 100.0)


# ------------------------------------------------- one argument convention ---

def test_closed_form_takes_the_likelihood_kernels_arguments():
    def names(fn):
        return [n for n in inspect.signature(fn).parameters
                if n in ("family", "eta", "shape", "kind", "effect")]
    assert names(R.rmst_closed_form) == names(log_hazard_survival) == [
        "family", "eta", "shape", "kind", "effect"]


_ONE_DRAW = {Family.EXPONENTIAL: [-4.5, 0.5], Family.WEIBULL: [-6.0, 0.5, 1.7],
             Family.LOG_LOGISTIC: [-9.0, 0.3, 2.0], Family.LOG_NORMAL: [3.0, -0.5, 1.0]}


@pytest.mark.parametrize("fam", list(Family))
def test_nan_eta_rejected_by_every_family(fam):
    shape = None if fam is Family.EXPONENTIAL else 1.5
    with pytest.raises(ValueError, match="finite"):
        R.rmst_closed_form(fam, math.nan, shape, 100.0)
    with pytest.raises(ValueError, match="finite"):
        R.rmst_closed_form(fam, np.array([-4.0, math.nan]), shape, 100.0)
    with pytest.raises(ValueError, match="finite"):
        R.rmst_closed_form(fam, -4.0, shape, 100.0, EffectKind.RANDOM, math.nan)
    row = list(_ONE_DRAW[fam])
    row[0] = math.nan
    draws = _fake_draws(fam, [_ONE_DRAW[fam], row])
    with pytest.raises(ValueError, match="finite"):
        R.rmst_distribution(draws, 100.0, 0)


@pytest.mark.parametrize("fam", [Family.EXPONENTIAL, Family.WEIBULL])
def test_underflowing_rate_gives_tau_without_warning(fam):
    # eta is finite, but exp(eta) rounds to 0: S = 1 up to tau
    shape = None if fam is Family.EXPONENTIAL else 1.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = R.rmst_closed_form(fam, np.array([-4.0, -800.0]), shape, 100.0)
        assert got[0] < 100.0 and got[1] == 100.0
        assert R.rmst_closed_form(fam, -800.0, shape, 100.0) == 100.0
        assert R.rmst_closed_form(fam, -800.0, shape, 100.0, EffectKind.FRAILTY, 3.0) == 100.0
        assert R.rmst_closed_form(fam, -700.0, shape, 100.0, EffectKind.FRAILTY, -100.0) == 100.0


@pytest.mark.parametrize("kind, effect", [(EffectKind.NONE, 0.0), (EffectKind.RANDOM, 0.7),
                                          (EffectKind.FRAILTY, -0.4)])
def test_exponential_is_the_weibull_form_at_shape_one(kind, effect):
    eta = np.linspace(-40.0, 8.0, 49)
    for tau in (0.5, 100.0):
        assert np.array_equal(R.rmst_closed_form(Family.EXPONENTIAL, eta, None, tau, kind, effect),
                              R.rmst_closed_form(Family.WEIBULL, eta, 1.0, tau, kind, effect))


@pytest.mark.parametrize("fam, eta, shape", [
    (Family.WEIBULL, 8.0, 1e-3),          # e^(-eta/k) Gamma(1001) underflows to 0
    (Family.WEIBULL, 800.0, 1e-3),        # the same, with z = e^eta tau^k overflowing
])
def test_value_outside_float_range_refused_without_warning(fam, eta, shape):
    # the message names the first draw whose value is not in (0, inf)
    with pytest.raises(ValueError, match=f"range at eta={eta}, shape={shape}$"):
        R.rmst_closed_form(fam, np.array([-4.0, eta, eta - 1.0]),
                           np.array([1.5, shape, shape]), 100.0)


def test_frailty_draw_of_zero_refused():
    rows = [[-4.5, 0.5, v, 1.0, 0.5] for v in (1.0, 0.0, 2.0)]  # beta0, beta1, v1, v2, phi
    draws = _fake_draws(Family.EXPONENTIAL, rows, EffectKind.FRAILTY, n_clusters=2)
    with pytest.raises(ValueError, match="positive"):
        R.rmst_distribution(draws, 100.0, 0, cluster=1)
    assert R.rmst_distribution(draws, 100.0, 0, cluster=2).values.shape == (3,)


def _pinned_dataset():
    """A seeded two-cluster, two-column dataset of the layout that
    ``_posterior_rows`` draws for, with events and censored rows."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([29])))
    n = 48
    x1 = (np.arange(n) % 2).astype(float)
    event = (rng.random(n) < 0.7).astype(int)
    return SurvivalDataset(time=rng.exponential(40.0, n) + 0.01, event=event,
                           x=np.column_stack([np.ones(n), x1]),
                           cluster=np.repeat([1, 2], n // 2))


# SHA-256 of rmst_difference's three vectors (marginal and, with effects,
# cluster 1) and of the bytes of waic's four fields, on seeded synthetic
# draws of every family x effect: a rewrite of the posterior side (the
# closed forms, their special functions, the likelihood's row term) that
# moves any value by one bit fails here.  The WAIC leaves out the edge draws
# of _posterior_rows, whose likelihood underflows.  Same IEEE-754 and numpy
# caveats as the sampler's KERNEL_DIGESTS.
POSTERIOR_DIGESTS = {
    ("exponential", "none"): "b2ea54f0312742a15155cad510371f6647bdd86986c1e02f13fb1830fdc2b626",
    ("exponential", "random"): "720dfa3047cea9afff675a8d2af14ee07053d75292abb55987f002c2bc603ca6",
    ("exponential", "frailty"): "175ba18efe973e4e53786db63c1d6962fcb991fa2d50abc71c4746526e72612d",
    ("weibull", "none"): "7df6a600d137b9ff334f186e0f82dbfe6abda903ba4127305301a952d00c76c1",
    ("weibull", "random"): "4678316154d6bcdf1375cedf6129c5abee62e6b2a00571b0de65768626172f9d",
    ("weibull", "frailty"): "d09bd3080b03ef9f56d40f9760177c0663c21f4467eb8c3aa65fbd613b9b93e5",
    ("loglogistic", "none"): "09b2c1b79893ee73e54514fe4eeb7dd8003f77e88ed2169449f7d4cf67e1bc8a",
    ("loglogistic", "random"): "d0c2dbb91d2471f57ef38c1203989ddee49f5e60a1ad58330bbddff7000727e2",
    ("loglogistic", "frailty"): "81491c8f126913fcae282c22e2dfdab6ba4be325369e4411e04eddc67841d1d9",
    ("lognormal", "none"): "4aec627f75edce30557b79c64711546a471a178ed3a5230047247374190d9773",
    ("lognormal", "random"): "61b42561297c8d25a1b6283fc3c79ab6a8030ad04f9410b6b9c6d60d01460fb4",
    ("lognormal", "frailty"): "08a9ef12828ec2e9a42a1b2194ebad638685109e37ab2ebf617fe1eab1b1a1e6",
}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("effect", list(EffectKind))
def test_posterior_outputs_are_pinned(family, effect):
    rng = np.random.default_rng(2900 + 10 * list(Family).index(family)
                                + list(EffectKind).index(effect))
    rows = _posterior_rows(family, effect, rng)
    draws = _fake_draws(family, rows, effect, n_clusters=2)
    digest = hashlib.sha256()
    for cluster in (None, 1) if effect is not EffectKind.NONE else (None,):
        for vector in R.rmst_difference(draws, 100.0, cluster):
            digest.update(vector.values.tobytes())
    result = waic(_pinned_dataset(), draws.spec,
                  _fake_draws(family, rows[:-5], effect, n_clusters=2))
    digest.update(np.array([result.lppd, result.p_waic]).tobytes())
    digest.update(result.pointwise_lppd.tobytes() + result.pointwise_p.tobytes())
    assert digest.hexdigest() == POSTERIOR_DIGESTS[family.value, effect.value]
