"""Each benchmark oracle against values known in closed form."""

import math

import numpy as np
import pytest

import oracles


def test_quadrature_exponential_rmst():
    lam, tau = np.array([0.002, 0.011, 0.3]), 100.0
    expected = (1.0 - np.exp(-lam * tau)) / lam
    got = oracles.rmst_quadrature(oracles.weibull_surv(lam, np.ones(3)), tau)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_quadrature_weibull_shape_two():
    # int_0^tau exp(-lam t^2) dt = sqrt(pi / lam) / 2 * erf(sqrt(lam) tau)
    lam, tau = 4e-4, 60.0
    expected = math.sqrt(math.pi / lam) / 2.0 * math.erf(math.sqrt(lam) * tau)
    got = oracles.rmst_quadrature(oracles.weibull_surv(lam, 2.0), tau)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [0.65, 1.0])
def test_quadrature_loglogistic(k):
    # k = 1: int_0^tau dt / (1 + e^mu t) = log(1 + e^mu tau) / e^mu.
    # k = 0.65: the substitution t = tau s^(1/k) turns the integral into
    # tau * int_0^1 ds / (1 + c s) s^(1/k - 1) / k, a smooth integrand.
    mu, tau = -3.0, 100.0
    if k == 1.0:
        expected = math.log1p(math.exp(mu) * tau) / math.exp(mu)
    else:
        c = math.exp(mu) * tau ** k
        s = np.linspace(0.0, 1.0, 400001)
        f = s ** (1.0 / k - 1.0) / (1.0 + c * s)
        h = s[1] - s[0]
        simpson = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        expected = tau / k * simpson
    got = oracles.rmst_quadrature(oracles.loglogistic_surv(mu, k), tau)
    assert got == pytest.approx(expected, rel=1e-9)


def test_quadrature_lognormal():
    # exp(mu + s2/2) Phi((log tau - mu - s2)/s) + tau (1 - Phi((log tau - mu)/s))
    mu, s2, tau = 3.0, 1.0, 100.0
    s = math.sqrt(s2)

    def phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    expected = (math.exp(mu + s2 / 2.0) * phi((math.log(tau) - mu - s2) / s)
                + tau * (1.0 - phi((math.log(tau) - mu) / s)))
    got = oracles.rmst_quadrature(oracles.lognormal_surv(mu, s2), tau)
    assert got == pytest.approx(expected, rel=1e-10)


def test_weibull_re_loglik_by_hand():
    # One observed and one censored row at t = 2, lam = 0.5, k = 1:
    # log f = log 0.5 - 1 and log S = -1.  A cluster offset u adds to log lam.
    time = np.array([2.0, 2.0, 2.0])
    event = np.array([1, 0, 1])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    cluster = np.array([1, 1, 2])
    beta = np.array([[math.log(0.5), 0.0]])
    ll = oracles.weibull_re_loglik(time, event, x, cluster, beta, np.array([1.0]),
                                   np.array([[0.0, math.log(2.0)]]))
    np.testing.assert_allclose(ll, [[math.log(0.5) - 1.0, -1.0, 0.0 - 2.0]], rtol=1e-14)


def test_waic_of_identical_draws():
    # With every draw equal, lppd is the log-likelihood and p_waic is 0.
    ll = np.tile(np.array([-1.5, -0.25, -3.0]), (50, 1))
    w, lppd, p = oracles.waic(ll)
    assert (lppd, p) == (pytest.approx(-4.75, rel=1e-14), 0.0)
    assert w == pytest.approx(9.5, rel=1e-14)


def test_waic_two_point_draws():
    # Draws of one row at log-likelihoods a and b: lppd = log((e^a + e^b)/2),
    # p_waic = (a - b)^2 / 2 (sample variance of two values).
    a, b = -1.0, -2.0
    w, lppd, p = oracles.waic(np.array([[a], [b]]))
    assert lppd == pytest.approx(math.log((math.exp(a) + math.exp(b)) / 2.0), rel=1e-14)
    assert p == pytest.approx(0.5, rel=1e-14)


def test_ess_of_independent_draws():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 20000))
    assert oracles.ess(x) == pytest.approx(80000, rel=0.05)


def test_ess_of_ar1_chains():
    # AR(1) with coefficient r has integrated autocorrelation time (1+r)/(1-r).
    rng = np.random.default_rng(2)
    r, n = 0.8, 50000
    x = np.empty((4, n))
    x[:, 0] = rng.standard_normal(4) / math.sqrt(1.0 - r * r)
    noise = rng.standard_normal((4, n))
    for t in range(1, n):
        x[:, t] = r * x[:, t - 1] + noise[:, t]
    assert oracles.ess(x) == pytest.approx(4 * n * (1.0 - r) / (1.0 + r), rel=0.1)


def test_summary_of_a_known_vector():
    got = oracles.summary(np.arange(101.0, 0.0, -1.0))
    assert got == pytest.approx({"mean": 51.0, "median": 51.0, "ci_low": 3.5,
                                 "ci_high": 98.5}, rel=1e-14)
