"""Every exact closed-form RMST against 40-digit mpmath over the region a
posterior can reach.

The box: eta in [-40, 40], the shape k in [0.005, 30], sigma^2 in
[0.01, 100), a frailty v in [0.05, 20] and two horizons.  A random effect
only moves eta, so the exact forms are exponential and Weibull (a frailty
folds into eta), log-logistic with and without a frailty, and log-normal
without one.  The log-normal frailty form is the paper's approximation, and
is checked against its own formula.  The oracles are exact special
functions, not quadrature: ``mp.gammainc`` for the proportional-hazard forms,
Euler's integral tau 2F1(v, 1/k; 1 + 1/k; -e^mu tau^k) for log-logistic and
``mp.ncdf`` for log-normal.

Each point matches to 1e-10 relative, or its value lies below the normal
floating-point range and the form refuses it with ValueError.  No point may
raise RuntimeError.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from rmstbayes import specfun
from rmstbayes.families import EffectKind, Family
from rmstbayes.rmst import rmst_closed_form

_DPS = 40
_ETAS = tuple(float(x) for x in np.linspace(-40.0, 40.0, 17))
_SHAPES = (0.005, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
_SIGMA2 = (0.01, 0.1, 1.0, 10.0, 99.0)
_FRAILTIES = (0.05, 1.0, 20.0)  # v = 1: no frailty
_TAUS = (0.5, 100.0)
_REL_TOL = 1e-10


def _exact(family, eta, shape, v, tau) -> float:
    with mp.workdps(_DPS):
        eta, tau = mp.mpf(eta), mp.mpf(tau)
        if family is Family.EXPONENTIAL:
            lam = mp.exp(eta) * v
            return float(mp.gammainc(1, 0, lam * tau) / lam)
        if family is Family.WEIBULL:
            k, log_lam = mp.mpf(shape), eta + mp.log(v)
            z = mp.exp(log_lam) * tau ** k
            return float(mp.exp(-log_lam / k) * mp.gammainc(1 / k + 1, 0, z)
                         + tau * mp.exp(-z))
        if family is Family.LOG_LOGISTIC:
            k = mp.mpf(shape)
            return float(tau * mp.hyp2f1(v, 1 / k, 1 + 1 / k, -mp.exp(eta) * tau ** k))
        # e^(mu + sigma^2/2)(1 - Q(z1)^v)/v + tau Q(z0)^v, Q = 1 - Phi: exact at
        # v = 1, the paper's approximation otherwise.  Below z1 = 0, log Q(z1)
        # is formed from Phi(z1) itself: Q(z1) rounds to 1 at 40 digits once
        # Phi(z1) < 1e-40, and 1 - Q(z1)^v would be 0
        sigma2 = mp.mpf(shape)
        sigma, log_tau = mp.sqrt(sigma2), mp.log(tau)
        z1, z0 = (log_tau - eta - sigma2) / sigma, (log_tau - eta) / sigma
        log_q1 = mp.log(mp.ncdf(-z1)) if z1 > 0 else mp.log1p(-mp.ncdf(z1))
        return float(mp.exp(eta + sigma2 / 2) * -mp.expm1(v * log_q1) / v
                     + tau * mp.ncdf(-z0) ** v)


def _points(family, frailties=_FRAILTIES):
    """(eta, shape, v, tau) over the box for one family."""
    shapes = {Family.EXPONENTIAL: (None,), Family.LOG_NORMAL: _SIGMA2}.get(family, _SHAPES)
    return [(eta, shape, v, tau) for eta in _ETAS for shape in shapes
            for v in frailties for tau in _TAUS]


def _misses(family, points, kind=None):
    """The points that neither match the oracle nor refuse a value below the
    normal range; each is a frailty, or no effect at v = 1 when ``kind`` is
    None."""
    misses = []
    for eta, shape, v, tau in points:
        exact = _exact(family, eta, shape, v, tau)
        at = kind or (EffectKind.NONE if v == 1.0 else EffectKind.FRAILTY)
        try:
            got = rmst_closed_form(family, eta, shape, tau, at, math.log(v))
        except ValueError:
            if exact >= sys.float_info.min:
                misses.append((eta, shape, v, tau, "ValueError", exact))
            continue
        # subnormal values carry fewer digits: the tolerance floors at the
        # smallest normal float
        if not abs(got - exact) <= _REL_TOL * max(exact, sys.float_info.min):
            misses.append((eta, shape, v, tau, got, exact))
    return misses


@pytest.mark.parametrize("family", list(Family))
def test_exact_closed_forms_match_mpmath_over_the_box(family):
    frailties = (1.0,) if family is Family.LOG_NORMAL else _FRAILTIES
    assert _misses(family, _points(family, frailties)) == []


def test_lognormal_frailty_form_matches_its_formula_over_the_box():
    # 510 frailty points, v = 1 among them.  Where Q(z1) rounds to 1,
    # 1 - Q(z1)^v by subtraction loses every digit (mu = -15, sigma^2 = 99,
    # v = 20, tau = 0.5 would give 1.7e-23 for 0.0082)
    points = _points(Family.LOG_NORMAL)
    assert _misses(Family.LOG_NORMAL, points, EffectKind.FRAILTY) == []


@pytest.mark.parametrize("family, eta, shape", [
    # gamma(a, z) was Gamma(a) P(a, z), and P's prefactor underflowed
    # (exponent about -864) while gamma(a, z) = 4.9e-220 did not: 7e-5 off
    (Family.WEIBULL, -5.0, 0.01),
    # lam = 1e-300: e^(-eta/k) overflows and gamma(a, z) underflows; the
    # RMST is about tau
    (Family.WEIBULL, math.log(1e-300), 1e-3),
    # the same pair for log-logistic: e^(-mu/k) beside an underflowing beta
    (Family.LOG_LOGISTIC, -300.0, 0.01),
    # e^(-mu/k) = 0 beside a beta of about e^300000; the RMST is 5.1e-129
    (Family.LOG_LOGISTIC, 300.0, 1e-3),
    # 1 - S(tau) is about 1e-16 and has lost digits, and e^(-mu/k) must carry
    # the same error as the beta's front, not raise it to the power 1/k
    (Family.LOG_LOGISTIC, -36.6, 0.005),
    (Family.LOG_LOGISTIC, -36.6, 0.01),
])
def test_prefactor_outside_float_range_matches_mpmath(family, eta, shape):
    exact = _exact(family, eta, shape, 1.0, 100.0)
    assert math.isclose(rmst_closed_form(family, eta, shape, 100.0), exact, rel_tol=_REL_TOL)


def _count_steps(monkeypatch) -> list:
    """A one-element list that records the largest step count any
    ``specfun._converge`` loop reaches from here on."""
    most = [0]
    converge = specfun._converge

    def counted(step, state, what):
        def counting(n, *args):
            most[0] = max(most[0], n)
            return step(n, *args)
        return converge(counting, state, what)

    monkeypatch.setattr(specfun, "_converge", counted)
    return most


def test_random_points_match_hypergeometric_in_few_steps(monkeypatch):
    # 300 log-logistic points in a wider box than the grid (eta in [-50, 50],
    # k in [0.001, 50] and v in [0.01, 20] log-uniform, three horizons), and
    # 300 incomplete betas (a in [0.05, 50], b in [-20, 60], 1 - z in
    # [1e-12, 1] log-uniform) against 50-digit z^a/a 2F1(a, 1 - b; a + 1; z).
    # The series need at most 500 steps, well inside specfun._MAX_ITER.  Past
    # a = 50 the head series needs up to about 9 (a - 1) steps where b < 3
    # and 1 - z lies just above the split (548 at a = 60); see the xfail below.
    steps = _count_steps(monkeypatch)
    rng = np.random.default_rng(20261020)
    n = 300
    mu = rng.uniform(-50.0, 50.0, n)
    k = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), n))
    v = np.exp(rng.uniform(math.log(0.01), math.log(20.0), n))
    tau = rng.choice([0.5, 100.0, 1e4], n)
    points = [tuple(float(x) for x in p) for p in zip(mu, k, v, tau)]
    assert _misses(Family.LOG_LOGISTIC, points) == []
    a = rng.uniform(0.05, 50.0, n)
    b = rng.uniform(-20.0, 60.0, n)
    s0 = np.exp(rng.uniform(math.log(1e-12), 0.0, n))
    got = specfun.incomplete_beta_compl(s0, a, b)
    with mp.workdps(50):
        exact = np.array([float(z ** ai / ai * mp.hyp2f1(ai, 1 - bi, ai + 1, z))
                          for ai, bi, z in zip(a, b, (1 - mp.mpf(x) for x in s0))])
    assert np.all(np.abs(got - exact) <= _REL_TOL * np.maximum(exact, sys.float_info.min))
    assert steps[0] <= 500


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the head series needs about 9 (a - 1) steps here")
def test_loglogistic_frailty_near_one_over_k_converges():
    # a = 1 + 1/k = 131, b = v - 1/k = 1 and S(tau) = 0.0232, just above the
    # tail's split 4/(a - 1): the head series runs to t = 0.977 with terms
    # that fall by about t per step.  The RMST is 5.3e-211.
    k, v, tau = 0.0077, 1.0 / 0.0077 + 1.0, 100.0
    mu = math.log(1.0 / 0.0232 - 1.0) - k * math.log(tau)
    assert _misses(Family.LOG_LOGISTIC, [(mu, k, v, tau)]) == []
