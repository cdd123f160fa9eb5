"""Every exact closed-form RMST against 40-digit mpmath over the region a
posterior can reach.

The box: eta in [-40, 40], the shape k in [0.005, 30], sigma^2 in
[0.01, 100), a frailty v in [0.05, 20] and two horizons.  A random effect
only moves eta, so the exact forms are exponential and Weibull (a frailty
folds into eta), log-logistic with and without a frailty, and log-normal
without one; the log-normal frailty form is the paper's approximation.  The
oracles are exact special functions, not quadrature: ``mp.gammainc`` for the
proportional-hazard forms, Euler's integral tau 2F1(v, 1/k; 1 + 1/k; -e^mu
tau^k) for log-logistic and ``mp.ncdf`` for log-normal.

Each point matches to 1e-10 relative, or it lies in a listed region where
the form refuses with ValueError.  No point may raise RuntimeError.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from rmstbayes.families import EffectKind, Family
from rmstbayes.rmst import rmst_closed_form

_DPS = 40
_ETAS = tuple(float(x) for x in np.linspace(-40.0, 40.0, 17))
_SHAPES = (0.005, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
_SIGMA2 = (0.01, 0.1, 1.0, 10.0, 99.0)
_FRAILTIES = (0.05, 1.0, 20.0)  # v = 1: no frailty
_TAUS = (0.5, 100.0)
_REL_TOL = 1e-10
_LOG_MAX = math.log(sys.float_info.max)

# Log-logistic points where the incomplete beta's tail series in (1 - t)
# cancels (its coefficients alternate and grow like binomial(1/k, n)): the
# value is wrong, or negative and refused.  ROADMAP.md lists the defect and a
# positive-term series that would mend it.  (mu, k, v, tau)
_CANCELLING = frozenset([
    *((0.0, k, v, 100.0) for k in (0.005, 0.01, 0.03) for v in _FRAILTIES),
    *((mu, 0.03, 20.0, tau) for mu in (25.0, 30.0, 35.0) for tau in _TAUS),
])


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
        sigma2 = mp.mpf(shape)
        sigma, log_tau = mp.sqrt(sigma2), mp.log(tau)
        return float(mp.exp(eta + sigma2 / 2) * mp.ncdf((log_tau - eta - sigma2) / sigma)
                     + tau * mp.ncdf((eta - log_tau) / sigma))


def _points(family):
    """(eta, shape, v, tau) over the box for one family."""
    shapes = {Family.EXPONENTIAL: (None,), Family.LOG_NORMAL: _SIGMA2}.get(family, _SHAPES)
    frailties = (1.0,) if family is Family.LOG_NORMAL else _FRAILTIES
    return [(eta, shape, v, tau) for eta in _ETAS for shape in shapes
            for v in frailties for tau in _TAUS]


def _refusable(family, eta, shape, v, tau, exact) -> bool:
    """The listed regions where a ValueError is the right answer."""
    if exact < sys.float_info.min:  # the RMST itself is below the normal range
        return True
    if family is Family.LOG_LOGISTIC:
        # S(tau) = 1/(1 + e^w) < 1/2, and the first piece of the beta's tail
        # series, S(tau)^(v - 1/k), overflows
        w = eta + shape * math.log(tau)
        return w > 0.0 and (1.0 / shape - v) * math.log1p(math.exp(w)) > _LOG_MAX
    return False


def _misses(family, points):
    """The points that neither match the oracle nor refuse where refusing is
    listed."""
    misses = []
    for eta, shape, v, tau in points:
        exact = _exact(family, eta, shape, v, tau)
        kind = EffectKind.NONE if v == 1.0 else EffectKind.FRAILTY
        try:
            got = rmst_closed_form(family, eta, shape, tau, kind, math.log(v))
        except ValueError:
            if not _refusable(family, eta, shape, v, tau, exact):
                misses.append((eta, shape, v, tau, "ValueError", exact))
            continue
        # subnormal values carry fewer digits: the tolerance floors at the
        # smallest normal float
        if not abs(got - exact) <= _REL_TOL * max(exact, sys.float_info.min):
            misses.append((eta, shape, v, tau, got, exact))
    return misses


@pytest.mark.parametrize("family", list(Family))
def test_exact_closed_forms_match_mpmath_over_the_box(family):
    points = [p for p in _points(family)
              if not (family is Family.LOG_LOGISTIC and p in _CANCELLING)]
    assert _misses(family, points) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the incomplete beta's tail series cancels for small k")
def test_loglogistic_cancellation_points_match_mpmath():
    assert _CANCELLING <= set(_points(Family.LOG_LOGISTIC))
    assert _misses(Family.LOG_LOGISTIC, sorted(_CANCELLING)) == []


@pytest.mark.parametrize("family, eta, shape", [
    # gamma(a, z) was Gamma(a) P(a, z), and P's prefactor underflowed
    # (exponent about -864) while gamma(a, z) = 4.9e-220 did not: 7e-5 off
    (Family.WEIBULL, -5.0, 0.01),
    # lam = 1e-300: e^(-eta/k) overflows and gamma(a, z) underflows; the
    # RMST is about tau
    (Family.WEIBULL, math.log(1e-300), 1e-3),
    # the same pair for log-logistic: e^(-mu/k) beside an underflowing beta
    (Family.LOG_LOGISTIC, -300.0, 0.01),
])
def test_prefactor_outside_float_range_matches_mpmath(family, eta, shape):
    exact = _exact(family, eta, shape, 1.0, 100.0)
    assert math.isclose(rmst_closed_form(family, eta, shape, 100.0), exact, rel_tol=_REL_TOL)
