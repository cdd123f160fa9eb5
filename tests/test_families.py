"""Survival-family kernels: densities, survivals, hazards, effect
conditioning, and parameterization conversions."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from rmstbayes.families import (AltFamilyParams, EffectKind, EffectValue,
                                Family, FamilyParams, NO_EFFECT,
                                convert_loglogistic_alt, convert_weibull_alt,
                                frailty, hazard, log_density, log_survival,
                                random_offset, shifted)

mp.mp.dps = 30

PARAMS = [
    FamilyParams.exponential(0.02),
    FamilyParams.weibull(0.005, 1.7),
    FamilyParams.loglogistic(-9.0, 2.0),
    FamilyParams.lognormal(3.0, 1.0),
]


def _mp_log_survival(p, t):
    t = mp.mpf(t)
    if p.family is Family.EXPONENTIAL:
        return -mp.mpf(p.lam) * t
    if p.family is Family.WEIBULL:
        return -mp.mpf(p.lam) * t ** mp.mpf(p.k)
    if p.family is Family.LOG_LOGISTIC:
        return -mp.log(1 + mp.e ** mp.mpf(p.mu) * t ** mp.mpf(p.k))
    z = (mp.log(t) - mp.mpf(p.mu)) / mp.sqrt(mp.mpf(p.sigma2))
    return mp.log(1 - mp.ncdf(z))


@pytest.mark.parametrize("p", PARAMS)
def test_log_survival_matches_high_precision(p):
    for t in (0.01, 1.0, 10.0, 75.0, 300.0):
        ref = float(_mp_log_survival(p, t))
        assert math.isclose(log_survival(p, NO_EFFECT, t), ref, rel_tol=1e-10, abs_tol=1e-12)


@pytest.mark.parametrize("p", PARAMS)
def test_density_is_derivative_of_distribution(p):
    # f(t) = -dS/dt via central differences
    for t in (2.0, 20.0, 60.0):
        h = 1e-5 * t
        s_lo = math.exp(log_survival(p, NO_EFFECT, t - h))
        s_hi = math.exp(log_survival(p, NO_EFFECT, t + h))
        f_num = (s_lo - s_hi) / (2 * h)
        f = math.exp(log_density(p, NO_EFFECT, t))
        assert math.isclose(f, f_num, rel_tol=1e-6)


@pytest.mark.parametrize("p", PARAMS)
def test_hazard_is_density_over_survival(p):
    for t in (2.0, 20.0, 60.0):
        f = math.exp(log_density(p, NO_EFFECT, t))
        s = math.exp(log_survival(p, NO_EFFECT, t))
        assert math.isclose(hazard(p, NO_EFFECT, t), f / s, rel_tol=1e-12)


@pytest.mark.parametrize("p", PARAMS)
def test_identity_effects_reduce_to_base(p):
    for t in (1.0, 30.0):
        base = log_survival(p, NO_EFFECT, t)
        assert log_survival(p, random_offset(0.0), t) == base
        assert log_survival(p, frailty(1.0), t) == base
        assert log_density(p, frailty(1.0), t) == log_density(p, NO_EFFECT, t)


@pytest.mark.parametrize("p", PARAMS)
def test_frailty_exponentiates_survival(p):
    for v in (0.4, 2.5):
        for t in (5.0, 50.0):
            assert math.isclose(log_survival(p, frailty(v), t),
                                v * log_survival(p, NO_EFFECT, t), rel_tol=1e-14)
            # f = v h S^v
            expected = math.log(v) + math.log(hazard(p, NO_EFFECT, t)) \
                + v * log_survival(p, NO_EFFECT, t)
            assert math.isclose(log_density(p, frailty(v), t), expected, rel_tol=1e-10)


def test_random_offset_scales_rate_and_shifts_location():
    e = random_offset(0.7)
    p_exp = FamilyParams.exponential(0.02)
    assert math.isclose(log_survival(p_exp, e, 10.0),
                        log_survival(FamilyParams.exponential(0.02 * math.exp(0.7)),
                                     NO_EFFECT, 10.0), rel_tol=1e-14)
    p_ll = FamilyParams.loglogistic(-9.0, 2.0)
    assert math.isclose(log_survival(p_ll, e, 10.0),
                        log_survival(FamilyParams.loglogistic(-8.3, 2.0),
                                     NO_EFFECT, 10.0), rel_tol=1e-14)


def test_shifted_preserves_family():
    for p in PARAMS:
        assert shifted(p, 0.3).family is p.family
        assert shifted(p, 0.0) is p


def test_param_validation():
    with pytest.raises(ValueError):
        FamilyParams.exponential(-1.0)
    with pytest.raises(ValueError):
        FamilyParams.weibull(1.0, 0.0)
    with pytest.raises(ValueError):
        FamilyParams.loglogistic(math.inf, 2.0)
    with pytest.raises(ValueError):
        FamilyParams.lognormal(0.0, 0.0)
    with pytest.raises(ValueError):
        EffectValue(EffectKind.FRAILTY, 0.0)
    with pytest.raises(ValueError):
        log_survival(PARAMS[0], NO_EFFECT, 0.0)


def test_weibull_alt_round_trip():
    alt = AltFamilyParams(Family.WEIBULL, scale=20.0, k=1.5)
    p = convert_weibull_alt(alt)
    assert math.isclose(p.lam, 20.0 ** -1.5, rel_tol=1e-15)
    assert math.isclose(p.lam ** (-1.0 / p.k), 20.0, rel_tol=1e-12) and p.k == 1.5
    # S(scale) = 1/e in the time-scale parameterization
    assert math.isclose(log_survival(p, NO_EFFECT, 20.0), -1.0, rel_tol=1e-12)


def test_loglogistic_alt_round_trip():
    alt = AltFamilyParams(Family.LOG_LOGISTIC, scale=50.0, k=2.0)
    p = convert_loglogistic_alt(alt)
    assert math.isclose(p.mu, -2.0 * math.log(50.0), rel_tol=1e-15)
    assert math.isclose(math.exp(-p.mu / p.k), 50.0, rel_tol=1e-12)
    # S(scale) = 1/2 in the time-scale parameterization
    assert math.isclose(math.exp(log_survival(p, NO_EFFECT, 50.0)), 0.5, rel_tol=1e-12)


def test_alt_params_reject_wrong_family():
    with pytest.raises(ValueError):
        AltFamilyParams(Family.EXPONENTIAL, scale=1.0, k=1.0)
    with pytest.raises(ValueError):
        convert_weibull_alt(AltFamilyParams(Family.LOG_LOGISTIC, scale=1.0, k=1.0))


@given(st.floats(0.1, 500.0), st.floats(-1.5, 1.5), st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_survival_decreasing_and_bounded(t, u, v):
    for p in PARAMS:
        for e in (NO_EFFECT, random_offset(u), frailty(v)):
            ls1 = log_survival(p, e, t)
            ls2 = log_survival(p, e, t * 1.5)
            assert ls1 <= 0.0 + 1e-15
            assert ls2 <= ls1 + 1e-12
