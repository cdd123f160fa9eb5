"""Survival-family kernels: densities, survivals, hazards, effect
conditioning, and parameter validation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmstbayes import cli
from rmstbayes.families import (EffectKind, EffectValue, Family, FamilyParams,
                                NO_EFFECT, frailty, log_hazard_survival, random_offset)
from tests.conftest import log_h_s

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
        assert math.isclose(log_h_s(p, NO_EFFECT, t)[1], ref, rel_tol=1e-10, abs_tol=1e-12)


@pytest.mark.parametrize("p", PARAMS)
def test_density_is_derivative_of_distribution(p):
    # f(t) = -dS/dt via central differences
    for t in (2.0, 20.0, 60.0):
        h = 1e-5 * t
        s_lo = math.exp(log_h_s(p, NO_EFFECT, t - h)[1])
        s_hi = math.exp(log_h_s(p, NO_EFFECT, t + h)[1])
        f_num = (s_lo - s_hi) / (2 * h)
        f = math.exp(sum(log_h_s(p, NO_EFFECT, t)))
        assert math.isclose(f, f_num, rel_tol=1e-6)


@pytest.mark.parametrize("p", PARAMS)
def test_hazard_is_density_over_survival(p):
    for t in (2.0, 20.0, 60.0):
        f = math.exp(sum(log_h_s(p, NO_EFFECT, t)))
        s = math.exp(log_h_s(p, NO_EFFECT, t)[1])
        assert math.isclose(math.exp(log_h_s(p, NO_EFFECT, t)[0]), f / s, rel_tol=1e-12)


@pytest.mark.parametrize("p", PARAMS)
def test_identity_effects_reduce_to_base(p):
    for t in (1.0, 30.0):
        base = log_h_s(p, NO_EFFECT, t)[1]
        assert log_h_s(p, random_offset(0.0), t)[1] == base
        assert log_h_s(p, frailty(1.0), t)[1] == base
        assert sum(log_h_s(p, frailty(1.0), t)) == sum(log_h_s(p, NO_EFFECT, t))


@pytest.mark.parametrize("p", PARAMS)
def test_frailty_exponentiates_survival(p):
    for v in (0.4, 2.5):
        for t in (5.0, 50.0):
            assert math.isclose(log_h_s(p, frailty(v), t)[1],
                                v * log_h_s(p, NO_EFFECT, t)[1], rel_tol=1e-14)
            # f = v h S^v
            log_h, log_s = log_h_s(p, NO_EFFECT, t)
            expected = math.log(v) + log_h + v * log_s
            assert math.isclose(sum(log_h_s(p, frailty(v), t)), expected, rel_tol=1e-10)


def test_random_offset_scales_rate_and_shifts_location():
    e = random_offset(0.7)
    p_exp = FamilyParams.exponential(0.02)
    assert math.isclose(log_h_s(p_exp, e, 10.0)[1],
                        log_h_s(FamilyParams.exponential(0.02 * math.exp(0.7)),
                                NO_EFFECT, 10.0)[1], rel_tol=1e-14)
    p_ll = FamilyParams.loglogistic(-9.0, 2.0)
    assert math.isclose(log_h_s(p_ll, e, 10.0)[1],
                        log_h_s(FamilyParams.loglogistic(-8.3, 2.0), NO_EFFECT, 10.0)[1],
                        rel_tol=1e-14)


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
    for u in (math.nan, math.inf, np.array([0.1, -math.inf])):
        with pytest.raises(ValueError):
            random_offset(u)
    assert np.array_equal(random_offset(np.array([0.1, -0.2])).value, [0.1, -0.2])


@pytest.mark.parametrize("family, given, unused", [
    (Family.EXPONENTIAL, dict(lam=0.02, k=2.0), "k"),
    (Family.WEIBULL, dict(lam=0.02, k=2.0, mu=5.0), "mu"),
    (Family.LOG_LOGISTIC, dict(lam=0.02, mu=1.0, k=2.0), "lam"),
    (Family.LOG_NORMAL, dict(mu=1.0, sigma2=0.5, k=2.0, lam=0.1), "lam or k"),
])
def test_params_a_family_does_not_take_are_refused(family, given, unused):
    # a value that would be ignored is refused rather than recorded unused
    with pytest.raises(ValueError, match=f"{family.value} takes no {unused}$"):
        FamilyParams(family, **given)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("kind", list(EffectKind))
def test_block_of_shapes_equals_scalar_calls_bitwise(family, kind):
    """A (B, 1) column of shapes with (B, n) eta and effects, as WAIC's
    blocks pass them, gives row b of the scalar-shape call for draw b."""
    rng = np.random.default_rng(17)
    b, n = 7, 40
    t = rng.exponential(30.0, n) + 0.1
    logt = np.log(t)
    eta = rng.normal(-4.0, 1.0, (b, n))
    shape = None if family is Family.EXPONENTIAL else np.exp(rng.normal(0.2, 0.4, (b, 1)))
    effect = 0.0 if kind is EffectKind.NONE else rng.normal(0.0, 0.5, (b, n))
    log_h, log_s = log_hazard_survival(family, eta, shape, t, logt, kind, effect)
    assert log_h.shape == log_s.shape == (b, n)
    for row in range(b):
        row_shape = None if shape is None else float(shape[row, 0])
        row_effect = effect if kind is EffectKind.NONE else effect[row]
        h, s = log_hazard_survival(family, eta[row], row_shape, t, logt, kind, row_effect)
        assert np.array_equal(log_h[row], h) and np.array_equal(log_s[row], s)


def _scale_params(monkeypatch, argv):
    """The FamilyParams that `rmstbayes rmst --scale` builds, or None if it
    exits before computing an RMST."""
    seen = []

    def record(params, effect, tau):
        seen.append(params)
        return 0.0
    monkeypatch.setattr(cli, "rmst_value", record)
    cli.main(["rmst", "--tau", "100"] + argv)
    return seen[0] if seen else None


def test_weibull_alt_round_trip(monkeypatch, capsys):
    p = _scale_params(monkeypatch, ["--family", "weibull", "--scale", "20", "--k", "1.5"])
    assert math.isclose(p.lam, 20.0 ** -1.5, rel_tol=1e-15)
    assert math.isclose(p.lam ** (-1.0 / p.k), 20.0, rel_tol=1e-12) and p.k == 1.5
    # S(scale) = 1/e in the time-scale parameterization
    assert math.isclose(log_h_s(p, NO_EFFECT, 20.0)[1], -1.0, rel_tol=1e-12)


def test_loglogistic_alt_round_trip(monkeypatch, capsys):
    p = _scale_params(monkeypatch, ["--family", "loglogistic", "--scale", "50", "--k", "2"])
    assert math.isclose(p.mu, -2.0 * math.log(50.0), rel_tol=1e-15)
    assert math.isclose(math.exp(-p.mu / p.k), 50.0, rel_tol=1e-12)
    # S(scale) = 1/2 in the time-scale parameterization
    assert math.isclose(math.exp(log_h_s(p, NO_EFFECT, 50.0)[1]), 0.5, rel_tol=1e-12)


def test_alt_params_reject_wrong_family(monkeypatch, capsys):
    for family in ("exponential", "lognormal"):
        with pytest.raises(SystemExit) as exc:
            _scale_params(monkeypatch, ["--family", family, "--scale", "1", "--k", "1"])
        assert exc.value.code == 2


@given(st.floats(0.1, 500.0), st.floats(-1.5, 1.5), st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_survival_decreasing_and_bounded(t, u, v):
    for p in PARAMS:
        for e in (NO_EFFECT, random_offset(u), frailty(v)):
            ls1 = log_h_s(p, e, t)[1]
            ls2 = log_h_s(p, e, t * 1.5)[1]
            assert ls1 <= 0.0 + 1e-15
            assert ls2 <= ls1 + 1e-12
