"""Survival-family kernels: densities, survivals, hazards, effect
conditioning, and parameter validation."""

import itertools
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmstbayes import cli
from rmstbayes.families import (EffectKind, EffectValue, Family, FamilyParams,
                                NO_EFFECT, frailty, kernel_args, log_hazard_survival,
                                random_offset)
from rmstbayes.inference import Model, ModelSpec
from rmstbayes.rmst import rmst_value
from rmstbayes.simulation import ScenarioConfig, generate_scenario
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


@pytest.mark.parametrize("family, message, refused", [
    (Family.EXPONENTIAL, "exponential requires lam > 0",
     [dict(), dict(lam=0.0), dict(lam=-1.0), dict(lam=math.nan)]),
    (Family.WEIBULL, "weibull requires lam > 0 and k > 0",
     [dict(k=2.0), dict(lam=0.02), dict(lam=-1.0, k=2.0), dict(lam=0.02, k=0.0)]),
    (Family.LOG_LOGISTIC, "loglogistic requires finite mu and k > 0",
     [dict(k=2.0), dict(mu=1.0), dict(mu=math.inf, k=2.0), dict(mu=1.0, k=-2.0)]),
    (Family.LOG_NORMAL, "lognormal requires finite mu and sigma2 > 0",
     [dict(sigma2=1.0), dict(mu=1.0), dict(mu=math.nan, sigma2=1.0), dict(mu=1.0, sigma2=0.0)]),
])
def test_each_family_names_its_domain_when_refused(family, message, refused):
    for given in refused:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FamilyParams(family, **given)


@pytest.mark.parametrize("p, eta, shape, shape_name", [
    (FamilyParams.exponential(0.02), math.log(0.02), None, "k"),
    (FamilyParams.weibull(0.005, 1.7), math.log(0.005), 1.7, "k"),
    (FamilyParams.loglogistic(-9.0, 2.0), -9.0, 2.0, "k"),
    (FamilyParams.lognormal(3.0, 1.0), 3.0, 1.0, "sigma2"),
])
def test_each_family_reads_its_own_fields(p, eta, shape, shape_name):
    # eta is log lam or mu, and the shape slot is k, sigma2 or absent
    for e, effect in ((NO_EFFECT, 0.0), (random_offset(0.3), 0.3),
                      (frailty(2.0), math.log(2.0))):
        assert kernel_args(p, e) == (eta, shape, effect)
    spec = ModelSpec(p.family)
    assert spec.has_shape is (shape is not None)
    layout = Model(generate_scenario(ScenarioConfig("C", n=8), 0), spec).layout
    assert layout.shape_name == shape_name
    assert layout.column_names() == ("beta0", "beta1", "beta2")[:layout.q] + \
        ((shape_name,) if shape is not None else ())


def test_string_family_and_kind_are_coerced_and_checked():
    # a string names its enum member, as ModelSpec allows, so the checks run
    assert FamilyParams("weibull", lam=0.02, k=1.5).family is Family.WEIBULL
    assert EffectValue("random", 0.3).kind is EffectKind.RANDOM
    with pytest.raises(ValueError, match="weibull requires"):
        FamilyParams("weibull", lam=-1.0, k=2.0)
    with pytest.raises(ValueError, match="frailty value must be positive"):
        EffectValue("frailty", -1.0)
    with pytest.raises(ValueError, match="random offset must be finite"):
        EffectValue("random", math.inf)
    with pytest.raises(ValueError):
        FamilyParams("gompertz", lam=0.02)
    with pytest.raises(ValueError):
        EffectValue("shared", 1.0)
    assert rmst_value(FamilyParams("exponential", lam=0.02), NO_EFFECT, 10.0) == \
        rmst_value(FamilyParams.exponential(0.02), NO_EFFECT, 10.0)
    assert rmst_value(FamilyParams.weibull(0.02, 1.5), EffectValue("frailty", 2.0), 10.0) == \
        rmst_value(FamilyParams.weibull(0.02, 1.5), frailty(2.0), 10.0)


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


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("kind", list(EffectKind))
@pytest.mark.parametrize("block", [False, True])
def test_kernel_writes_no_argument(family, kind, block):
    # both return forms, with (n,) eta and a (1,) shape as one draw and with
    # (B, n) eta and a (B, 1) shape column as a block; the arguments are read
    # only, so a write into one raises, and their bytes are unchanged after
    rng = np.random.default_rng(31)
    lead, n = ((4,) if block else ()), 30
    t = rng.exponential(30.0, n) + 0.1
    event = (rng.random(n) < 0.6).astype(float)
    args = {"eta": rng.normal(-4.0, 1.0, (*lead, n)),
            "shape": None if family is Family.EXPONENTIAL
            else np.exp(rng.normal(0.2, 0.4, (*lead, 1))),
            "t": t, "logt": np.log(t), "event": event,
            "censored": np.flatnonzero(event == 0.0)}
    if kind is not EffectKind.NONE:
        args["effect"] = rng.normal(0.0, 0.5, args["eta"].shape)
    before = {}
    for name, x in args.items():
        if x is not None:
            x.flags.writeable = False
            before[name] = x.tobytes()
    rest = {k: v for k, v in args.items() if k not in ("event", "censored")}
    log_h, log_s = log_hazard_survival(family, kind=kind, **rest)
    rows_term = log_hazard_survival(family, kind=kind, **args)
    assert rows_term.shape == log_h.shape == log_s.shape == args["eta"].shape
    assert {name: args[name].tobytes() for name in before} == before


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


# The row term event*log h + log S of the exponential, Weibull and
# log-logistic families against 40-digit mpmath, over w = eta + k log t (plus
# log v for a proportional-hazards frailty, which folds into eta) across the
# double range.  Every grid value is a multiple of 2^-22 and k a multiple of
# 2^-20, so k log t and w are exact in floating point and the oracle takes
# the kernel's own inputs; log t, not t, is the exact input (t is its
# rounded exponential).  The points split by whether eta and w - log v are
# in [-745, 709] too, where the unfolded forms e^eta t (exponential) and
# e^(w - log v) v (proportional-hazards frailty) are representable; only
# the w-form is right on the others.
_ROW_W = tuple(round(w * 2.0 ** 20) / 2.0 ** 20 for w in np.linspace(-745.0, 709.0, 23))
_ROW_K = tuple(math.ceil(k * 2.0 ** 20) / 2.0 ** 20
               for k in (1e-3, 0.01, 0.3, 1.0, 1.7, 8.0, 50.0))
_ROW_LOG_T = (-6.0, -0.75, 0.0, 0.5, 3.25, 7.0)
_ROW_LOG_V = (-2.5, 0.75, 3.0)


def _exact_row(family, kind, eta, k, log_t, log_v, event) -> float:
    with mp.workdps(40):
        eta, k, log_t, log_v = (mp.mpf(x) for x in (eta, k, log_t, log_v))
        frail = kind is EffectKind.FRAILTY
        if family is Family.LOG_LOGISTIC:
            w = eta + k * log_t
            softplus = mp.log1p(mp.exp(w))
            log_h = w + mp.log(k) - log_t - softplus + (log_v if frail else 0)
            log_s = -(mp.exp(log_v) if frail else 1) * softplus
        else:
            w = eta + k * log_t + (log_v if frail else 0)
            log_h, log_s = w + mp.log(k) - log_t, -mp.exp(w)
        return float(log_h + log_s if event else log_s)


def _row_points(family, kind, unfolded_in_range):
    """(eta, k, log t, log v, event) over the grid, where eta and w - log v
    are both in [-745, 709] or not, as ``unfolded_in_range`` says."""
    shapes = (1.0,) if family is Family.EXPONENTIAL else _ROW_K
    log_vs = _ROW_LOG_V if kind is EffectKind.FRAILTY else (0.0,)
    points = []
    for w, k, log_t, log_v, event in itertools.product(_ROW_W, shapes, _ROW_LOG_T,
                                                       log_vs, (0.0, 1.0)):
        folded = log_v if family is not Family.LOG_LOGISTIC else 0.0
        eta = w - folded - k * log_t
        if (-745.0 <= eta <= 709.0 and -745.0 <= w - log_v <= 709.0) == unfolded_in_range:
            points.append((eta, k, log_t, log_v, event))
    return points


@pytest.mark.parametrize("unfolded_in_range", [True, False])
@pytest.mark.parametrize("family, kind", [
    (Family.EXPONENTIAL, EffectKind.NONE), (Family.EXPONENTIAL, EffectKind.FRAILTY),
    (Family.WEIBULL, EffectKind.NONE), (Family.WEIBULL, EffectKind.FRAILTY),
    (Family.LOG_LOGISTIC, EffectKind.NONE), (Family.LOG_LOGISTIC, EffectKind.FRAILTY)])
def test_row_term_matches_mpmath_over_the_double_range(family, kind, unfolded_in_range):
    eta, k, log_t, log_v, event = (np.array(x) for x in zip(
        *_row_points(family, kind, unfolded_in_range)))
    rows = log_hazard_survival(family, eta, None if family is Family.EXPONENTIAL else k,
                               np.exp(log_t), log_t, kind, log_v, event,
                               np.flatnonzero(event == 0.0))
    misses = []
    for row, point in zip(rows.tolist(), zip(eta, k, log_t, log_v, event)):
        exact = _exact_row(family, kind, *point)
        if not abs(row - exact) <= max(1e-14 * abs(exact), 1e-13):
            misses.append((point, row, exact))
    assert len(rows) >= 10
    assert misses == []
