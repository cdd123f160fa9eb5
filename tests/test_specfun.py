"""Special-function kernels against high-precision mpmath oracles and
analytic identities."""

import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import log_ndtr, ndtr

import rmstbayes.specfun as S
from rmstbayes.specfun import (incomplete_beta_compl,
                               log_std_normal_sf, lower_incomplete_gamma,
                               std_normal_sf)

mp.mp.dps = 40


# ---------------------------------------------------------------- gamma ---

def test_lower_incomplete_gamma_against_mpmath_grid():
    worst = 0.0
    for a in (0.05, 0.3, 0.7, 1.0, 1.5, 2.5, 5.0, 11.0, 30.0):
        for z in (1e-6, 0.01, 0.2, 0.9, 1.0, 2.3, 7.0, 25.0, 120.0):
            got = lower_incomplete_gamma(z, a)
            ref = float(mp.gammainc(a, 0, z))
            worst = max(worst, abs(got - ref) / ref)
    assert worst < 1e-12


def test_lower_incomplete_gamma_array_matches_scalar_calls():
    # the mpmath grid as one array: series (z < a + 1) and continued-fraction
    # entries side by side, plus z = 0 and z = inf
    a_vals = (0.05, 0.3, 0.7, 1.0, 1.5, 2.5, 5.0, 11.0, 30.0)
    z_vals = (0.0, 1e-6, 0.01, 0.2, 0.9, 1.0, 2.3, 7.0, 25.0, 120.0, math.inf)
    a = np.repeat(a_vals, len(z_vals))
    z = np.tile(z_vals, len(a_vals))
    assert np.any((z > 0) & (z < a + 1)) and np.any(np.isfinite(z) & (z >= a + 1))
    got = lower_incomplete_gamma(z, a)
    assert got.shape == z.shape
    scalar = np.array([lower_incomplete_gamma(float(zi), float(ai)) for zi, ai in zip(z, a)])
    np.testing.assert_allclose(got, scalar, rtol=1e-15, atol=0.0)
    assert np.all(got[z == 0.0] == 0.0)
    ref = np.array([float(mp.gammainc(ai, 0, zi)) for zi, ai in zip(z, a) if zi > 0.0])
    assert np.max(np.abs(got[z > 0.0] - ref) / ref) < 1e-12
    # broadcasting keeps the shape; a scalar call gives a float
    grid = lower_incomplete_gamma(z.reshape(len(a_vals), -1), 2.5)
    assert grid.shape == (len(a_vals), len(z_vals))
    assert isinstance(lower_incomplete_gamma(2.3, 1.5), float)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        lower_incomplete_gamma(np.array([1.0, -2.0]), 1.0)


def test_lower_incomplete_gamma_limits():
    assert lower_incomplete_gamma(0.0, 2.3) == 0.0
    assert math.isclose(lower_incomplete_gamma(math.inf, 4.0),
                        math.factorial(3), rel_tol=1e-14)
    # a = 1 reduces to 1 - e^{-z}
    assert math.isclose(lower_incomplete_gamma(3.0, 1.0), 1 - math.exp(-3), rel_tol=1e-14)


def test_lower_incomplete_gamma_is_gamma_where_the_upper_tail_underflows():
    # the continued fraction stalled one ulp off 1 at some huge finite z (seen
    # at z = 1.8e12 and past 1.8e16); there the value is Gamma(a), as at z = inf
    a = np.array([1.05, 1.5, 2.13741479662698, 3.0, 21.0])
    z = np.exp(np.linspace(math.log(1e16), 700.0, 60))[:, None]
    got = lower_incomplete_gamma(z, a)
    assert np.array_equal(got, np.broadcast_to(lower_incomplete_gamma(math.inf, a), got.shape))
    assert (lower_incomplete_gamma(1805217133758.7551, 2.13741479662698)
            == lower_incomplete_gamma(math.inf, 2.13741479662698))


def test_lower_incomplete_gamma_rejects_bad_domain():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-0.5, 1.0)


@given(st.floats(0.05, 50.0), st.floats(1e-6, 200.0), st.floats(1e-6, 200.0))
@example(a=0.05000000000000001, z1=0.05, z2=0.05000000000000001)
@settings(max_examples=60, deadline=None)
def test_lower_incomplete_gamma_monotone_in_z(a, z1, z2):
    # monotone up to a few ulp: near z = a the last digit may step back
    lo, hi = sorted((z1, z2))
    bound = lower_incomplete_gamma(hi, a) * (1 + 4 * sys.float_info.epsilon)
    assert lower_incomplete_gamma(lo, a) <= bound


# -------------------------------------------------------- live-set loop ---

def _expansion_states(which, rng, size):
    """(step, state) of one expansion on seeded inputs whose elements converge
    at widely spread steps, as its caller builds the state."""
    a = rng.uniform(0.05, 60.0, size)
    ones = np.ones(size)
    if which == "gamma series":  # z < a + 1
        term = 1.0 / a
        return S._gamma_series_step, (term, term, a, (a + 1.0) * rng.uniform(0.0, 1.0, size))
    if which == "gamma continued fraction":  # z >= a + 1
        b = 2.0 + rng.exponential(20.0, size)  # z + 1 - a
        return S._gamma_cf_step, (1.0 / b, ones / S._TINY, 1.0 / b, b, a)
    return S._beta_head_step, (ones, ones, rng.uniform(0.01, 0.9, size), a,
                               rng.uniform(0.1, 30.0, size))


@pytest.mark.parametrize("which", ["gamma series", "gamma continued fraction", "beta head"])
def test_converge_matches_one_element_loops_bitwise(which):
    # each element's value is the one a loop over that element alone gives,
    # whichever steps its neighbours converge at
    step, state = _expansion_states(which, np.random.default_rng(29), 200)
    got = S._converge(step, state, which)
    steps = []

    def counted(n, *x):
        steps[-1] = n
        return step(n, *x)

    for i in range(len(got)):
        steps.append(0)
        alone = S._converge(counted, tuple(x[i:i + 1] for x in state), which)
        assert alone.tobytes() == got[i:i + 1].tobytes(), i
    assert len(set(steps)) >= 20 and max(steps) >= 4 * min(steps), sorted(set(steps))


def test_converge_returns_at_once_on_an_empty_state():
    def step(n, *state):
        raise AssertionError("an empty state was stepped")

    assert S._converge(step, (np.empty(0), np.empty(0)), "no expansion").shape == (0,)
    # all on the series, or all on the continued fraction: the other part of
    # the loop is handed an empty subset
    for z in ([0.5, 2.0, 5.0], [7.0, 20.0, 90.0]):
        got = lower_incomplete_gamma(np.array(z), 5.0)
        assert got.tolist() == [lower_incomplete_gamma(x, 5.0) for x in z]


def test_converge_names_the_expansion_that_fails():
    # element x converges at step n = x + 1; _MAX_ITER steps are taken, no more
    def step(n, x):
        return (x,), x < n

    last = float(S._MAX_ITER - 1)
    assert S._converge(step, (np.array([1.0, 7.0, last]),), "toy").tolist() == [1.0, 7.0, last]
    with pytest.raises(RuntimeError, match="^toy expansion failed to converge$"):
        S._converge(step, (np.array([1.0, 7.0, last + 1.0]),), "toy expansion")
    # at z = a = 1e8 the series needs about 1e5 terms; its neighbours converge
    with (pytest.raises(RuntimeError, match="^incomplete gamma series failed to converge$"),
          np.errstate(over="ignore")):  # its front e^(-z) z^a overflows
        lower_incomplete_gamma(np.array([0.5, 1e8, 2.0, 1.0]), np.array([1.0, 1e8, 3.0, 2.0]))


# ----------------------------------------------------------------- beta ---

def _beta_ref(z, a, b):
    # raw integral via mpmath's regularized incomplete beta
    return float(mp.betainc(a, b, 0, z, regularized=False))


def test_incomplete_beta_positive_b_grid():
    worst = 0.0
    for a in (0.07, 0.5, 1.0, 1.5, 3.3, 10.0, 19.7):
        for b in (0.04, 0.5, 1.0, 2.6, 8.0):
            for z in (1e-5, 0.1, 0.4, 0.5, 0.7, 0.95, 0.999, 1.0):
                got = incomplete_beta_compl(1 - z, a, b)
                ref = _beta_ref(z, a, b)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10


def test_incomplete_beta_nonpositive_b_grid():
    # b <= 0 arises from frailty log-logistic (b = v - 1/k); z < 1 required.
    worst = 0.0
    for a in (1.3, 1.5, 2.0, 4.5, 19.7):
        for b in (0.0, -0.25, -0.5, -1.0, -2.7, -5.5):
            for z in (0.05, 0.3, 0.5, 0.8, 0.97, 0.9999):
                got = incomplete_beta_compl(1 - z, a, b)
                ref = float(mp.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                                    [0, z / 2, z]))
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-9


def test_incomplete_beta_array_matches_scalar_calls():
    # both grids as one array: continued-fraction (b > 1e-4) and series
    # (b <= 1e-4) entries side by side, plus 1 - z = 0 and z = 0
    points = [(a, b, z) for a in (0.07, 0.5, 1.0, 1.5, 3.3, 10.0, 19.7)
              for b in (0.04, 0.5, 1.0, 2.6, 8.0)
              for z in (0.0, 1e-5, 0.1, 0.4, 0.5, 0.7, 0.95, 0.999, 1.0)]
    points += [(a, b, z) for a in (1.3, 1.5, 2.0, 4.5, 19.7)
               for b in (0.0, -0.25, -0.5, -1.0, -2.7, -5.5)
               for z in (0.0, 0.05, 0.3, 0.5, 0.8, 0.97, 0.9999)]
    a, b, z = (np.array(x) for x in zip(*points))
    assert np.any(b > 1e-4) and np.any(b <= 1e-4) and np.any(z == 0.0) and np.any(z == 1.0)
    got = incomplete_beta_compl(1 - z, a, b)
    assert got.shape == z.shape
    scalar = np.array([incomplete_beta_compl(1 - float(zi), float(ai), float(bi))
                       for ai, bi, zi in points])
    assert np.array_equal(got, scalar)
    assert np.all(got[z == 0.0] == 0.0)
    assert isinstance(incomplete_beta_compl(0.3, 1.5, 0.5), float)
    with pytest.raises(ValueError):
        incomplete_beta_compl(np.array([0.5, 0.0]), 1.5, np.array([1.0, -0.5]))


def test_incomplete_beta_just_below_zero_b_matches_mpmath():
    # a log-logistic frailty case (b = v - 1/k just below 0, 1 - z < 1/2)
    # where a downward recurrence in b was off by 5.7e-12
    s0, a, b = 0.3720159899949766, 2.7300200748493504, -0.0005398800982825414
    with mp.workdps(40):
        ref = float(mp.betainc(a, b, 0, 1 - mp.mpf(s0), regularized=False))
    assert math.isclose(incomplete_beta_compl(s0, a, b), ref, rel_tol=1e-13)


def test_incomplete_beta_full_range_is_beta_function():
    for a, b in ((1.5, 0.5), (2.0, 3.0), (0.3, 0.7)):
        got = incomplete_beta_compl(0.0, a, b)
        ref = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert math.isclose(got, ref, rel_tol=1e-12)


def test_incomplete_beta_diverges_at_one_for_nonpositive_b():
    with pytest.raises(ValueError):
        incomplete_beta_compl(0.0, 1.5, -0.5)


def test_incomplete_beta_rejects_bad_domain():
    with pytest.raises(ValueError):
        incomplete_beta_compl(1.1, 1.0, 1.0)  # z = -0.1
    with pytest.raises(ValueError):
        incomplete_beta_compl(-0.1, 1.0, 1.0)  # z = 1.1
    with pytest.raises(ValueError):
        incomplete_beta_compl(0.5, 0.0, 1.0)


def test_incomplete_beta_compl_accurate_near_one():
    # the complement entry point must not lose precision when z ~ 1
    s0 = 1e-14
    a, b = 1.5, 0.5
    got = incomplete_beta_compl(s0, a, b)
    ref = float(mp.betainc(a, b, 0, mp.mpf(1) - mp.mpf(s0), regularized=False))
    assert abs(got - ref) / ref < 1e-10


@given(st.floats(0.1, 20.0), st.floats(-4.0, 6.0),
       st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@example(a=1.0, b=5e-324, z1=0.5, z2=0.75)  # a subnormal b
@example(a=2.0, b=5e-324, z1=0.5, z2=0.75)
@settings(max_examples=60, deadline=None)
def test_incomplete_beta_monotone_in_z(a, b, z1, z2):
    lo, hi = sorted((z1, z2))
    assert (incomplete_beta_compl(1 - lo, a, b)
            <= incomplete_beta_compl(1 - hi, a, b) * (1 + 1e-9) + 1e-15)


@given(st.floats(0.2, 10.0), st.floats(-3.0, 5.0), st.floats(0.02, 0.98))
@settings(max_examples=60, deadline=None)
def test_incomplete_beta_recurrence_identity(a, b, z):
    # B(z;a,b) = ((a+b)/b) B(z;a,b+1) - z^a (1-z)^b / b
    if abs(b) < 1e-3 or abs(round(b) - b) < 1e-3:
        return
    left = incomplete_beta_compl(1 - z, a, b)
    right = ((a + b) / b * incomplete_beta_compl(1 - z, a, b + 1.0)
             - z ** a * (1 - z) ** b / b)
    assert math.isclose(left, right, rel_tol=1e-7, abs_tol=1e-12)


# --------------------------------------------------------------- normal ---

def test_std_normal_cdf_against_mpmath():
    for x in (-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0):
        assert math.isclose(std_normal_sf(-x), float(mp.ncdf(x)), rel_tol=1e-14)
        assert math.isclose(std_normal_sf(x), float(1 - mp.ncdf(x)), rel_tol=1e-13)


def test_log_std_normal_sf_deep_tail():
    for x in (1.0, 5.0, 10.0, 24.9, 25.1, 30.0, 40.0, 100.0):
        ref = float(mp.log(mp.erfc(x / mp.sqrt(2)) / 2))
        assert math.isclose(log_std_normal_sf(x), ref, rel_tol=1e-9), x


@given(st.floats(-30.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_normal_cdf_sf_complement(x):
    assert math.isclose(std_normal_sf(-x) + std_normal_sf(x), 1.0, abs_tol=1e-14)


def _max_rel(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def test_log_std_normal_sf_array_against_scipy():
    # 10^5 points in each band: the asymptotic series takes over at x = 25,
    # and below x = -37 the value (about -q) nears the subnormal range,
    # where only an absolute bound means anything
    body = np.linspace(-37.0, 25.0, 100_001)[:-1]
    assert _max_rel(log_std_normal_sf(body), log_ndtr(-body)) <= 1e-12
    tail = np.linspace(25.0, 40.0, 100_000)
    assert _max_rel(log_std_normal_sf(tail), log_ndtr(-tail)) <= 1e-11
    deep = np.linspace(-1e3, -37.0, 100_000)
    assert np.max(np.abs(log_std_normal_sf(deep) - log_ndtr(-deep))) <= 1e-300


def test_std_normal_sf_array_against_scipy():
    # Where the tail is a normal float.  One rounding of x / sqrt 2 moves
    # Phi-bar(x) by about x^2 eps relative, in this function and in the
    # oracle alike, so past x = 15 the bound grows with x^2.
    x = np.linspace(-40.0, 37.5, 100_001)
    ref = ndtr(-x)
    assert np.all(ref > sys.float_info.min)
    rel = np.abs(std_normal_sf(x) - ref) / ref
    assert np.all(rel <= 1e-13 * np.maximum(1.0, x / 15.0) ** 2)


def test_normal_tails_take_arrays_and_scalars_alike():
    edges = [40.0, -40.0, 1e3, -1e3, math.inf, -math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_sf = log_std_normal_sf(np.array(edges))
        sf = std_normal_sf(np.array(edges))
        for i, x in enumerate(edges):
            assert isinstance(log_std_normal_sf(x), float)
            assert isinstance(std_normal_sf(x), float)
            assert log_std_normal_sf(x) == log_sf[i] and std_normal_sf(x) == sf[i]
    assert list(log_sf[1::2]) == [0.0, 0.0, 0.0] and log_sf[4] == -math.inf
    assert np.all(np.diff(log_sf[[0, 2, 4]]) < 0.0)
    assert list(sf) == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    grid = np.linspace(-3.0, 30.0, 12).reshape(3, 4)
    assert log_std_normal_sf(grid).shape == std_normal_sf(grid).shape == (3, 4)
