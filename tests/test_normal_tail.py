"""The numpy normal tail against mpmath at 50 digits: the erfcx table, the
switch points of the tails built on it, and the fit of the table itself."""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

from rmstbayes import specfun
from rmstbayes.families import EffectKind, Family
from rmstbayes.inference import Model, ModelSpec, pointwise_log_likelihood
from rmstbayes.specfun import _erfcx, log_std_normal_sf, std_normal_sf

TINY = sys.float_info.min  # below it results are subnormal: only absolute bounds hold
SUBNORMAL_ULP = 5e-324
ROWS = specfun._ERFCX_ROWS


def _around(points):
    """Each point with its two float neighbours."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([np.nextafter(points, -np.inf), points, np.nextafter(points, np.inf)])


def _row_edges():
    # row j of the erfcx table starts at u = 64 / (1 + a) = j
    return np.array([ROWS / j - 1.0 for j in range(1, ROWS + 1)])


def _erfcx_ref(a):
    a = mp.mpf(a)
    if a < 1e4:
        return mp.exp(a * a) * mp.erfc(a)
    # mpmath's erfc gives up on huge arguments; there the asymptotic series
    # is exact to far more than 50 digits after five terms
    s = 1 / (2 * a * a)
    return (1 - s + 3 * s**2 - 15 * s**3 + 105 * s**4 - 945 * s**5) / (a * mp.sqrt(mp.pi))


def _log_sf_ref(x):
    q = mp.erfc(abs(mp.mpf(x)) / mp.sqrt(2)) / 2
    return mp.log(q) if x > 0 else mp.log1p(-q)


def _sf_ref(x):
    q = mp.erfc(abs(mp.mpf(x)) / mp.sqrt(2)) / 2
    return q if x > 0 else 1 - q


def test_erfcx_within_four_ulp_of_mpmath():
    rng = np.random.default_rng(19)
    a = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-17, 1e-8],
        _around(_row_edges()),  # a = 0 and a = 63, the switch to the continued fraction
        np.linspace(0.0, 70.0, 701),
        np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 600)),
        [1e4, 1e10, 1e20, 1e100, 1e300, sys.float_info.max],
    ])
    a = a[a >= 0.0]
    got = _erfcx(a)
    with mp.workdps(50):
        ulps = [float(abs(mp.mpf(g) - _erfcx_ref(v))) / np.spacing(g) for g, v in zip(got, a)]
    worst = int(np.argmax(ulps))
    assert ulps[worst] <= 4.0, (a[worst], ulps[worst])


def _tail_grid():
    # every row edge as x = +-sqrt(2) a, the sign switch at 0 and the cap at
    # |x| = 40 of the e^(-x^2/2) product, where the tail underflows (38.5)
    edges = math.sqrt(2.0) * _row_edges()
    switches = _around(np.concatenate([edges, -edges, [0.0, 37.5, -37.5, 38.5, -38.5, 40.0]]))
    grid = np.concatenate([switches, np.linspace(-38.0, 40.0, 1561)])
    return grid[(grid >= -38.0) & (grid <= 40.0)]


@pytest.mark.parametrize("fn, ref", [(log_std_normal_sf, _log_sf_ref), (std_normal_sf, _sf_ref)])
def test_normal_tails_within_1e15_of_mpmath(fn, ref):
    # the rounding of x / sqrt 2 once cost 1.3e-13 relative near x = 30
    x = _tail_grid()
    got = fn(x)
    with mp.workdps(50):
        exact = [ref(v) for v in x]
    err = np.array([float(abs(mp.mpf(g) - r)) for g, r in zip(got, exact)])
    size = np.array([float(abs(r)) for r in exact])
    normal = size >= TINY
    rel = err[normal] / size[normal]
    assert rel.max() <= 1e-15, x[normal][np.argmax(rel)]
    # from |x| = 37.5 on the tail is subnormal, and so is log_std_normal_sf
    # below x = -37.5, where it is about minus the tail
    assert np.all(err[~normal] <= 4 * SUBNORMAL_ULP)


def _refit_erfcx_table():
    """Row j > 0: mpmath's Chebyshev fit of degree 7 to erfcx(64/(j + t) - 1)
    on t in [0, 1], at 40 digits, rounded to floats, constant term first."""
    degree = specfun._ERFCX_COEFS.shape[0] - 1
    with mp.workdps(40):
        rows = [[0.0] * (degree + 1)]
        for j in range(1, ROWS):
            poly = mp.chebyfit(lambda t: _erfcx_ref(mp.mpf(ROWS) / (j + t) - 1), [0, 1],
                               degree + 1)
            rows.append([float(c) for c in reversed(poly)])
    return np.array(rows).T


def test_erfcx_table_is_the_mpmath_fit():
    assert specfun._ERFCX_COEFS.shape == (8, ROWS)
    assert np.array_equal(_refit_erfcx_table(), specfun._ERFCX_COEFS)


def test_normal_tails_make_no_call_per_element(monkeypatch, scenario_c_small):
    def refuse(*args):
        raise AssertionError("a Python call per element")

    monkeypatch.setattr(specfun, "_elementwise", refuse)
    model = Model(scenario_c_small, ModelSpec(Family.LOG_NORMAL, EffectKind.RANDOM))
    thetas = np.random.default_rng(3).normal(0.0, 0.5, (5, model.layout.dim))
    thetas[:, 0] -= 3.0
    block = pointwise_log_likelihood(model, thetas)
    assert block.shape == (5, len(scenario_c_small.time)) and np.all(np.isfinite(block))
    x = np.linspace(-50.0, 50.0, 1001)
    assert np.all(np.isfinite(log_std_normal_sf(x)))
    assert np.all((std_normal_sf(x) >= 0.0) & (std_normal_sf(x) <= 1.0))


@pytest.mark.parametrize("fn", [std_normal_sf, log_std_normal_sf])
def test_nan_and_huge_negative_arguments_give_no_warnings(fn):
    # pytest turns RuntimeWarnings into errors: no cast of nan to an index,
    # and no overflowing x^2 in the branch that a negative x does not take
    got = fn(np.array([math.nan, 1.0, -1.0, -1e200, -sys.float_info.max]))
    assert math.isnan(got[0]) and np.all(np.isfinite(got[1:]))
    assert list(got[3:]) == [fn(-math.inf)] * 2
    assert math.isnan(fn(math.nan))
