"""Posterior summary statistics, forest rows, and histogram bins."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmstbayes.cli import main
from rmstbayes.dataio import write_csv
from rmstbayes.simulation import ScenarioConfig, generate_scenario
from rmstbayes.summaries import (RmstSummary, histogram_bins, kde_mode,
                                 silverman_bandwidth, summarize)


def test_constant_vector_degenerates_cleanly():
    s = summarize(np.full(50, 3.25), thresholds=[0.0, 4.0])
    assert s.mean == s.median == s.mode == 3.25
    assert s.sd == 0.0 and (s.ci_low, s.ci_high) == (3.25, 3.25)
    assert s.exceedance == ((0.0, 0.0), (4.0, 1.0))


def test_uniform_grid_quantiles_follow_linear_interpolation():
    v = np.arange(1, 1001) / 10.0
    s = summarize(v, level=0.95)
    assert math.isclose(s.median, 50.05, rel_tol=1e-12)
    # type-7: q(p) = v[h] + (h - floor(h)) * (v[h+1] - v[h]), h = p (n - 1)
    assert math.isclose(s.ci_low, 2.5975, rel_tol=1e-12)
    assert math.isclose(s.ci_high, 97.5025, rel_tol=1e-12)


def test_exceedance_is_empirical_fraction_below():
    v = np.array([1.0, 2.0, 3.0, 4.0] * 5)
    s = summarize(v, thresholds=[2.5, 0.0, 10.0])
    assert s.exceedance == ((2.5, 0.5), (0.0, 0.0), (10.0, 1.0))


def test_exceedance_monotone_in_threshold():
    rng = np.random.default_rng(0)
    v = rng.normal(0, 1, 500)
    ths = [-2.0, -1.0, 0.0, 1.0, 2.0]
    s = summarize(v, thresholds=ths)
    probs = [p for _, p in s.exceedance]
    assert probs == sorted(probs)


def test_summary_permutation_invariant():
    rng = np.random.default_rng(1)
    v = rng.normal(5, 2, 400)
    a = summarize(v, thresholds=[4.0])
    b = summarize(rng.permutation(v), thresholds=[4.0])
    # order statistics are exactly invariant; accumulated moments only up to
    # summation rounding
    assert (a.median, a.ci_low, a.ci_high, a.exceedance) == \
           (b.median, b.ci_low, b.ci_high, b.exceedance)
    assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
    assert math.isclose(a.sd, b.sd, rel_tol=1e-12)
    assert math.isclose(a.mode, b.mode, rel_tol=1e-9)


def test_kde_mode_near_center_of_normal_sample():
    rng = np.random.default_rng(2)
    v = rng.normal(10.0, 1.5, 4000)
    bw = silverman_bandwidth(v)
    assert abs(kde_mode(v) - v.mean()) < 3 * bw


def _dense_kde_mode(v, grid_points=512):
    """The exact Gaussian KDE on the grid, summed over every value: the
    reference for the binned estimate."""
    lo, hi = float(v.min()), float(v.max())
    bw = silverman_bandwidth(v)
    grid = np.linspace(lo, hi, grid_points)
    z = np.clip(np.abs(grid[:, None] - v[None, :]) / bw, 0.0, 39.0)
    return float(grid[int(np.argmax(np.exp(-0.5 * z * z).sum(axis=1)))])


def _samples(kind, rng, n):
    if kind == "normal":
        return rng.normal(10.0, 1.5, n)
    if kind == "lognormal":
        return np.exp(rng.normal(0.0, 0.8, n))
    if kind == "bimodal":
        return np.where(rng.random(n) < 0.6, rng.normal(0.0, 1.0, n), rng.normal(5.0, 0.7, n))
    return rng.standard_t(1, n)


@pytest.mark.parametrize("kind", ["normal", "lognormal", "bimodal", "cauchy"])
def test_binned_kde_mode_within_one_grid_step_of_dense(kind):
    for seed in range(4):
        v = _samples(kind, np.random.default_rng(seed), 3000)
        step = (v.max() - v.min()) / 511
        if kind == "cauchy":
            # the kernel is cut at 39 bandwidths, well inside the range
            assert 39 * silverman_bandwidth(v) < 0.05 * (v.max() - v.min())
        assert abs(kde_mode(v) - _dense_kde_mode(v)) <= step * (1 + 1e-9), seed


def test_kde_mode_where_the_bandwidth_is_far_below_the_grid_step():
    # One value at -2.8e5 stretches the grid step to 554, about 2000
    # bandwidths.  The exact estimate on the grid is then 1 at the two
    # extreme values and about 0 elsewhere, so its argmax is the sample
    # minimum; the binned estimate puts the mode at the grid point nearest
    # the bulk of the sample.
    v = _samples("cauchy", np.random.default_rng(5), 3000)
    step = (v.max() - v.min()) / 511
    assert step > 1000 * silverman_bandwidth(v)
    assert _dense_kde_mode(v) == v.min()
    assert abs(kde_mode(v) - np.median(v)) <= step


def test_kde_mode_degenerate_samples():
    assert kde_mode(np.full(40, -2.5)) == -2.5
    # zero IQR: the bandwidth falls back to the SD
    v = np.array([0.0] * 95 + [1.0] * 5)
    assert kde_mode(v) == _dense_kde_mode(v) == 0.0
    # a subnormal IQR gives a bandwidth so small that step / bandwidth
    # overflows; the mode is the grid point with the most weight
    v = np.array([0.0] * 7 + [1.0, 1.0, 2.225073858507e-311])
    assert kde_mode(v) == 0.0


def test_normal_tail_probability_reference():
    # a posterior difference with mean -3.77 and SD 1.36 puts essentially all
    # mass below zero
    rng = np.random.default_rng(3)
    v = rng.normal(-3.77, 1.36, 20000)
    s = summarize(v, thresholds=[0.0, -3.0, -6.0])
    p0 = dict(s.exceedance)[0.0]
    assert p0 > 0.99
    assert abs(p0 - 0.9972) < 0.005  # Phi(3.77 / 1.36)


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        summarize(np.arange(5.0))
    with pytest.raises(ValueError):
        summarize(np.arange(100.0), level=1.0)


def test_summary_invariants_enforced():
    with pytest.raises(ValueError):
        RmstSummary(mean=0, median=0, mode=0, sd=0, ci_level=0.95,
                    ci_low=1.0, ci_high=0.0)
    with pytest.raises(ValueError):
        RmstSummary(mean=0, median=0, mode=0, sd=0, ci_level=0.95,
                    ci_low=0.0, ci_high=1.0, exceedance=((0.0, 1.5),))


@given(st.lists(st.floats(-100, 100), min_size=10, max_size=60))
@settings(max_examples=50, deadline=None)
def test_ci_brackets_are_ordered_and_probabilities_valid(values):
    s = summarize(np.array(values), thresholds=[-5.0, 5.0])
    assert s.ci_low <= s.ci_high
    assert all(0.0 <= p <= 1.0 for _, p in s.exceedance)


# ---------------------------------------------------------------- forest ---

def _forest(tmp_path, n_clusters):
    """The forest rows of a short random-effects `fit` of scenario C (n = 96)
    with its rows spread over `n_clusters` clusters."""
    data = generate_scenario(ScenarioConfig("C", n=96), 0)
    data = dataclasses.replace(data, cluster=np.arange(data.n) % n_clusters + 1)
    path, out = tmp_path / "data.csv", tmp_path / "fit.json"
    write_csv(data, path)
    assert main(["fit", "--input", str(path), "--family", "exponential",
                 "--effect", "random", "--chains", "1", "--iter", "200",
                 "--burnin", "100", "--seed", "5", "--output", str(out)]) == 0
    return json.loads(out.read_text())["forest"]


def test_forest_single_cluster(tmp_path):
    rows = _forest(tmp_path, 1)
    assert [row[0] for row in rows] == ["cluster-1", "marginal"]


def test_forest_appends_marginal_row(tmp_path):
    rows = _forest(tmp_path, 8)
    assert len(rows) == 9
    assert rows[-1][0] == "marginal"
    for label, mean, lo, hi in rows:
        assert lo <= mean <= hi


# ------------------------------------------------------------- histogram ---

def test_histogram_constant_vector_single_bin():
    edges, counts = histogram_bins(np.full(30, 2.0))
    assert len(counts) == 1 and counts[0] == 30
    assert edges[0] < 2.0 < edges[1]


def test_histogram_uniform_grid_equal_counts():
    # 50 values, one in each of the 50 bins
    v = np.repeat(np.arange(50), 7) + 0.5
    edges, counts = histogram_bins(v)
    assert len(counts) == 50 and counts.sum() == len(v)
    assert np.all(counts == 7)


def test_histogram_bell_shape():
    rng = np.random.default_rng(4)
    v = rng.normal(0, 1, 20000)
    edges, counts = histogram_bins(v)
    mode_bin = int(np.argmax(counts))
    center = 0.5 * (edges[mode_bin] + edges[mode_bin + 1])
    assert abs(center) < 0.5
    assert counts.sum() == len(v)
