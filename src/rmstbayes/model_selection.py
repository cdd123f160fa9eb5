"""WAIC (widely applicable information criterion) from posterior draws.

Deviance scale: waic = -2 * (lppd - p_waic), lower is better, where
lppd = sum_i log mean_s exp(l_is) (computed via log-sum-exp) and
p_waic = sum_i var_s(l_is) over the per-draw pointwise log-likelihoods l_is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .inference import Model, ModelSpec, SurvivalDataset, pointwise_log_likelihood
from .sampler import PosteriorDraws

_MIN_DRAWS = 100


@dataclass(frozen=True)
class WaicResult:
    lppd: float
    p_waic: float
    pointwise_lppd: np.ndarray
    pointwise_p: np.ndarray

    @property
    def waic(self) -> float:
        return -2.0 * (self.lppd - self.p_waic)


def pointwise_matrix(data: SurvivalDataset, spec: ModelSpec,
                     draws: PosteriorDraws) -> np.ndarray:
    """(draws, observations) matrix of pointwise log-likelihoods; ValueError
    unless ``draws`` were sampled from ``spec`` on data of this layout."""
    model = Model(data, spec)
    if spec != draws.spec or model.layout != draws.layout:
        raise ValueError("the draws were sampled from another model or dataset layout")
    thetas = draws.layout.to_sampling(draws.flat())
    out = np.empty((len(thetas), len(data.time)))
    for s, theta in enumerate(thetas):
        out[s] = pointwise_log_likelihood(model, theta)
    return out


def waic(data: SurvivalDataset, spec: ModelSpec, draws: PosteriorDraws) -> WaicResult:
    flat_len = draws.flat().shape[0]
    if flat_len < _MIN_DRAWS:
        raise ValueError(f"need >= {_MIN_DRAWS} kept draws for WAIC, have {flat_len}")
    return waic_from_matrix(pointwise_matrix(data, spec, draws))


def waic_from_matrix(ll: np.ndarray) -> WaicResult:
    """WAIC directly from a (draws, observations) log-likelihood matrix."""
    ll = np.asarray(ll, dtype=float)
    # log mean exp per observation, overflow-safe.
    mx = ll.max(axis=0)
    ratio = ll - mx
    np.exp(ratio, out=ratio)  # in place: one (draws, observations) temporary
    pointwise_lppd = mx + np.log(np.mean(ratio, axis=0))
    del ratio
    if np.all(np.ptp(ll, axis=0) == 0.0):
        warnings.warn("degenerate draws: zero variance in every pointwise "
                      "log-likelihood; p_waic set to 0", RuntimeWarning, stacklevel=2)
        pointwise_p = np.zeros(ll.shape[1])
    else:
        pointwise_p = ll.var(axis=0, ddof=1)
    return WaicResult(lppd=float(pointwise_lppd.sum()), p_waic=float(pointwise_p.sum()),
                      pointwise_lppd=pointwise_lppd, pointwise_p=pointwise_p)
