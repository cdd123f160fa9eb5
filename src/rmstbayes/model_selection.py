"""WAIC (widely applicable information criterion) from posterior draws.

Deviance scale: waic = -2 * (lppd - p_waic), lower is better, where
lppd = sum_i log mean_s exp(l_is) (computed via log-sum-exp) and
p_waic = sum_i var_s(l_is) over the per-draw pointwise log-likelihoods l_is.

``waic`` streams the draws in blocks of B = max(1, _BLOCK_ELEMENTS // n):
``inference.pointwise_log_likelihood``, the sampler's evaluator, gives one
block's (B, n) log-likelihoods in one call of the family kernel, and each
observation keeps a running maximum and rescaled sum of exp for lppd and a
running mean and sum of squared deviations (Chan et al.'s merge) for p_waic,
so the (S, n) matrix is never built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .inference import Model, ModelSpec, SurvivalDataset
# Imported under this name because the benchmark's tracer times WAIC's
# likelihood passes as rmstbayes.model_selection.pointwise_matrix.
from .inference import pointwise_log_likelihood as pointwise_matrix
from .sampler import PosteriorDraws

_MIN_DRAWS = 100
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class WaicResult:
    lppd: float
    p_waic: float
    pointwise_lppd: np.ndarray
    pointwise_p: np.ndarray

    @property
    def waic(self) -> float:
        return -2.0 * (self.lppd - self.p_waic)


def waic(data: SurvivalDataset, spec: ModelSpec, draws: PosteriorDraws) -> WaicResult:
    """WAIC of ``draws``; ValueError unless there are at least _MIN_DRAWS of
    them and they were sampled from ``spec`` on data of this layout."""
    flat = draws.flat()
    if flat.shape[0] < _MIN_DRAWS:
        raise ValueError(f"need >= {_MIN_DRAWS} kept draws for WAIC, have {flat.shape[0]}")
    model = Model(data, spec)
    if spec != draws.spec or model.layout != draws.layout:
        raise ValueError("the draws were sampled from another model or dataset layout")
    thetas = draws.layout.to_sampling(flat)
    n = len(data.time)
    block = max(1, _BLOCK_ELEMENTS // n)
    top, scaled = np.full(n, -np.inf), np.zeros(n)  # max and sum of exp(l - max)
    count, mean, m2 = 0, np.zeros(n), np.zeros(n)
    for start in range(0, len(thetas), block):
        ll = pointwise_matrix(model, thetas[start:start + block])
        new_top = np.maximum(top, ll.max(axis=0))
        scaled = scaled * np.exp(top - new_top) + np.exp(ll - new_top).sum(axis=0)
        top = new_top
        # Deviations from the block's first draw are exactly 0 where every
        # draw is equal, so m2 stays exactly 0 there.
        dev = ll - ll[0]
        dev_mean = dev.mean(axis=0)
        dev -= dev_mean
        b, delta = len(ll), ll[0] + dev_mean - mean
        count += b
        mean += delta * (b / count)
        m2 += (dev * dev).sum(axis=0) + delta * delta * ((count - b) * b / count)
    pointwise_lppd = top + np.log(scaled / count)
    if not m2.any():
        warnings.warn("degenerate draws: zero variance in every pointwise "
                      "log-likelihood; p_waic set to 0", RuntimeWarning, stacklevel=2)
    pointwise_p = m2 / (count - 1)
    return WaicResult(lppd=float(pointwise_lppd.sum()), p_waic=float(pointwise_p.sum()),
                      pointwise_lppd=pointwise_lppd, pointwise_p=pointwise_p)
