"""Reference computations the benchmark checks the program against.

Everything here is written from the model definitions with numpy and the
standard library only; nothing imports ``rmstbayes``.  Each function has a
test against known values in ``test_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANELS = 64
# t = tau * s**_POWER smooths the t**k (k < 1) cusp of S(t) at t = 0.
_POWER = 4.0


def _unit_rule():
    """Composite Gauss-Legendre nodes and weights on [0, 1]."""
    edges = np.linspace(0.0, 1.0, _PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    s = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return s, w


_S, _W = _unit_rule()


def rmst_quadrature(surv, tau: float) -> np.ndarray:
    """int_0^tau S(t) dt for every parameter set at once.

    ``surv`` maps an array of times of shape (nodes,) to survival
    probabilities of shape (..., nodes), one row per parameter set.
    """
    t = tau * _S ** _POWER
    jac = tau * _POWER * _S ** (_POWER - 1.0)
    return np.asarray(surv(t)) @ (_W * jac)


def weibull_surv(lam, k):
    """S(t) = exp(-lam t^k), vectorised over parameter arrays."""
    lam = np.asarray(lam, dtype=float)[..., None]
    k = np.asarray(k, dtype=float)[..., None]
    return lambda t: np.exp(-lam * t ** k)


def loglogistic_surv(mu, k):
    """S(t) = 1 / (1 + e^mu t^k), vectorised over parameter arrays."""
    mu = np.asarray(mu, dtype=float)[..., None]
    k = np.asarray(k, dtype=float)[..., None]
    return lambda t: 1.0 / (1.0 + np.exp(mu + k * np.log(t)))


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def lognormal_surv(mu, sigma2):
    """S(t) = 1 - Phi((log t - mu) / sigma), vectorised over parameters."""
    mu = np.asarray(mu, dtype=float)[..., None]
    sigma = np.sqrt(np.asarray(sigma2, dtype=float))[..., None]
    return lambda t: 0.5 * _ERFC((np.log(t) - mu) / (sigma * math.sqrt(2.0))).astype(float)


def weibull_re_loglik(time, event, x, cluster, beta, k, u) -> np.ndarray:
    """(draws, rows) censored Weibull random-effects log-likelihood.

    S = exp(-lam t^k) and h = lam k t^(k-1) with log lam = x beta + u[cluster];
    a row contributes event * log h + log S.  ``cluster`` is 1-based.
    """
    logt = np.log(time)[None, :]
    eta = beta @ x.T + u[:, cluster - 1]
    k = np.asarray(k, dtype=float)[:, None]
    log_h = eta + np.log(k) + (k - 1.0) * logt
    log_s = -np.exp(eta + k * logt)
    return event[None, :] * log_h + log_s


def waic(ll: np.ndarray) -> tuple:
    """(waic, lppd, p_waic) on the deviance scale from a (draws, rows) matrix."""
    s = ll.shape[0]
    lppd_i = np.array([math.log(math.fsum(np.exp(col - col.max())) / s) + col.max()
                       for col in ll.T])
    p_i = ll.var(axis=0, ddof=1)
    lppd, p = float(lppd_i.sum()), float(p_i.sum())
    return -2.0 * (lppd - p), lppd, p


def ess(chains) -> float:
    """Effective sample size of a (chains, draws) array.

    Chains are split in half; the autocorrelation is estimated against the
    pooled variance and summed over Geyer's initial monotone sequence of lag
    pairs.
    """
    chains = np.asarray(chains, dtype=float)
    half = chains.shape[1] // 2
    x = np.concatenate([chains[:, :half], chains[:, half:2 * half]])
    m, n = x.shape
    centred = x - x.mean(axis=1, keepdims=True)
    size = 2 * n
    spec = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spec * spec.conj(), size, axis=1)[:, :n] / n
    within = x.var(axis=1, ddof=1).mean()
    if within == 0.0:
        return 0.0
    var_plus = (n - 1) / n * within + x.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    total, bound = 0.0, math.inf
    for p in pairs:
        if p <= 0.0:
            break
        bound = min(bound, p)
        total += bound
    tau = -1.0 + 2.0 * total
    return float(m * n / max(tau, 1.0 / math.log10(m * n)))


def summary(values, level: float = 0.95) -> dict:
    """Mean, median and equal-tailed interval (linear-interpolation quantiles)."""
    v = np.sort(np.asarray(values, dtype=float))
    alpha = (1.0 - level) / 2.0

    def quantile(p):
        h = (len(v) - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, len(v) - 1)
        return float(v[lo] + (h - lo) * (v[hi] - v[lo]))

    return {"mean": math.fsum(v) / len(v), "median": quantile(0.5),
            "ci_low": quantile(alpha), "ci_high": quantile(1.0 - alpha)}
