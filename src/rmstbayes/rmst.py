"""Closed-form restricted mean survival time (RMST) and posterior RMST samples.

RMST(tau) = int_0^tau S(t) dt.  Closed forms exist for every family and for
both cluster-effect types; the log-normal frailty case uses an approximate
closed form (the exact integral is available through ``rmst_numeric``).
Each closed form is written once and applies elementwise over numpy arrays
of parameters as well as to scalars; ``rmst_closed_form`` dispatches to
them, ``rmst_distribution`` calls it once over all posterior draws and
``rmst_value`` once per (FamilyParams, EffectValue) pair.  ``rmst_numeric``
integrates the survival function with adaptive Simpson quadrature and serves
as the independent oracle for all the closed forms; no posterior path calls
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import (
    EffectKind,
    EffectValue,
    Family,
    FamilyParams,
    NO_EFFECT,
    kernel_args,
    log_hazard_survival,
)
from .specfun import (
    _elementwise,
    _float_if_scalar,
    incomplete_beta_compl,
    lower_incomplete_gamma,
    std_normal_sf,
)

_LOG_HUGE = 700.0
_LOG_TIME_SPAN = 60.0  # rmst_numeric integrates log(t / tau) over [-60, 0]
_MAX_DEPTH = 60
# Adaptive Simpson gives up past this many open intervals at one depth, which
# bounds its memory; smooth integrands stay orders of magnitude below.
_MAX_OPEN_INTERVALS = 1 << 16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _check_tau(tau: float) -> None:
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")


def rmst_exponential(lam, tau: float):
    """(1 - e^(-lam tau)) / lam."""
    if not np.all(lam > 0):
        raise ValueError(f"lam must be positive, got {lam}")
    _check_tau(tau)
    return _float_if_scalar(-np.expm1(-lam * tau) / lam)


def rmst_weibull(lam, k, tau: float):
    """lam^(-1/k) gamma_inc(lam tau^k; 1/k + 1) + tau exp(-lam tau^k).

    Where log(lam tau^k) > 700, z is taken as infinite, which leaves
    lam^(-1/k) Gamma(1/k + 1)."""
    if not (np.all(lam > 0) and np.all(k > 0)):
        raise ValueError("weibull requires lam > 0 and k > 0")
    _check_tau(tau)
    a = 1.0 / k + 1.0
    log_z = np.log(lam) + k * math.log(tau)
    z = np.where(log_z > _LOG_HUGE, np.inf, np.exp(np.minimum(log_z, _LOG_HUGE)))
    head = lam ** (-1.0 / k)
    return _float_if_scalar(head * lower_incomplete_gamma(z, a) + tau * np.exp(-z))


def rmst_loglogistic(mu, k, tau: float, v=1.0):
    """v e^(-mu/k) B(1 - S(tau); 1 + 1/k, v - 1/k) + tau S(tau)^v, with a
    frailty v on the hazard (v = 1: none).

    For k <= 1 the beta's second argument is <= 0; the integral stays finite
    because it stops short of 1 (finite-tau RMST needs no first moment).
    """
    if not np.all(k > 0):
        raise ValueError("loglogistic requires k > 0")
    _check_tau(tau)
    # S(tau) = 1/(1 + e^w), overflow-safe
    w = mu + k * math.log(tau)
    ew = np.exp(-np.abs(w))
    s_tau = np.where(w > 0, ew / (1.0 + ew), 1.0 / (1.0 + ew))
    part = _elementwise(incomplete_beta_compl, s_tau, 1.0 + 1.0 / k, v - 1.0 / k)
    return _float_if_scalar(v * np.exp(-mu / k) * part + tau * s_tau ** v)


def rmst_lognormal(mu, sigma2, tau: float):
    """exp(mu + sigma2/2) Phi((log tau - mu - sigma2)/sigma) + tau (1 - Phi((log tau - mu)/sigma))."""
    if not np.all(sigma2 > 0):
        raise ValueError("lognormal requires sigma2 > 0")
    _check_tau(tau)
    sigma = np.sqrt(sigma2)
    log_tau = math.log(tau)
    z1 = (log_tau - mu - sigma2) / sigma
    z0 = (log_tau - mu) / sigma
    head = np.exp(mu + 0.5 * sigma2) * std_normal_sf(-z1)
    return _float_if_scalar(head + tau * std_normal_sf(z0))


def _rmst_lognormal_frailty(mu, sigma2, v, tau: float):
    # The paper's approximate closed form; rmst_numeric integrates the exact
    # S^v integrand.
    _check_tau(tau)
    sigma = np.sqrt(sigma2)
    log_tau = math.log(tau)
    sf1 = std_normal_sf((log_tau - mu - sigma2) / sigma)
    sf0 = std_normal_sf((log_tau - mu) / sigma)
    head = np.exp(mu + 0.5 * sigma2) * (1.0 - sf1**v) / v
    return _float_if_scalar(head + tau * sf0**v)


def rmst_closed_form(family: Family, lam_or_mu, shape, tau: float, v=None):
    """Closed-form RMST of ``family``, elementwise over numpy arrays or
    scalars.

    ``lam_or_mu`` is lam (exponential, weibull) or mu (log-logistic,
    log-normal), ``shape`` is k, or sigma^2 for log-normal (unused for
    exponential), and ``v`` is a frailty multiplying the hazard (None: no
    frailty).  The log-normal frailty form is an approximation.
    """
    if v is not None and not np.all(v > 0):
        raise ValueError("frailty requires v > 0")
    scale = 1.0 if v is None else v
    if family is Family.EXPONENTIAL:
        return rmst_exponential(scale * lam_or_mu, tau)
    if family is Family.WEIBULL:
        return rmst_weibull(scale * lam_or_mu, shape, tau)
    if family is Family.LOG_LOGISTIC:
        return rmst_loglogistic(lam_or_mu, shape, tau, scale)
    if v is None:
        return rmst_lognormal(lam_or_mu, shape, tau)
    return _rmst_lognormal_frailty(lam_or_mu, shape, v, tau)


def rmst_value(p: FamilyParams, e: EffectValue = NO_EFFECT, tau: float = None):
    """Closed-form RMST for any family x effect combination; the parameters
    of p and the effect value may be numpy arrays."""
    u = e.value if e.kind is EffectKind.RANDOM else 0.0
    if p.family in (Family.EXPONENTIAL, Family.WEIBULL):
        lam_or_mu, shape = p.lam * np.exp(u), p.k
    else:
        lam_or_mu = p.mu + u
        shape = p.sigma2 if p.family is Family.LOG_NORMAL else p.k
    v = e.value if e.kind is EffectKind.FRAILTY else None
    return rmst_closed_form(p.family, lam_or_mu, shape, tau, v)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int) -> float:
    """Adaptive Simpson over [a, b] for an integrand ``f`` that maps an array
    of points to an array of values.

    Breadth-first: the open intervals of one depth are refined with one call
    of ``f``.  An interval's accept test uses only its own values and its
    share of ``tol``, so the accepted intervals are those of the depth-first
    recursion.
    """
    fa, fm, fb = f(np.array([a, 0.5 * (a + b), b]))
    x0, x2 = np.array([a]), np.array([b])
    f0, f1, f2 = np.array([fa]), np.array([fm]), np.array([fb])
    whole = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
    eps = tol
    pieces = []
    depth = 0
    while True:
        x1 = 0.5 * (x0 + x2)
        flm, frm = np.split(f(np.concatenate([0.5 * (x0 + x1), 0.5 * (x1 + x2)])), 2)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        err = left + right - whole
        done = np.abs(err) <= 15.0 * eps
        pieces.append((left + right + err / 15.0)[done])
        if done.all():
            return math.fsum(np.concatenate(pieces))
        open_ = np.flatnonzero(~done)
        if depth >= max_depth or 2 * len(open_) > _MAX_OPEN_INTERVALS:
            raise QuadratureError(
                f"adaptive Simpson did not converge on [{x0[open_[0]]}, {x2[open_[0]]}] "
                f"at depth {depth}"
            )

        def halves(lo, hi):
            """Left and right halves of the open intervals, in order."""
            return np.column_stack([lo[open_], hi[open_]]).ravel()

        x0, x2 = halves(x0, x1), halves(x1, x2)
        f0, f1, f2 = halves(f0, f1), halves(flm, frm), halves(f1, f2)
        whole = halves(left, right)
        eps = 0.5 * eps
        depth += 1


def integrate(f, a: float, b: float, tol: float = 1e-10, max_depth: int = _MAX_DEPTH) -> float:
    """Adaptive Simpson quadrature of a scalar function ``f`` with absolute
    tolerance ``tol``."""
    if b <= a:
        raise ValueError("integration bounds must satisfy a < b")
    return _adaptive_simpson(lambda xs: np.array([f(float(x)) for x in xs]),
                             a, b, tol, max_depth)


def rmst_numeric(p: FamilyParams, e: EffectValue = NO_EFFECT, tau: float = None,
                 tol: float = 1e-10) -> float:
    """RMST by quadrature of the survival function in log time:

        int_0^tau S(t) dt = int_{-60}^0 S(tau e^s) tau e^s ds + tau e^-60,

    taking S = 1 below tau e^-60.  For shapes k < 1, S(t) has an unbounded
    slope at t = 0, where adaptive Simpson in t fails to converge; in log time
    the integrand is smooth.  Independent of the closed forms; for
    log-normal frailty this is the exact value (the closed form there is
    approximate).
    """
    _check_tau(tau)
    eta, shape, effect = kernel_args(p, e)

    def integrand(s: np.ndarray) -> np.ndarray:
        t = tau * np.exp(s)
        log_s = log_hazard_survival(p.family, eta, shape, t, np.log(t), e.kind, effect)[1]
        return np.exp(log_s) * t

    return (_adaptive_simpson(integrand, -_LOG_TIME_SPAN, 0.0, tol, _MAX_DEPTH)
            + tau * math.exp(-_LOG_TIME_SPAN))


@dataclass(frozen=True)
class RmstQuery:
    """Where to evaluate the RMST posterior: horizon, arm, covariates, cluster.

    ``covariates`` supplies values for the design columns after the intercept
    and group indicator (defaults to zeros).  ``cluster`` is a 1-based cluster
    index, or None for the marginal RMST (u = 0 / v = 1).
    """

    tau: float
    x1: int
    covariates: tuple = ()
    cluster: int | None = None

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.x1 not in (0, 1):
            raise ValueError("x1 must be 0 (control) or 1 (treatment)")


@dataclass
class RmstSampleVector:
    """Per-draw RMST values aligned with the posterior draw order."""

    values: np.ndarray


def rmst_distribution(draws, query: RmstQuery) -> RmstSampleVector:
    """Evaluate the closed-form RMST at every posterior draw, as one array
    evaluation over the draws.

    ``draws`` is a PosteriorDraws object (see the sampler module); the model
    family and effect type are taken from its model spec.
    """
    spec = draws.spec
    family = spec.family
    flat = draws.flat()
    beta = flat[:, : draws.layout.q]
    if query.covariates and len(query.covariates) != draws.layout.q - 2:
        raise ValueError(
            f"expected {draws.layout.q - 2} extra covariate values, got {len(query.covariates)}"
        )
    eta = beta[:, 0] + query.x1 * beta[:, 1]
    for j, val in enumerate(query.covariates):
        eta = eta + val * beta[:, 2 + j]
    shape_col = draws.layout.shape_index
    shapes = flat[:, shape_col] if shape_col is not None else None

    effect_kind = EffectKind(spec.effect)
    v = None
    if query.cluster is not None:
        if effect_kind is EffectKind.NONE:
            raise ValueError("cluster queries require a random-effect or frailty model")
        effect_vals = flat[:, draws.layout.effect_indices[query.cluster - 1]]
        if effect_kind is EffectKind.RANDOM:
            eta = eta + effect_vals
        else:
            v = effect_vals
    lam_or_mu = np.exp(eta) if family in (Family.EXPONENTIAL, Family.WEIBULL) else eta
    return RmstSampleVector(rmst_closed_form(family, lam_or_mu, shapes, query.tau, v))


def rmst_difference(draws, tau: float, covariates: tuple = (),
                    cluster: int | None = None) -> tuple[RmstSampleVector, RmstSampleVector, RmstSampleVector]:
    """Group-0 and group-1 RMST sample vectors plus their per-draw difference
    (group 1 minus group 0)."""
    g0 = rmst_distribution(draws, RmstQuery(tau, 0, covariates, cluster))
    g1 = rmst_distribution(draws, RmstQuery(tau, 1, covariates, cluster))
    diff = RmstSampleVector(g1.values - g0.values)
    return g0, g1, diff
