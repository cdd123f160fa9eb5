"""Closed-form restricted mean survival time (RMST) and posterior RMST samples.

RMST(tau) = int_0^tau S(t) dt.  Closed forms exist for every family and for
both cluster-effect types; the log-normal frailty case uses an approximate
closed form (the exact integral is available through ``rmst_numeric``).
``rmst_numeric`` integrates the survival function with adaptive Simpson
quadrature and serves as the independent oracle for all the closed forms; no
posterior path calls it.
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
    shifted,
)
from .specfun import (
    incomplete_beta_compl,
    lower_incomplete_gamma,
    std_normal_cdf,
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


def rmst_exponential(lam: float, tau: float) -> float:
    """(1 - e^(-lam tau)) / lam."""
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _check_tau(tau)
    return -math.expm1(-lam * tau) / lam


def rmst_weibull(lam: float, k: float, tau: float) -> float:
    """lam^(-1/k) gamma_inc(lam tau^k; 1/k + 1) + tau exp(-lam tau^k)."""
    if not (lam > 0 and k > 0):
        raise ValueError("weibull requires lam > 0 and k > 0")
    _check_tau(tau)
    a = 1.0 / k + 1.0
    log_z = math.log(lam) + k * math.log(tau)
    head = lam ** (-1.0 / k)
    if log_z > _LOG_HUGE:
        return head * math.exp(math.lgamma(a))
    z = math.exp(log_z)
    return head * lower_incomplete_gamma(z, a) + tau * math.exp(-z)


def _logistic_tail(w: float) -> float:
    # 1/(1 + e^w), overflow-safe; equals S(tau) with w = mu + k log(tau)
    if w > 0:
        ew = math.exp(-w)
        return ew / (1.0 + ew)
    return 1.0 / (1.0 + math.exp(w))


def rmst_loglogistic(mu: float, k: float, tau: float) -> float:
    """e^(-mu/k) B(1 - S(tau); 1 + 1/k, 1 - 1/k) + tau S(tau).

    For k <= 1 the beta's second argument is <= 0; the integral stays finite
    because it stops short of 1 (finite-tau RMST needs no first moment).
    """
    if not k > 0:
        raise ValueError("loglogistic requires k > 0")
    _check_tau(tau)
    w = mu + k * math.log(tau)
    s_tau = _logistic_tail(w)
    part = incomplete_beta_compl(s_tau, 1.0 + 1.0 / k, 1.0 - 1.0 / k)
    return math.exp(-mu / k) * part + tau * s_tau


def rmst_lognormal(mu: float, sigma2: float, tau: float) -> float:
    """exp(mu + sigma2/2) Phi((log tau - mu - sigma2)/sigma) + tau (1 - Phi((log tau - mu)/sigma))."""
    if not sigma2 > 0:
        raise ValueError("lognormal requires sigma2 > 0")
    _check_tau(tau)
    sigma = math.sqrt(sigma2)
    log_tau = math.log(tau)
    z1 = (log_tau - mu - sigma2) / sigma
    z0 = (log_tau - mu) / sigma
    return math.exp(mu + 0.5 * sigma2) * std_normal_cdf(z1) + tau * std_normal_sf(z0)


def rmst_random_effect(p: FamilyParams, u: float, tau: float) -> float:
    """RMST with a random offset on the linear-scale parameter."""
    return rmst_base(shifted(p, u), tau)


def rmst_frailty(p: FamilyParams, v: float, tau: float) -> float:
    """RMST with a multiplicative frailty v on the hazard.

    Closed forms are exact for exponential/weibull/log-logistic; the
    log-normal form is an approximation (``rmst_numeric`` integrates the
    exact S^v integrand).
    """
    if not v > 0:
        raise ValueError("frailty requires v > 0")
    _check_tau(tau)
    fam = p.family
    if fam is Family.EXPONENTIAL:
        return rmst_exponential(v * p.lam, tau)
    if fam is Family.WEIBULL:
        return rmst_weibull(v * p.lam, p.k, tau)
    if fam is Family.LOG_LOGISTIC:
        k = p.k
        w = p.mu + k * math.log(tau)
        s_tau = _logistic_tail(w)
        part = incomplete_beta_compl(s_tau, 1.0 + 1.0 / k, v - 1.0 / k)
        return v * math.exp(-p.mu / k) * part + tau * math.exp(v * math.log(s_tau))
    # log-normal: approximate closed form
    sigma = math.sqrt(p.sigma2)
    log_tau = math.log(tau)
    sf1 = std_normal_sf((log_tau - p.mu - p.sigma2) / sigma)
    sf0 = std_normal_sf((log_tau - p.mu) / sigma)
    head = math.exp(p.mu + 0.5 * p.sigma2) * (1.0 - sf1**v) / v
    return head + tau * sf0**v


def rmst_base(p: FamilyParams, tau: float) -> float:
    if p.family is Family.EXPONENTIAL:
        return rmst_exponential(p.lam, tau)
    if p.family is Family.WEIBULL:
        return rmst_weibull(p.lam, p.k, tau)
    if p.family is Family.LOG_LOGISTIC:
        return rmst_loglogistic(p.mu, p.k, tau)
    return rmst_lognormal(p.mu, p.sigma2, tau)


def rmst_value(p: FamilyParams, e: EffectValue = NO_EFFECT, tau: float = None) -> float:
    """Closed-form RMST for any family x effect combination."""
    if e.kind is EffectKind.RANDOM:
        return rmst_random_effect(p, e.value, tau)
    if e.kind is EffectKind.FRAILTY:
        return rmst_frailty(p, e.value, tau)
    return rmst_base(p, tau)


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
    label: str
    tau: float

    def __len__(self):
        return len(self.values)


def _params_from_draw(family: Family, eta: float, shape: float | None) -> FamilyParams:
    if family is Family.EXPONENTIAL:
        return FamilyParams.exponential(math.exp(eta))
    if family is Family.WEIBULL:
        return FamilyParams.weibull(math.exp(eta), shape)
    if family is Family.LOG_LOGISTIC:
        return FamilyParams.loglogistic(eta, shape)
    return FamilyParams.lognormal(eta, shape)


def rmst_distribution(draws, query: RmstQuery) -> RmstSampleVector:
    """Evaluate the closed-form RMST at every posterior draw.

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
    if query.cluster is not None:
        if effect_kind is EffectKind.NONE:
            raise ValueError("cluster queries require a random-effect or frailty model")
        col = draws.layout.effect_indices[query.cluster - 1]
        effect_vals = flat[:, col]
    else:
        effect_vals = None

    out = np.empty(len(flat))
    for s in range(len(flat)):
        p = _params_from_draw(family, float(eta[s]), float(shapes[s]) if shapes is not None else None)
        if effect_vals is None:
            e = NO_EFFECT
        else:
            e = EffectValue(effect_kind, float(effect_vals[s]))
        out[s] = rmst_value(p, e, query.tau)
    label = f"group-{query.x1}"
    if query.cluster is not None:
        label += f"/cluster-{query.cluster}"
    return RmstSampleVector(out, label, query.tau)


def rmst_difference(draws, tau: float, covariates: tuple = (),
                    cluster: int | None = None) -> tuple[RmstSampleVector, RmstSampleVector, RmstSampleVector]:
    """Group-0 and group-1 RMST sample vectors plus their per-draw difference
    (group 1 minus group 0)."""
    g0 = rmst_distribution(draws, RmstQuery(tau, 0, covariates, cluster))
    g1 = rmst_distribution(draws, RmstQuery(tau, 1, covariates, cluster))
    diff = RmstSampleVector(g1.values - g0.values, "difference", tau)
    return g0, g1, diff
