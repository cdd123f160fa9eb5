"""Closed-form restricted mean survival time (RMST) and posterior RMST samples.

RMST(tau) = int_0^tau S(t) dt.  Each family's closed form is written once,
as a private kernel elementwise over arrays or scalars; the log-normal
frailty form is approximate.  ``rmst_closed_form`` is their one dispatcher
and the one check of their arguments, which are those of the likelihood
kernel ``families.log_hazard_survival``: (family, eta, shape, kind, effect).
The exponential and Weibull forms work from eta = log lam itself, with a
frailty v folded in as eta + log v.  ``rmst_distribution`` calls it once over
all posterior draws, with eta = beta . (1, x1, covariates...), and
``rmst_value`` through ``families.kernel_args``.  ``rmst_numeric``
integrates the survival function by adaptive Simpson quadrature and is the
independent oracle for every closed form (and the exact value for log-normal
frailty); no posterior path calls it.
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
    _finite,
    _is_index,
    _positive,
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
_NUMERIC_TOL = 1e-10   # rmst_numeric's absolute tolerance
_MAX_DEPTH = 60
# Adaptive Simpson gives up past this many open intervals at one depth, which
# bounds its memory; smooth integrands stay orders of magnitude below.
_MAX_OPEN_INTERVALS = 1 << 16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _check_tau(tau: float) -> None:
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def _weibull_rmst(eta, k, tau: float):
    # e^(-eta/k) gamma_inc(z; 1/k + 1) + tau e^(-z) with z = e^eta tau^k,
    # from eta = log lam directly.  Where log z > 700, z is taken as
    # infinite, which leaves e^(-eta/k) Gamma(1/k + 1).
    a = 1.0 / k + 1.0
    log_z = eta + k * math.log(tau)
    z = np.where(log_z > _LOG_HUGE, np.inf, np.exp(np.minimum(log_z, _LOG_HUGE)))
    return np.exp(-eta / k) * lower_incomplete_gamma(z, a) + tau * np.exp(-z)


def _loglogistic_rmst(mu, k, v, tau: float):
    # v e^(-mu/k) B(1 - S(tau); 1 + 1/k, v - 1/k) + tau S(tau)^v, with a
    # frailty v on the hazard (v = 1: none).  For k <= 1 the beta's second
    # argument is <= 0; the integral stays finite because it stops short of 1
    # (finite-tau RMST needs no first moment).
    # S(tau) = 1/(1 + e^w), overflow-safe
    w = mu + k * math.log(tau)
    ew = np.exp(-np.abs(w))
    s_tau = np.where(w > 0, ew / (1.0 + ew), 1.0 / (1.0 + ew))
    part = _elementwise(incomplete_beta_compl, s_tau, 1.0 + 1.0 / k, v - 1.0 / k)
    return v * np.exp(-mu / k) * part + tau * s_tau ** v


def _lognormal_rmst(mu, sigma2, v, tau: float):
    # exp(mu + sigma2/2) Phi(z1) + tau (1 - Phi(z0)) without a frailty (v is None),
    # z1 = (log tau - mu - sigma2)/sigma and z0 = (log tau - mu)/sigma
    sigma = np.sqrt(sigma2)
    log_tau = math.log(tau)
    z1 = (log_tau - mu - sigma2) / sigma
    z0 = (log_tau - mu) / sigma
    if v is None:
        return np.exp(mu + 0.5 * sigma2) * std_normal_sf(-z1) + tau * std_normal_sf(z0)
    # The paper's approximate frailty form; rmst_numeric integrates the exact
    # S^v integrand.
    return (np.exp(mu + 0.5 * sigma2) * (1.0 - std_normal_sf(z1)**v) / v
            + tau * std_normal_sf(z0)**v)


def rmst_closed_form(family: Family, eta, shape, tau: float,
                     kind: EffectKind = EffectKind.NONE, effect=0.0):
    """Closed-form RMST of ``family`` up to ``tau``, elementwise over numpy
    arrays or scalars (a float for scalar input).

    The arguments are those of ``families.log_hazard_survival``: ``eta`` is
    log lam (exponential, weibull) or mu (log-logistic, log-normal),
    ``shape`` is k, or sigma^2 for log-normal (unused for exponential), and
    ``effect`` is a random offset u added to eta or, for a frailty, log v.
    The log-normal frailty form is an approximation.  A value outside the
    floating-point range raises ValueError rather than giving nan or inf.
    """
    _check_tau(tau)
    if not (_finite(eta) and _finite(effect)):
        raise ValueError("eta and the effect must be finite")
    if family is not Family.EXPONENTIAL and not _positive(shape):
        raise ValueError(f"{family.value} requires a positive shape")
    proportional = family in (Family.EXPONENTIAL, Family.WEIBULL)
    # on a proportional hazard, a frailty v is the offset log v on eta
    if kind is EffectKind.RANDOM or (kind is EffectKind.FRAILTY and proportional):
        eta = eta + effect
    v = np.exp(effect) if kind is EffectKind.FRAILTY and not proportional else None
    # Overflow is not warned of here: a value it spoils is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        if proportional:
            lam = np.exp(eta)
            if not _positive(lam):
                raise ValueError("the rate exp(eta) underflows to 0")
            # exponential: (1 - e^(-lam tau)) / lam
            value = (-np.expm1(-lam * tau) / lam if family is Family.EXPONENTIAL
                     else _weibull_rmst(eta, shape, tau))
        elif family is Family.LOG_LOGISTIC:
            value = _loglogistic_rmst(eta, shape, 1.0 if v is None else v, tau)
        else:
            value = _lognormal_rmst(eta, shape, v, tau)
    bad = ~np.isfinite(value)
    if bad.any():  # e^(-eta/k) overflows beside an incomplete gamma or beta that underflows
        eta_at, shape_at = (np.broadcast_to(x, bad.shape).flat[bad.argmax()] for x in (eta, shape))
        raise ValueError(f"the {family.value} RMST leaves the floating-point range "
                         f"at eta={eta_at}, shape={shape_at}")
    return _float_if_scalar(value)


def rmst_value(p: FamilyParams, e: EffectValue, tau: float):
    """Closed-form RMST for any family x effect combination; the parameters
    of p and the effect value may be numpy arrays."""
    eta, shape, effect = kernel_args(p, e)
    return rmst_closed_form(p.family, eta, shape, tau, e.kind, effect)


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


def rmst_numeric(p: FamilyParams, e: EffectValue, tau: float) -> float:
    """RMST by quadrature of the survival function in log time:

        int_0^tau S(t) dt = int_{-60}^0 S(tau e^s) tau e^s ds + tau e^-60,

    taking S = 1 below tau e^-60.  For shapes k < 1, S(t) has an unbounded
    slope at t = 0, where adaptive Simpson in t fails to converge; in log time
    the integrand is smooth.  The absolute tolerance is 1e-10.  Independent
    of the closed forms; for log-normal frailty this is the exact value (the
    closed form there is approximate).

    The result is never below the floor tau e^-60 (about 8.8e-27 tau), so it
    is an absolute oracle only: where S is already tiny near t = 0 and the
    RMST lies below that floor (log-logistic mu = 300, k = 1e-3 at tau = 100
    has RMST about 5e-129 but returns 8.8e-25), a relative comparison with
    it means nothing.
    """
    _check_tau(tau)
    eta, shape, effect = kernel_args(p, e)

    def integrand(s: np.ndarray) -> np.ndarray:
        t = tau * np.exp(s)
        log_s = log_hazard_survival(p.family, eta, shape, t, np.log(t), e.kind, effect)[1]
        return np.exp(log_s) * t

    return (_adaptive_simpson(integrand, -_LOG_TIME_SPAN, 0.0, _NUMERIC_TOL, _MAX_DEPTH)
            + tau * math.exp(-_LOG_TIME_SPAN))


@dataclass
class RmstSampleVector:
    """Per-draw RMST values aligned with the posterior draw order."""

    values: np.ndarray


def rmst_distribution(draws, tau: float, x1: int, cluster: int | None = None,
                      covariates: tuple = ()) -> RmstSampleVector:
    """Evaluate the closed-form RMST at every posterior draw, as one array
    evaluation over the draws.

    ``draws`` is a PosteriorDraws object (see the sampler module): its model
    spec gives the family and its layout the columns of beta, the shape and
    the effects.  ``x1`` is the arm, 0 (control) or 1 (treatment).
    ``cluster`` is an integer (not a bool) in 1..M, or None for the marginal
    RMST (u = 0 / v = 1).  ``covariates`` supplies values for the design
    columns after the intercept and group indicator (defaults to zeros).
    The linear predictor is the kernel's eta, and the cluster's column is
    handed over as u, or as log v for a frailty.
    """
    layout, family = draws.layout, draws.spec.family
    if layout.q < 2:
        raise ValueError("the design needs an intercept and a group indicator column")
    if x1 not in (0, 1):
        raise ValueError("x1 must be 0 (control) or 1 (treatment)")
    if covariates and len(covariates) != layout.q - 2:
        raise ValueError(f"expected {layout.q - 2} extra covariate values, got {len(covariates)}")
    flat = draws.flat()
    row = np.zeros(layout.q)
    row[: 2 + len(covariates)] = (1.0, x1, *covariates)
    eta = flat[:, : layout.q] @ row
    shapes = flat[:, layout.shape_index] if layout.has_shape else None

    kind, effect = EffectKind.NONE, 0.0
    if cluster is not None:
        if layout.effect is EffectKind.NONE:
            raise ValueError("cluster queries require a random-effect or frailty model")
        if not (_is_index(cluster) and cluster in range(1, layout.n_clusters + 1)):
            raise ValueError(f"cluster must lie in 1..{layout.n_clusters}, got {cluster}")
        kind, effect = layout.effect, flat[:, layout.effect_indices.start + int(cluster) - 1]
        if kind is EffectKind.FRAILTY:
            if not _positive(effect):
                raise ValueError("frailty draws must be positive")
            effect = np.log(effect)
    return RmstSampleVector(rmst_closed_form(family, eta, shapes, tau, kind, effect))


def rmst_difference(draws, tau: float, cluster: int | None = None,
                    covariates: tuple = ()) -> tuple[RmstSampleVector, RmstSampleVector, RmstSampleVector]:
    """Group-0 and group-1 RMST sample vectors plus their per-draw difference
    (group 1 minus group 0); the arguments are those of rmst_distribution."""
    g0 = rmst_distribution(draws, tau, 0, cluster, covariates)
    g1 = rmst_distribution(draws, tau, 1, cluster, covariates)
    diff = RmstSampleVector(g1.values - g0.values)
    return g0, g1, diff
