"""Parametric survival families and cluster-effect conditioning.

Four families, each in the parameterization used throughout the library:

* exponential: rate ``lam``, S(t) = exp(-lam * t)
* weibull:     scale ``lam``, shape ``k``, S(t) = exp(-lam * t^k)
* log-logistic: log-odds scale ``mu``, shape ``k``, S(t) = 1/(1 + e^mu t^k)
* log-normal:  log-time mean ``mu`` and variance ``sigma2``

A cluster effect is either a random offset ``u`` added to the linear-scale
parameter (lam -> lam e^u for exponential/weibull, mu -> mu + u for
log-logistic/log-normal) or a multiplicative frailty ``v`` on the hazard,
which exponentiates the survival function: S(t|v) = S(t)^v and
f(t|v) = v h(t) S(t)^v.

``log_hazard_survival`` holds each family's log-hazard and log-survival
formula, once, in numpy; the likelihood evaluates it over all rows,
``rmst_numeric`` over its quadrature points, and the scalar
``log_survival``/``log_density``/``hazard`` at one time point.
``kernel_args`` maps (FamilyParams, EffectValue) to its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import log_std_normal_sf

_LOG_NORM_SF = np.vectorize(log_std_normal_sf, otypes=[float])
_LOG_2PI = math.log(2.0 * math.pi)


class Family(str, Enum):
    EXPONENTIAL = "exponential"
    WEIBULL = "weibull"
    LOG_LOGISTIC = "loglogistic"
    LOG_NORMAL = "lognormal"


@dataclass(frozen=True)
class FamilyParams:
    """Distribution parameters for one family (unused fields are None)."""

    family: Family
    lam: float | None = None
    k: float | None = None
    mu: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        fam = self.family
        if fam is Family.EXPONENTIAL:
            if not (self.lam is not None and self.lam > 0):
                raise ValueError("exponential requires lam > 0")
        elif fam is Family.WEIBULL:
            if not (self.lam is not None and self.lam > 0 and self.k is not None and self.k > 0):
                raise ValueError("weibull requires lam > 0 and k > 0")
        elif fam is Family.LOG_LOGISTIC:
            if not (self.mu is not None and math.isfinite(self.mu) and self.k is not None and self.k > 0):
                raise ValueError("loglogistic requires finite mu and k > 0")
        elif fam is Family.LOG_NORMAL:
            if not (self.mu is not None and math.isfinite(self.mu) and self.sigma2 is not None and self.sigma2 > 0):
                raise ValueError("lognormal requires finite mu and sigma2 > 0")

    @staticmethod
    def exponential(lam: float) -> "FamilyParams":
        return FamilyParams(Family.EXPONENTIAL, lam=lam)

    @staticmethod
    def weibull(lam: float, k: float) -> "FamilyParams":
        return FamilyParams(Family.WEIBULL, lam=lam, k=k)

    @staticmethod
    def loglogistic(mu: float, k: float) -> "FamilyParams":
        return FamilyParams(Family.LOG_LOGISTIC, mu=mu, k=k)

    @staticmethod
    def lognormal(mu: float, sigma2: float) -> "FamilyParams":
        return FamilyParams(Family.LOG_NORMAL, mu=mu, sigma2=sigma2)


class EffectKind(str, Enum):
    NONE = "none"
    RANDOM = "random"
    FRAILTY = "frailty"


@dataclass(frozen=True)
class EffectValue:
    kind: EffectKind
    value: float = 0.0

    def __post_init__(self):
        if self.kind is EffectKind.FRAILTY and not self.value > 0:
            raise ValueError("frailty value must be positive")


NO_EFFECT = EffectValue(EffectKind.NONE)


def random_offset(u: float) -> EffectValue:
    return EffectValue(EffectKind.RANDOM, u)


def frailty(v: float) -> EffectValue:
    return EffectValue(EffectKind.FRAILTY, v)


def shifted(p: FamilyParams, u: float) -> FamilyParams:
    """Apply a random offset to the linear-scale parameter."""
    if u == 0.0:
        return p
    if p.family in (Family.EXPONENTIAL, Family.WEIBULL):
        return FamilyParams(p.family, lam=p.lam * math.exp(u), k=p.k)
    return FamilyParams(p.family, mu=p.mu + u, k=p.k, sigma2=p.sigma2)


def log_hazard_survival(family: Family, eta, shape, t, logt,
                        kind: EffectKind = EffectKind.NONE, effect=0.0):
    """(log h, log S) at times ``t`` (with ``logt`` = log t), elementwise over
    numpy arrays or scalars.

    ``eta`` is log lam (exponential, weibull) or mu (log-logistic,
    log-normal); ``shape`` is k, or sigma^2 for log-normal.  ``effect`` is the
    cluster effect on the sampling scale: a random offset u shifts eta, and a
    frailty given as log v scales log S by v and adds log v to log h.
    """
    if kind is EffectKind.RANDOM:
        eta = eta + effect
    if family is Family.EXPONENTIAL:
        log_h = eta
        log_s = -np.exp(eta) * t
    elif family is Family.WEIBULL:
        log_h = eta + math.log(shape) + (shape - 1.0) * logt
        log_s = -np.exp(eta + shape * logt)
    elif family is Family.LOG_LOGISTIC:
        log_s = -np.logaddexp(0.0, eta + shape * logt)  # S = 1/(1 + e^eta t^k)
        log_h = eta + math.log(shape) + (shape - 1.0) * logt + log_s
    else:
        z = (logt - eta) / math.sqrt(shape)
        log_s = _LOG_NORM_SF(z)
        log_pdf = -logt - 0.5 * math.log(shape) - 0.5 * _LOG_2PI - 0.5 * z * z
        log_h = log_pdf - log_s
    if kind is EffectKind.FRAILTY:
        return effect + log_h, np.exp(effect) * log_s
    return log_h, log_s


def kernel_args(p: FamilyParams, e: EffectValue = NO_EFFECT) -> tuple:
    """(eta, shape, effect) arguments of ``log_hazard_survival`` for p and e."""
    if p.family in (Family.EXPONENTIAL, Family.WEIBULL):
        eta, shape = math.log(p.lam), p.k
    else:
        eta, shape = p.mu, p.sigma2 if p.family is Family.LOG_NORMAL else p.k
    effect = math.log(e.value) if e.kind is EffectKind.FRAILTY else e.value
    return eta, shape, effect


def _scalar_log_hazard_survival(p: FamilyParams, e: EffectValue, t: float) -> tuple:
    if not t > 0:
        raise ValueError(f"survival time must be positive, got {t}")
    eta, shape, effect = kernel_args(p, e)
    log_h, log_s = log_hazard_survival(p.family, eta, shape, t, math.log(t), e.kind, effect)
    return float(log_h), float(log_s)


def log_survival(p: FamilyParams, e: EffectValue = NO_EFFECT, t: float = None) -> float:
    """log S(t | p, e); frailty v multiplies the cumulative hazard."""
    return _scalar_log_hazard_survival(p, e, t)[1]


def log_density(p: FamilyParams, e: EffectValue = NO_EFFECT, t: float = None) -> float:
    """log f(t | p, e) = log h + log S; for frailty, f = v h(t) S(t)^v."""
    log_h, log_s = _scalar_log_hazard_survival(p, e, t)
    return log_h + log_s


def hazard(p: FamilyParams, e: EffectValue = NO_EFFECT, t: float = None) -> float:
    """h(t | p, e) = f/S; equals v * h_base(t) under frailty."""
    return math.exp(_scalar_log_hazard_survival(p, e, t)[0])


@dataclass(frozen=True)
class AltFamilyParams:
    """Time-scale parameterizations: weibull S(t)=exp{-(t/scale)^k},
    log-logistic S(t)=1/(1+(t/scale)^k)."""

    family: Family
    scale: float
    k: float

    def __post_init__(self):
        if self.family not in (Family.WEIBULL, Family.LOG_LOGISTIC):
            raise ValueError("alternate parameterization exists for weibull/loglogistic only")
        if not (self.scale > 0 and self.k > 0):
            raise ValueError("alternate parameters require scale > 0 and k > 0")


def convert_weibull_alt(alt: AltFamilyParams) -> FamilyParams:
    """S(t)=exp{-(t/scale)^k}  ->  lam = scale^(-k)."""
    if alt.family is not Family.WEIBULL:
        raise ValueError("expected a weibull alternate parameterization")
    return FamilyParams.weibull(lam=alt.scale ** (-alt.k), k=alt.k)


def convert_loglogistic_alt(alt: AltFamilyParams) -> FamilyParams:
    """S(t)=1/(1+(t/scale)^k)  ->  mu = -k log(scale)."""
    if alt.family is not Family.LOG_LOGISTIC:
        raise ValueError("expected a log-logistic alternate parameterization")
    return FamilyParams.loglogistic(mu=-alt.k * math.log(alt.scale), k=alt.k)
