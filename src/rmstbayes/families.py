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
formula, once, in numpy (the log-normal tail is one ``log_std_normal_sf``
call over the array, itself numpy with no Python call per element); the
likelihood evaluates it over all rows and
``rmst_numeric`` over its quadrature points.  Its (eta, shape, kind,
effect), with eta = log lam or mu and effect = u or log v, are also the
arguments of ``rmst.rmst_closed_form``; ``kernel_args`` maps (FamilyParams,
EffectValue) to them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .specfun import _LOG_SQRT_2PI, log_std_normal_sf


class Family(str, Enum):
    EXPONENTIAL = "exponential"
    WEIBULL = "weibull"
    LOG_LOGISTIC = "loglogistic"
    LOG_NORMAL = "lognormal"


def _positive(x) -> bool:
    return x is not None and bool(np.all(np.greater(x, 0.0)))


def _finite(x) -> bool:
    return x is not None and bool(np.all(np.isfinite(x)))


def _is_index(x) -> bool:  # numpy integers count, bools do not
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# The parameter fields each family takes; the others must be None.
_FIELDS = {Family.EXPONENTIAL: ("lam",), Family.WEIBULL: ("lam", "k"),
           Family.LOG_LOGISTIC: ("mu", "k"), Family.LOG_NORMAL: ("mu", "sigma2")}


@dataclass(frozen=True)
class FamilyParams:
    """Distribution parameters for one family (unused fields are None, and
    a value given for one is refused).  The fields may be numpy arrays of
    equal shape, one entry per parameter set; ``rmst.rmst_value`` accepts
    those."""

    family: Family
    lam: float | None = None
    k: float | None = None
    mu: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        fam = self.family
        unused = [name for name in ("lam", "k", "mu", "sigma2")
                  if name not in _FIELDS[fam] and getattr(self, name) is not None]
        if unused:
            raise ValueError(f"{Family(fam).value} takes no {' or '.join(unused)}")
        if fam is Family.EXPONENTIAL:
            if not _positive(self.lam):
                raise ValueError("exponential requires lam > 0")
        elif fam is Family.WEIBULL:
            if not (_positive(self.lam) and _positive(self.k)):
                raise ValueError("weibull requires lam > 0 and k > 0")
        elif fam is Family.LOG_LOGISTIC:
            if not (_finite(self.mu) and _positive(self.k)):
                raise ValueError("loglogistic requires finite mu and k > 0")
        elif fam is Family.LOG_NORMAL:
            if not (_finite(self.mu) and _positive(self.sigma2)):
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
        if self.kind is EffectKind.FRAILTY and not _positive(self.value):
            raise ValueError("frailty value must be positive")
        if self.kind is EffectKind.RANDOM and not _finite(self.value):
            raise ValueError("random offset must be finite")


NO_EFFECT = EffectValue(EffectKind.NONE)


def random_offset(u: float) -> EffectValue:
    return EffectValue(EffectKind.RANDOM, u)


def frailty(v: float) -> EffectValue:
    return EffectValue(EffectKind.FRAILTY, v)


def log_hazard_survival(family: Family, eta, shape, t, logt,
                        kind: EffectKind = EffectKind.NONE, effect=0.0):
    """(log h, log S) at times ``t`` (with ``logt`` = log t), elementwise over
    numpy arrays or scalars.

    ``eta`` is log lam (exponential, weibull) or mu (log-logistic,
    log-normal); ``shape`` is k, or sigma^2 for log-normal, a scalar or an
    array that broadcasts against ``eta`` (the likelihood passes a (1,)
    shape with (n,) ``eta`` and effects, or a (B, 1) column of shapes with
    (B, n) ones, one row per draw).  ``effect`` is the cluster effect on the
    sampling scale: a random offset u shifts eta, and a frailty given as
    log v scales log S by v and adds log v to log h.
    """
    if kind is EffectKind.RANDOM:
        eta = eta + effect
    if family is Family.EXPONENTIAL:
        log_h = eta
        log_s = -np.exp(eta) * t
    elif family is Family.WEIBULL:
        log_h = eta + np.log(shape) + (shape - 1.0) * logt
        log_s = -np.exp(eta + shape * logt)
    elif family is Family.LOG_LOGISTIC:
        log_s = -np.logaddexp(0.0, eta + shape * logt)  # S = 1/(1 + e^eta t^k)
        log_h = eta + np.log(shape) + (shape - 1.0) * logt + log_s
    else:
        z = (logt - eta) / np.sqrt(shape)
        log_s = log_std_normal_sf(z)
        log_pdf = -logt - 0.5 * np.log(shape) - _LOG_SQRT_2PI - 0.5 * z * z
        log_h = log_pdf - log_s
    if kind is EffectKind.FRAILTY:
        return effect + log_h, np.exp(effect) * log_s
    return log_h, log_s


def kernel_args(p: FamilyParams, e: EffectValue) -> tuple:
    """(eta, shape, effect) arguments of ``log_hazard_survival`` for p and e."""
    if p.family in (Family.EXPONENTIAL, Family.WEIBULL):
        eta, shape = np.log(p.lam), p.k
    else:
        eta, shape = p.mu, p.sigma2 if p.family is Family.LOG_NORMAL else p.k
    effect = np.log(e.value) if e.kind is EffectKind.FRAILTY else e.value
    return eta, shape, effect
