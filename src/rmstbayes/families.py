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
f(t|v) = v h(t) S(t)^v, an offset log v on log lam for exponential/weibull.

``log_hazard_survival`` holds the families' log-hazard and log-survival
formulas, once, in numpy: one in w = eta + k log t for exponential (k = 1),
weibull and log-logistic, and the log-normal's, whose tail is one
``log_std_normal_sf`` call over an array.  ``rmst_numeric`` evaluates it
over its quadrature points; the likelihood asks it for the row term
event*log f + (1 - event)*log S over all rows in one call.  Its (eta,
shape, kind, effect), with eta = log lam or mu and effect = u or log v, are
also the arguments of ``rmst.rmst_closed_form``; ``kernel_args`` maps
(FamilyParams, EffectValue) to them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
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


# Each family's (eta field, shape field), the one record of the parameters a
# family takes (the others must be None): eta is log lam or mu, mu must be
# finite and every other field positive, and exponential has no shape.
_FIELDS = {Family.EXPONENTIAL: ("lam", None), Family.WEIBULL: ("lam", "k"),
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
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        unused = [f.name for f in fields(self)[1:]  # the parameter fields
                  if f.name not in _FIELDS[fam] and getattr(self, f.name) is not None]
        if unused:
            raise ValueError(f"{fam.value} takes no {' or '.join(unused)}")
        named = [name for name in _FIELDS[fam] if name is not None]
        if not all(_finite(self.mu) if name == "mu" else _positive(getattr(self, name))
                   for name in named):
            raise ValueError(f"{fam.value} requires " + " and ".join(
                "finite mu" if name == "mu" else f"{name} > 0" for name in named))

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
        object.__setattr__(self, "kind", EffectKind(self.kind))
        if self.kind is EffectKind.FRAILTY and not _positive(self.value):
            raise ValueError("frailty value must be positive")
        if self.kind is EffectKind.RANDOM and not _finite(self.value):
            raise ValueError("random offset must be finite")


NO_EFFECT = EffectValue(EffectKind.NONE)


def random_offset(u: float) -> EffectValue:
    return EffectValue(EffectKind.RANDOM, u)


def frailty(v: float) -> EffectValue:
    return EffectValue(EffectKind.FRAILTY, v)


def _offsets_eta(family: Family, kind: EffectKind) -> bool:
    """Whether an effect of ``kind`` adds to eta: u, or an exponential/weibull log v."""
    return kind is EffectKind.RANDOM or (
        kind is EffectKind.FRAILTY and family in (Family.EXPONENTIAL, Family.WEIBULL))


def log_hazard_survival(family: Family, eta, shape, t, logt,
                        kind: EffectKind = EffectKind.NONE, effect=0.0,
                        event=None, censored=None):
    """(log h, log S) at times ``t`` (with ``logt`` = log t), elementwise over
    numpy arrays or scalars.  Given the rows' ``event`` indicators and
    ``censored`` row index, it returns the row term event*log h + log S
    instead; without frailty, log-normal event rows take log f directly and
    the tail runs on the censored rows only.

    ``eta`` is log lam (exponential, weibull) or mu (log-logistic,
    log-normal); ``shape`` is k, or sigma^2 for log-normal, a scalar or an
    array that broadcasts against ``eta`` (the likelihood passes a (1,)
    shape with (n,) ``eta`` and effects, or a (B, 1) column of shapes with
    (B, n) ones, one row per draw).  ``effect`` is the cluster effect on the
    sampling scale: a random offset u, or a frailty log v on exponential or
    weibull, is added to eta; a frailty on log-logistic or log-normal scales
    log S by v and adds log v to log h.  Both are formed in place in two
    fresh arrays (0-d for scalar input); no argument is written.
    """
    folded = _offsets_eta(family, kind)
    if folded:
        eta = eta + effect
    full = np.broadcast(eta, logt).shape  # shape and effect broadcast against eta
    h, s = np.empty(full), np.empty(full)
    # s holds log S for log-normal and -log S for the other families, which
    # are negated only when log S itself is returned
    if family is Family.LOG_NORMAL:
        np.divide(np.subtract(logt, eta, out=s), np.sqrt(shape), out=s)  # z
        np.subtract(-logt, 0.5 * np.log(shape), out=h)
        h -= _LOG_SQRT_2PI
        half_z2 = np.multiply(0.5, s)
        half_z2 *= s
        h -= half_z2  # log f = -log t - log sigma - log sqrt(2 pi) - z^2/2
        if event is not None and kind is not EffectKind.FRAILTY:
            h[..., censored] = log_std_normal_sf(s[..., censored])
            return h
        s = log_std_normal_sf(s)
        h -= s
    else:
        shape = 1.0 if family is Family.EXPONENTIAL else shape
        np.add(np.multiply(shape, logt, out=s), eta, out=s)  # w = eta + k log t
        np.add(s, np.log(shape), out=h)
        h -= logt  # log h = w + log k - log t, less softplus(w) for log-logistic
        if family is Family.LOG_LOGISTIC:  # -log S = softplus(w)
            h -= np.logaddexp(0.0, s, out=s)
        else:
            np.exp(s, out=s)  # -log S = e^w
    if kind is EffectKind.FRAILTY and not folded:
        h += effect
        s *= np.exp(effect)
    negated = family is not Family.LOG_NORMAL
    if event is None:
        return h, np.negative(s, out=s) if negated else s
    np.multiply(event, h, out=h)
    return np.subtract(h, s, out=h) if negated else np.add(h, s, out=h)


def kernel_args(p: FamilyParams, e: EffectValue) -> tuple:
    """(eta, shape, effect) arguments of ``log_hazard_survival`` for p and e;
    eta (log lam or mu) and the shape are the fields ``_FIELDS`` names."""
    eta_field, shape_field = _FIELDS[p.family]
    eta = np.log(p.lam) if eta_field == "lam" else p.mu
    shape = None if shape_field is None else getattr(p, shape_field)
    effect = np.log(e.value) if e.kind is EffectKind.FRAILTY else e.value
    return eta, shape, effect
