"""Censored-data log-likelihoods, log-priors, and joint log-posteriors.

Covers all 12 model variants: 4 families x {none, random-effect, frailty},
with covariates entering through the linear predictor eta = x @ beta
(lam = exp(eta) for exponential/weibull, mu = eta for log-logistic/log-normal)
and an additive cluster offset (random effect) or multiplicative hazard
frailty.

Parameter vectors are laid out as

    [beta (q) | shape (0 or 1) | cluster effects (0 or M) | log phi (0 or 1)]

where the shape coordinate is log k (weibull, log-logistic) or log sigma^2
(log-normal), effects are u_i (random) or log v_i (frailty), and phi is the
effect-scale hyperparameter.  All positive parameters are carried on log
scale so random-walk proposals are unconstrained; the log-priors include the
corresponding Jacobian terms.  Only ``ParamLayout`` computes offsets; readers
slice theta with its ``q``, ``shape_index``, ``effect_indices`` and ``phi_index``.

A ``Model`` compiles a dataset and a spec once per fit; ``log_prior``,
``log_likelihood``, ``pointwise_log_likelihood`` and ``log_posterior`` take
``(model, theta)``, and so do the per-cluster pieces that the sampler's
batched effect update needs: ``cluster_log_likelihood``,
``effect_log_prior`` and their sum ``cluster_log_density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import EffectKind, Family, log_hazard_survival

_LOG_2PI = math.log(2.0 * math.pi)
# Gamma(a, b) prior (shape a, rate b) on the Weibull and log-logistic shape k.
_SHAPE_PRIOR_A = 0.01
_SHAPE_PRIOR_B = 0.01
_SHAPE_LOG_NORM = _SHAPE_PRIOR_A * math.log(_SHAPE_PRIOR_B) - math.lgamma(_SHAPE_PRIOR_A)


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data with a design matrix and cluster labels.

    ``x`` has the intercept constant 1 in column 0 and the group indicator in
    column 1.  ``cluster`` holds 1-based contiguous cluster indices.
    """

    time: np.ndarray
    event: np.ndarray
    x: np.ndarray
    cluster: np.ndarray
    column_names: tuple = ()

    def __post_init__(self):
        time = np.asarray(self.time, dtype=float)
        event = np.asarray(self.event, dtype=int)
        x = np.asarray(self.x, dtype=float)
        cluster = np.asarray(self.cluster, dtype=int)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cluster", cluster)
        n = len(time)
        if x.ndim != 2 or x.shape[0] != n or len(event) != n or len(cluster) != n:
            raise ValueError("time, event, x, cluster must have matching lengths")
        if not np.all((time > 0) & (time < np.inf)):
            raise ValueError("all times must be positive and finite")
        if not np.all((event == 0) | (event == 1)):
            raise ValueError("event indicators must be 0 or 1")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        labels = np.unique(cluster)
        if len(labels) and (labels[0] != 1 or labels[-1] != len(labels)):
            raise ValueError("cluster indices must be contiguous from 1")
        if self.column_names and len(self.column_names) != x.shape[1]:
            raise ValueError("column_names length must match design width")

    @property
    def n(self) -> int:
        return len(self.time)

    @property
    def q(self) -> int:
        return self.x.shape[1]

    @property
    def n_clusters(self) -> int:
        return int(self.cluster.max()) if len(self.cluster) else 0


@dataclass(frozen=True)
class ModelSpec:
    """Family + cluster-effect choice + prior hyperparameters.

    ``coef_prior_variance`` is the variance of the independent normal priors
    on beta.  ``phi_upper`` bounds the uniform prior on phi, and
    ``sigma2_upper`` bounds the uniform prior on sigma^2.
    """

    family: Family
    effect: EffectKind = EffectKind.NONE
    coef_prior_variance: float = 100.0
    phi_upper: float = 10.0
    sigma2_upper: float = 100.0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "effect", EffectKind(self.effect))
        for name in ("coef_prior_variance", "phi_upper", "sigma2_upper"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def has_shape(self) -> bool:
        return self.family is not Family.EXPONENTIAL


@dataclass(frozen=True)
class ParamLayout:
    """Index map from a flat parameter vector to its blocks."""

    q: int
    has_shape: bool
    effect: EffectKind
    n_clusters: int
    shape_name: str = "k"  # "sigma2" when the shape slot holds sigma^2

    @property
    def shape_index(self) -> int | None:
        return self.q if self.has_shape else None

    @property
    def effect_indices(self) -> slice:
        start = self.q + (1 if self.has_shape else 0)
        m = self.n_clusters if self.effect is not EffectKind.NONE else 0
        return slice(start, start + m)

    @property
    def phi_index(self) -> int | None:
        if self.effect is EffectKind.NONE:
            return None
        return self.effect_indices.stop

    @property
    def dim(self) -> int:
        return self.effect_indices.stop if self.phi_index is None else self.phi_index + 1

    def column_names(self, design_names: tuple = ()) -> tuple:
        names = list(design_names) if design_names else [f"beta{j}" for j in range(self.q)]
        if self.has_shape:
            names.append(self.shape_name)
        if self.effect is not EffectKind.NONE:
            prefix = "u" if self.effect is EffectKind.RANDOM else "v"
            names.extend(f"{prefix}[{i}]" for i in range(1, self.n_clusters + 1))
            names.append("phi")
        return tuple(names)

    @property
    def _log_scale(self) -> np.ndarray:
        """Mask of the coordinates sampled on log scale: every one after beta
        (the shape, frailty effects, phi) except random effects u."""
        mask = np.arange(self.dim) >= self.q
        if self.effect is EffectKind.RANDOM:
            mask[self.effect_indices] = False
        return mask

    def to_natural(self, theta: np.ndarray) -> np.ndarray:
        """Exponentiate the log-scale coordinates (shape, frailty v, phi)."""
        out, mask = np.array(theta, dtype=float, copy=True), self._log_scale
        out[..., mask] = np.exp(out[..., mask])
        return out

    def to_sampling(self, natural: np.ndarray) -> np.ndarray:
        """Inverse of to_natural."""
        out, mask = np.array(natural, dtype=float, copy=True), self._log_scale
        out[..., mask] = np.log(out[..., mask])
        return out


class Model:
    """A dataset and a model spec compiled once per fit: the parameter
    layout, the prior constants, and the per-row arrays (log t, events,
    0-based cluster index) that every posterior evaluation reuses."""

    def __init__(self, data: SurvivalDataset, spec: ModelSpec):
        self.spec = spec
        self.layout = ParamLayout(
            q=data.q, has_shape=spec.has_shape, effect=spec.effect,
            n_clusters=data.n_clusters,
            shape_name="sigma2" if spec.family is Family.LOG_NORMAL else "k")
        self.x, self.time, self.event = data.x, data.time, data.event
        self.logt = np.log(data.time)
        self.cluster = data.cluster - 1
        self.coef_log_norm = -0.5 * (_LOG_2PI + math.log(spec.coef_prior_variance))


def _check_theta(layout: ParamLayout, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layout.dim,):
        raise ValueError(f"parameter vector has shape {theta.shape}, expected ({layout.dim},)")
    return theta


def pointwise_log_likelihood(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-row delta*log f + (1-delta)*log S; sums to log_likelihood."""
    layout, spec = model.layout, model.spec
    theta = _check_theta(layout, theta)
    eta = model.x @ theta[: layout.q]
    shape = math.exp(theta[layout.shape_index]) if layout.has_shape else None
    effect = (theta[layout.effect_indices][model.cluster]
              if spec.effect is not EffectKind.NONE else 0.0)
    log_h, log_s = log_hazard_survival(spec.family, eta, shape,
                                       model.time, model.logt, spec.effect, effect)
    return model.event * log_h + log_s


def log_likelihood(model: Model, theta: np.ndarray) -> float:
    return float(np.sum(pointwise_log_likelihood(model, theta)))


def log_prior(model: Model, theta: np.ndarray) -> float:
    """Joint log prior density including Jacobians of the log transforms.

    Returns -inf when phi or sigma^2 fall outside their uniform supports.
    """
    spec, layout = model.spec, model.layout
    theta = _check_theta(layout, theta)

    beta = theta[: layout.q]
    total = float(np.sum(model.coef_log_norm - 0.5 * beta * beta / spec.coef_prior_variance))

    if layout.has_shape:
        log_shape = theta[layout.shape_index]
        if spec.family is Family.LOG_NORMAL:
            sigma2 = math.exp(log_shape)
            if sigma2 >= spec.sigma2_upper:
                return -math.inf
            total += -math.log(spec.sigma2_upper) + log_shape  # U(0,s) + Jacobian
        else:
            k = math.exp(log_shape)
            a, b = _SHAPE_PRIOR_A, _SHAPE_PRIOR_B
            total += _SHAPE_LOG_NORM + (a - 1.0) * math.log(k) - b * k + log_shape

    if spec.effect is not EffectKind.NONE:
        log_phi = theta[layout.phi_index]
        phi = math.exp(log_phi)
        if phi >= spec.phi_upper:
            return -math.inf
        total += -math.log(spec.phi_upper) + log_phi  # U(0,xi) + Jacobian
        total += float(np.sum(effect_log_prior(model, theta)))
    return total


def effect_log_prior(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-cluster log prior of the sampling-scale effects given phi:
    u_i ~ N(0, phi^2), or v_i ~ Gamma(1/phi, 1/phi) with the Jacobian of
    log v.  ``log_prior`` sums it."""
    eff = theta[model.layout.effect_indices]
    phi = math.exp(theta[model.layout.phi_index])
    if model.spec.effect is EffectKind.RANDOM:
        return -0.5 * (_LOG_2PI + 2.0 * math.log(phi)) - 0.5 * eff * eff / (phi * phi)
    r = 1.0 / phi
    return r * math.log(r) - math.lgamma(r) + (r - 1.0) * eff - r * np.exp(eff) + eff


def cluster_log_likelihood(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-cluster log-likelihood, one likelihood pass; sums to log_likelihood."""
    return np.bincount(model.cluster, pointwise_log_likelihood(model, theta),
                       minlength=model.layout.n_clusters)


def cluster_log_density(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-cluster conditional log density of the effects given beta, the
    shape and phi: entry i is cluster i's log-likelihood plus the log prior
    of effect i.  Changing effect i alone moves entry i alone, by the change
    in ``log_posterior``."""
    return cluster_log_likelihood(model, theta) + effect_log_prior(model, theta)


def log_posterior(model: Model, theta: np.ndarray) -> float:
    lp = log_prior(model, theta)
    if lp == -math.inf:
        return -math.inf
    return lp + log_likelihood(model, theta)
