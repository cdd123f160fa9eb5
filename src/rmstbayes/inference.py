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
corresponding Jacobian terms.  Only ``ParamLayout`` computes offsets, once,
when it is built; readers slice theta with its ``q``, ``shape_index``,
``effect_indices`` and ``phi_index``.

A ``Model`` compiles a dataset and a spec once per fit, the layout included;
``log_prior``, ``pointwise_log_likelihood``, ``log_posterior`` and the
per-cluster ``effect_log_prior`` take ``(model, theta)``.  ``log_posterior``
also returns the per-row terms it summed, so the sampler can carry them in
its state; a cluster's log-likelihood is the bincount of those rows by
``model.cluster``.  ``pointwise_log_likelihood``, ``log_posterior`` and
``effect_log_prior`` take one draw (dim,) or a block (B, dim) of draws (the
sampler's chains, WAIC's draws) through one evaluation, each draw's shape
or phi broadcast as a column, and ``log_posterior`` evaluates a single draw
as a block of one; ``log_prior`` takes one draw, in Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .families import _FIELDS, EffectKind, Family, log_hazard_survival
from .specfun import _elementwise

_LOG_2PI = math.log(2.0 * math.pi)
# Gamma(a, b) prior (shape a, rate b) on the Weibull and log-logistic shape k.
_SHAPE_PRIOR_A = 0.01
_SHAPE_PRIOR_B = 0.01
_SHAPE_LOG_NORM = _SHAPE_PRIOR_A * math.log(_SHAPE_PRIOR_B) - math.lgamma(_SHAPE_PRIOR_A)
_COEF_PRIOR_VARIANCE = 100.0
_COEF_LOG_NORM = -0.5 * (_LOG_2PI + math.log(_COEF_PRIOR_VARIANCE))
_SIGMA2_UPPER = 100.0
_PHI_UPPER = 10.0


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
        event = np.asarray(self.event, dtype=float)  # cast to int once checked
        x = np.asarray(self.x, dtype=float)
        cluster = np.asarray(self.cluster, dtype=float)
        n = len(time)
        if x.ndim != 2 or x.shape[0] != n or len(event) != n or len(cluster) != n:
            raise ValueError("time, event, x, cluster must have matching lengths")
        if not np.all((time > 0) & (time < np.inf)):
            raise ValueError("all times must be positive and finite")
        if not np.all((event == 0) | (event == 1)):
            raise ValueError("event indicators must be 0 or 1")
        if not np.all(np.isfinite(cluster) & (cluster == np.floor(cluster))):
            raise ValueError("cluster labels must be integers")
        if not np.all(np.isfinite(x)):
            raise ValueError("covariates must be finite")
        labels = np.unique(cluster)
        if len(labels) and (labels[0] != 1 or labels[-1] != len(labels)):
            raise ValueError("cluster indices must be contiguous from 1")
        if self.column_names and len(self.column_names) != x.shape[1]:
            raise ValueError("column_names length must match design width")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event.astype(int))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "cluster", cluster.astype(int))

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
    """One of the 12 model variants: a survival family and a cluster-effect
    kind.  The priors are the same for every variant (see ``log_prior``)."""

    family: Family
    effect: EffectKind = EffectKind.NONE

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "effect", EffectKind(self.effect))

    @property
    def has_shape(self) -> bool:
        return _FIELDS[self.family][1] is not None


@dataclass(frozen=True)
class ParamLayout:
    """Index map from a flat parameter vector to its blocks."""

    q: int
    has_shape: bool
    effect: EffectKind
    n_clusters: int
    shape_name: str = "k"  # "sigma2" when the shape slot holds sigma^2

    # Offsets into theta, fixed at construction from the fields above.
    shape_index: int | None = field(init=False, repr=False, compare=False)
    effect_indices: slice = field(init=False, repr=False, compare=False)
    phi_index: int | None = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        has_effect = self.effect is not EffectKind.NONE
        start = self.q + int(self.has_shape)
        stop = start + (self.n_clusters if has_effect else 0)
        object.__setattr__(self, "shape_index", self.q if self.has_shape else None)
        object.__setattr__(self, "effect_indices", slice(start, stop))
        object.__setattr__(self, "phi_index", stop if has_effect else None)
        object.__setattr__(self, "dim", stop + int(has_effect))

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
    layout and the per-row arrays (log t, events as floats, the index of the
    censored rows, 0-based cluster index, theta column of the effect) that
    every evaluation reuses."""

    def __init__(self, data: SurvivalDataset, spec: ModelSpec):
        self.spec = spec
        self.layout = ParamLayout(
            q=data.q, has_shape=spec.has_shape, effect=spec.effect,
            n_clusters=data.n_clusters,
            shape_name=_FIELDS[spec.family][1] or "k")
        self.x, self.time = data.x, data.time
        self.event = data.event.astype(float)
        self.censored = np.flatnonzero(data.event == 0)
        self.logt = np.log(data.time)
        self.cluster = data.cluster - 1
        self.effect_column = self.cluster + self.layout.effect_indices.start


def _check_theta(layout: ParamLayout, theta: np.ndarray, blocks: bool = False) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (layout.dim,) or theta.ndim > 1 + blocks:
        expected = f"({layout.dim},)" + (f" or (B, {layout.dim})" if blocks else "")
        raise ValueError(f"parameter vector has shape {theta.shape}, expected {expected}")
    return theta


def pointwise_log_likelihood(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-row delta*log f + (1-delta)*log S: the log-likelihood's terms, (n,)
    for one draw theta (dim,), or (B, n) for a block (B, dim) of draws, in
    one kernel call with each draw's shape as a column, which forms the row
    term (the log-normal tail without frailty on censored rows only)."""
    layout, spec = model.layout, model.spec
    theta = _check_theta(layout, theta, blocks=True)
    eta = theta[..., : layout.q] @ model.x.T
    k = layout.shape_index
    shape = None if k is None else np.exp(theta[..., k, None])
    # take by precomputed column: theta[..., effects][..., cluster] is slower
    effect = (theta.take(model.effect_column, axis=-1)
              if spec.effect is not EffectKind.NONE else 0.0)
    return log_hazard_survival(spec.family, eta, shape, model.time, model.logt,
                               spec.effect, effect, model.event, model.censored)


def log_prior(model: Model, theta: np.ndarray, effect_sum: float | None = None) -> float:
    """Joint log prior density including Jacobians of the log transforms:
    beta_j ~ N(0, 100), k ~ Gamma(0.01, 0.01) (shape, rate), sigma^2 ~
    U(0, 100), phi ~ U(0, 10), and the effects as in ``effect_log_prior``,
    whose sum at theta may be handed in as ``effect_sum`` (the sampler
    carries it) instead of being evaluated.

    Returns -inf when phi or sigma^2 fall outside their uniform supports.
    """
    spec, layout = model.spec, model.layout
    theta = _check_theta(layout, theta)
    # Python floats: on a handful of values numpy's per-call cost dominates.
    # The beta terms are summed left to right from 0.0, numpy's order for
    # fewer than 8 terms.
    values = theta.tolist()
    total = 0.0
    for b in values[: layout.q]:
        total += _COEF_LOG_NORM - 0.5 * b * b / _COEF_PRIOR_VARIANCE

    if layout.has_shape:
        log_shape = values[layout.shape_index]
        if spec.family is Family.LOG_NORMAL:
            sigma2 = math.exp(log_shape)
            if sigma2 >= _SIGMA2_UPPER:
                return -math.inf
            total += -math.log(_SIGMA2_UPPER) + log_shape  # U(0,s) + Jacobian
        else:
            k = math.exp(log_shape)
            a, b = _SHAPE_PRIOR_A, _SHAPE_PRIOR_B
            total += _SHAPE_LOG_NORM + (a - 1.0) * math.log(k) - b * k + log_shape

    if spec.effect is not EffectKind.NONE:
        log_phi = values[layout.phi_index]
        phi = math.exp(log_phi)
        if phi >= _PHI_UPPER:
            return -math.inf
        total += -math.log(_PHI_UPPER) + log_phi  # U(0,xi) + Jacobian
        total += (float(effect_log_prior(model, theta).sum()) if effect_sum is None
                  else effect_sum)
    return total


def effect_log_prior(model: Model, theta: np.ndarray) -> np.ndarray:
    """Per-cluster log prior of the sampling-scale effects given phi:
    u_i ~ N(0, phi^2), or v_i ~ Gamma(1/phi, 1/phi) with the Jacobian of
    log v.  (M,) for one draw (dim,), or (B, M) for a block (B, dim), each
    draw's phi a column over its effects.  ``log_prior`` sums it."""
    layout = model.layout
    eff = theta[..., layout.effect_indices]
    phi = np.exp(theta[..., layout.phi_index, None])
    if model.spec.effect is EffectKind.RANDOM:
        return -0.5 * (_LOG_2PI + 2.0 * np.log(phi)) - 0.5 * eff * eff / (phi * phi)
    r = 1.0 / phi
    return (r * np.log(r) - _elementwise(math.lgamma, r)
            + (r - 1.0) * eff - r * np.exp(eff) + eff)


def log_posterior(model: Model, theta: np.ndarray, effect_sums=None) -> tuple:
    """(log posterior, per-row log-likelihood terms it summed).

    For a block (B, dim): (B,) and (B, n), in one likelihood pass over the
    draws whose prior is finite; the others get -inf and rows of nan.  One
    draw theta (dim,) is evaluated as a block of one: a float and (n,) rows,
    the rows None when the prior is -inf and no likelihood pass is made.
    ``effect_sums`` is passed on to ``log_prior`` as ``effect_sum``: one per
    draw for a block, a float for one draw.
    """
    theta = _check_theta(model.layout, theta, blocks=True)
    if theta.ndim == 1:
        lp, rows = log_posterior(model, theta[None], [effect_sums])
        return (float(lp[0]), rows[0]) if lp[0] > -math.inf else (-math.inf, None)
    sums = [None] * len(theta) if effect_sums is None else effect_sums
    prior = np.array([log_prior(model, t, s) for t, s in zip(theta, sums)])
    finite = prior > -math.inf
    if finite.all():
        rows = pointwise_log_likelihood(model, theta)
        return prior + rows.sum(axis=1), rows
    # no pass at a draw outside the prior's support: a sigma^2 past it can
    # overflow the kernel
    rows = np.full((len(theta), len(model.time)), np.nan)
    lp = np.full(len(theta), -math.inf)
    if finite.any():
        rows[finite] = pointwise_log_likelihood(model, theta[finite])
        lp[finite] = prior[finite] + rows[finite].sum(axis=1)
    return lp, rows
