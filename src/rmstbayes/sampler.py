"""Adaptive random-walk Metropolis-within-blocks MCMC and chain diagnostics.

Each sweep updates, in order: the full coefficient vector beta (joint
Gaussian proposal with an adapted full covariance, target acceptance 0.234),
the shape parameter, the cluster effects and log phi (target 0.44 each).
The cluster effects are conditionally independent given beta, the shape and
phi, so all M are proposed at once, each with its own step scale, and each
is accepted or rejected on its own cluster's log-ratio: two likelihood
passes for all M effects.  phi enters only the effects' prior, so its update
takes no likelihood pass.  A sweep thus costs _BETA_UPDATES + 3 likelihood
passes whatever M is.  Every step scale follows a Robbins-Monro recursion
during burn-in and is frozen afterwards, so the kept portion of each chain
is a fixed Markov kernel.  The targets, the initial step scale, the number
of beta proposals per sweep and the initial-point retries are module
constants; ``SamplerConfig`` holds only the chain count, lengths and seed.

Randomness comes from numpy's counter-based Philox generator with per-chain
substreams seeded by SeedSequence([seed, chain_index]); runs are bit-for-bit
reproducible for a given (data, spec, config).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .inference import (Model, ModelSpec, ParamLayout, SurvivalDataset,
                        cluster_log_density, log_posterior, log_prior)

_ADAPT_START = 50           # beta moments gathered before the adapted covariance
_TARGET_ACCEPT_BLOCK = 0.234
_TARGET_ACCEPT_SCALAR = 0.44
_INITIAL_STEP = 0.1
_INIT_JITTER_SD = 0.1
_MAX_INIT_RETRIES = 100
_BETA_UPDATES = 2          # beta-block proposals per sweep


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 2
    iterations: int = 2000
    burnin: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must satisfy 0 <= burnin < iterations")


@dataclass(frozen=True)
class PosteriorDraws:
    """Kept MCMC draws on the natural scale.

    ``values`` has shape (chains, kept_iterations, dim); positive parameters
    (k, sigma^2, v_i, phi) are exponentiated back from the sampling scale.
    """

    values: np.ndarray
    columns: tuple
    layout: ParamLayout
    spec: ModelSpec
    acceptance: dict
    config: SamplerConfig

    @property
    def n_chains(self) -> int:
        return self.values.shape[0]

    @property
    def n_kept(self) -> int:
        return self.values.shape[1]

    def flat(self) -> np.ndarray:
        """(chains * kept, dim) natural-scale matrix, chains concatenated."""
        return self.values.reshape(-1, self.values.shape[-1])

    def column_index(self, column) -> int:
        if isinstance(column, str):
            try:
                return self.columns.index(column)
            except ValueError:
                raise KeyError(f"unknown column {column!r}; have {self.columns}") from None
        return int(column)

    def column(self, column) -> np.ndarray:
        """(chains, kept) natural-scale values of one parameter."""
        return self.values[:, :, self.column_index(column)]


def _initial_point(model: Model, rng: np.random.Generator) -> np.ndarray:
    layout = model.layout
    center = np.zeros(layout.dim)
    # beta = 0, log k = 0 (k=1), log sigma^2 = 0, effects at identity
    # (u=0 / log v=0), phi = phi_upper/2.
    if layout.phi_index is not None:
        center[layout.phi_index] = math.log(model.spec.phi_upper / 2.0)
    for attempt in range(_MAX_INIT_RETRIES):
        theta = center + rng.normal(0.0, _INIT_JITTER_SD, size=layout.dim)
        if math.isfinite(log_posterior(model, theta)):
            return theta
    raise RuntimeError(
        f"failed to find a finite-posterior initial point in {_MAX_INIT_RETRIES} tries"
    )


def _block_names(layout: ParamLayout) -> list:
    names = ["beta", "shape"] if layout.has_shape else ["beta"]
    if layout.phi_index is not None:
        names += [f"effect[{i}]" for i in range(1, layout.n_clusters + 1)] + ["phi"]
    return names


def _run_single_chain(model: Model, cfg: SamplerConfig, chain_index: int):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, chain_index])))
    layout = model.layout
    theta = _initial_point(model, rng)
    lp = log_posterior(model, theta)

    # Adaptation slots, in the order of _block_names: 0 for the beta block,
    # i - q + 1 for the coordinate at index i >= q (shape, effects, phi).
    q = layout.q
    n_blocks = layout.dim - q + 1
    log_scales = np.full(n_blocks, math.log(_INITIAL_STEP))
    rm_iter = np.zeros(n_blocks, dtype=int)  # per-slot adaptation clocks
    accept_post = np.zeros(n_blocks)
    trials_post = np.zeros(n_blocks)

    def slot_of(index):
        return index - q + 1

    effects = layout.effect_indices
    effect_slots = slice(slot_of(effects.start), slot_of(effects.stop))

    def record(slot, accepted, target):
        """Robbins-Monro step-scale update during burn-in, acceptance counts
        after it; ``slot`` and ``accepted`` may be a slice and a vector."""
        if adapting:
            rm_iter[slot] += 1
            gamma = 1.0 / rm_iter[slot] ** 0.6
            log_scales[slot] += gamma * (accepted - target)
        else:
            accept_post[slot] += accepted
            trials_post[slot] += 1.0

    def metropolis(proposal, lp_prop, slot, target):
        nonlocal theta, lp
        accept = (lp_prop - lp > math.log(rng.random())
                  if math.isfinite(lp_prop) else False)
        if accept:
            theta, lp = proposal, lp_prop
        record(slot, 1.0 if accept else 0.0, target)

    def scalar_step(index, log_target):
        """Random-walk Metropolis on theta[index]; ``log_target`` maps the
        proposal to its log posterior."""
        proposal = theta.copy()
        proposal[index] += math.exp(log_scales[slot_of(index)]) * rng.normal()
        metropolis(proposal, log_target(proposal), slot_of(index), _TARGET_ACCEPT_SCALAR)

    # Running moments of beta for the adapted full proposal covariance; the
    # coefficients are mutually correlated (intercept vs. slopes), so a
    # diagonal proposal mixes too slowly at the default chain lengths.
    # Accumulation starts a quarter of the way into burn-in so the transit
    # from the (deliberately generic) initial point does not inflate the
    # estimate.
    beta_mean = np.zeros(q)
    beta_m2 = np.zeros((q, q))
    beta_count = 0
    beta_chol = None
    moments_start = cfg.burnin // 4

    kept = np.empty((cfg.iterations - cfg.burnin, layout.dim))

    for it in range(cfg.iterations):
        adapting = it < cfg.burnin
        for _ in range(_BETA_UPDATES):
            if beta_count > _ADAPT_START:
                if beta_chol is None:
                    # switching from the identity-shaped proposal: restart
                    # the scale at the standard 2.38/sqrt(q) optimum and
                    # reset the adaptation clock so re-tuning is fast
                    log_scales[0] = math.log(2.38 / math.sqrt(q))
                    rm_iter[0] = 0
                if adapting or beta_chol is None:
                    cov = beta_m2 / (beta_count - 1)
                    cov[np.diag_indices_from(cov)] += 1e-10
                    beta_chol = np.linalg.cholesky(cov)
                step = beta_chol @ rng.normal(size=q)
            else:
                step = rng.normal(size=q)
            proposal = theta.copy()
            proposal[:q] += math.exp(log_scales[0]) * step
            metropolis(proposal, log_posterior(model, proposal), 0, _TARGET_ACCEPT_BLOCK)
        if layout.has_shape:
            scalar_step(layout.shape_index, lambda prop: log_posterior(model, prop))
        if layout.phi_index is not None:
            # Given beta, the shape and phi the effects are conditionally
            # independent, so one proposal per cluster, each accepted on its
            # own log-ratio, is the kernel of M scalar Metropolis updates at
            # the cost of two likelihood passes.
            proposal = theta.copy()
            proposal[effects] += (np.exp(log_scales[effect_slots])
                                  * rng.normal(size=layout.n_clusters))
            log_ratio = (cluster_log_density(model, proposal)
                         - cluster_log_density(model, theta))
            accepted = np.isfinite(log_ratio) & (log_ratio > np.log(rng.random(layout.n_clusters)))
            theta[effects] = np.where(accepted, proposal[effects], theta[effects])
            lp += float(np.sum(log_ratio[accepted]))
            record(effect_slots, accepted.astype(float), _TARGET_ACCEPT_SCALAR)
            # phi enters only the effects' prior: no likelihood pass.
            scalar_step(layout.phi_index,
                        lambda prop: lp + log_prior(model, prop) - log_prior(model, theta))
        if adapting:
            if it >= moments_start:
                # Welford update of the beta moments for the proposal
                # covariance.
                beta_count += 1
                d = theta[:q] - beta_mean
                beta_mean += d / beta_count
                beta_m2 += np.outer(d, theta[:q] - beta_mean)
        else:
            kept[it - cfg.burnin] = theta

    rates = accept_post / np.maximum(trials_post, 1.0)
    return kept, rates


def run_chains(data: SurvivalDataset, spec: ModelSpec, cfg: SamplerConfig) -> PosteriorDraws:
    """Run all chains and return natural-scale kept draws."""
    model = Model(data, spec)
    layout = model.layout
    names = _block_names(layout)
    all_kept = []
    rates = {name: [] for name in names}
    for chain in range(cfg.chains):
        kept, chain_rates = _run_single_chain(model, cfg, chain)
        all_kept.append(layout.to_natural(kept))
        for name, r in zip(names, chain_rates):
            rates[name].append(float(r))
    columns = layout.column_names(tuple(data.column_names))
    return PosteriorDraws(
        values=np.stack(all_kept),
        columns=columns,
        layout=layout,
        spec=spec,
        acceptance=rates,
        config=cfg,
    )


def _split_chains(draws: PosteriorDraws, column) -> np.ndarray:
    """(2 * chains, N/2) matrix of half-chains for one column."""
    series = draws.column(column)
    n = series.shape[1]
    if draws.n_chains < 2 and n < 100:
        raise ValueError("need >= 2 chains or >= 100 kept draws")
    half = n // 2
    if half < 2:
        raise ValueError("too few kept draws to split")
    return np.concatenate([series[:, :half], series[:, half: 2 * half]], axis=0)


def split_rhat(draws: PosteriorDraws, column) -> float:
    """Classic split-Rhat: chains halved, between/within variance ratio."""
    chains = _split_chains(draws, column)
    m, n = chains.shape
    within = chains.var(axis=1, ddof=1)
    w = within.mean()
    if w == 0.0:
        return 1.0  # constant chains: degenerate by convention
    means = chains.mean(axis=1)
    b = n * means.var(ddof=1)
    var_hat = (n - 1) / n * w + b / n
    return float(math.sqrt(var_hat / w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of one chain at all lags, via FFT."""
    n = len(x)
    xc = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, size)
    acov = np.fft.irfft(f * np.conj(f), size)[:n].real / n
    return acov


def effective_sample_size(draws: PosteriorDraws, column) -> float:
    """Autocorrelation-sum ESS pooled across split chains, with Geyer's
    initial-monotone truncation over consecutive lag pairs."""
    chains = _split_chains(draws, column)
    m, n = chains.shape
    if m * n < 100:
        raise ValueError("need >= 100 kept draws for ESS")
    within = chains.var(axis=1, ddof=1)
    w = within.mean()
    if w == 0.0:
        warnings.warn("constant chain: ESS defined as 0", RuntimeWarning, stacklevel=2)
        return 0.0
    means = chains.mean(axis=1)
    b_over_n = means.var(ddof=1)
    var_hat = (n - 1) / n * w + b_over_n
    acov = np.mean([_autocovariance(chains[j]) for j in range(m)], axis=0)

    rho = 1.0 - (w - acov) / var_hat
    rho[0] = 1.0
    tau = 0.0
    prev_pair = math.inf
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        pair = min(pair, prev_pair)  # enforce monotone decrease
        tau += pair
        prev_pair = pair
        t += 2
    tau = 1.0 + 2.0 * tau
    # rho[0]=1 contributes the leading 1; lag sums start at t=1 in pairs,
    # so tau >= 1 always.  tau here is the integrated autocorrelation time.
    ess = m * n / tau
    return float(min(ess, m * n))
