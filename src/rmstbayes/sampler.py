"""Adaptive random-walk Metropolis-within-blocks MCMC and chain diagnostics.

Blocks: the full coefficient vector beta (joint Gaussian proposal with an
adapted full covariance, target acceptance 0.234), then one scalar block
each for the shape parameter, every cluster effect, and log phi (target
0.44).  Proposal scales follow a Robbins-Monro recursion during burn-in and
are frozen afterwards, so the kept portion of each chain is a fixed Markov
kernel.

Randomness comes from numpy's counter-based Philox generator with per-chain
substreams seeded by SeedSequence([seed, chain_index]); runs are bit-for-bit
reproducible for a given (data, spec, config).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .inference import Model, ModelSpec, ParamLayout, SurvivalDataset, log_posterior


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 2
    iterations: int = 2000
    burnin: int = 1000
    seed: int = 0
    adapt_start: int = 50          # burn-in iterations before covariance adaptation
    target_accept_block: float = 0.234
    target_accept_scalar: float = 0.44
    initial_step: float = 0.1
    init_jitter_sd: float = 0.1
    max_init_retries: int = 100
    beta_updates: int = 2          # beta-block proposals per sweep

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("chains must be >= 1")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burnin < self.iterations:
            raise ValueError("burn-in must satisfy 0 <= burnin < iterations")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be positive")
        if self.beta_updates < 1:
            raise ValueError("beta_updates must be >= 1")


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


def _initial_point(model: Model, rng: np.random.Generator,
                   cfg: SamplerConfig) -> np.ndarray:
    layout = model.layout
    center = np.zeros(layout.dim)
    # beta = 0, log k = 0 (k=1), log sigma^2 = 0, effects at identity
    # (u=0 / log v=0), phi = phi_upper/2.
    if layout.phi_index is not None:
        center[layout.phi_index] = math.log(model.spec.phi_upper / 2.0)
    for attempt in range(cfg.max_init_retries):
        theta = center + rng.normal(0.0, cfg.init_jitter_sd, size=layout.dim)
        if math.isfinite(log_posterior(model, theta)):
            return theta
    raise RuntimeError(
        f"failed to find a finite-posterior initial point in {cfg.max_init_retries} tries"
    )


def _blocks(layout: ParamLayout) -> list:
    """Block -> coordinate indices; block 0 is the joint beta block."""
    blocks = [list(range(layout.q))]
    if layout.shape_index is not None:
        blocks.append([layout.shape_index])
    for i in layout.effect_indices:
        blocks.append([i])
    if layout.phi_index is not None:
        blocks.append([layout.phi_index])
    return blocks


def _block_names(layout: ParamLayout) -> list:
    names = ["beta"]
    if layout.shape_index is not None:
        names.append("shape")
    names.extend(f"effect[{i}]" for i in range(1, len(layout.effect_indices) + 1))
    if layout.phi_index is not None:
        names.append("phi")
    return names


def _run_single_chain(model: Model, cfg: SamplerConfig, chain_index: int):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, chain_index])))
    layout = model.layout
    theta = _initial_point(model, rng, cfg)
    lp = log_posterior(model, theta)

    blocks = _blocks(layout)
    n_blocks = len(blocks)
    log_scales = np.full(n_blocks, math.log(cfg.initial_step))
    rm_iter = np.zeros(n_blocks, dtype=int)  # per-block adaptation clocks
    beta_idx = np.asarray(blocks[0])
    q = len(beta_idx)
    # Running moments of beta for the adapted full proposal covariance; the
    # coefficients are mutually correlated (intercept vs. slopes), so a
    # diagonal proposal mixes too slowly at the default chain lengths.
    # Accumulation starts at the midpoint of burn-in so the transit from the
    # (deliberately generic) initial point does not inflate the estimate.
    beta_mean = np.zeros(q)
    beta_m2 = np.zeros((q, q))
    beta_count = 0
    beta_chol = None
    moments_start = cfg.burnin // 4

    kept = np.empty((cfg.iterations - cfg.burnin, layout.dim))
    accept_post = np.zeros(n_blocks)
    trials_post = np.zeros(n_blocks)

    for it in range(cfg.iterations):
        adapting = it < cfg.burnin
        for b, idx in enumerate(blocks):
            repeats = cfg.beta_updates if b == 0 else 1
            for _ in range(repeats):
                scale = math.exp(log_scales[b])
                proposal = theta.copy()
                if b == 0:
                    if beta_count > cfg.adapt_start:
                        if beta_chol is None:
                            # switching from the identity-shaped proposal:
                            # restart the scale at the standard 2.38/sqrt(q)
                            # optimum and reset the adaptation clock so
                            # re-tuning is fast
                            log_scales[0] = math.log(2.38 / math.sqrt(q))
                            scale = math.exp(log_scales[0])
                            rm_iter[0] = 0
                        if adapting or beta_chol is None:
                            cov = beta_m2 / (beta_count - 1)
                            cov[np.diag_indices_from(cov)] += 1e-10
                            beta_chol = np.linalg.cholesky(cov)
                        step = beta_chol @ rng.normal(size=q)
                    else:
                        step = rng.normal(size=q)
                    proposal[beta_idx] = theta[beta_idx] + scale * step
                    target = cfg.target_accept_block
                else:
                    proposal[idx[0]] = theta[idx[0]] + scale * rng.normal()
                    target = cfg.target_accept_scalar
                lp_prop = log_posterior(model, proposal)
                accept = (lp_prop - lp > math.log(rng.random())
                          if math.isfinite(lp_prop) else False)
                if accept:
                    theta = proposal
                    lp = lp_prop
                if adapting:
                    rm_iter[b] += 1
                    gamma = 1.0 / rm_iter[b] ** 0.6
                    log_scales[b] += gamma * ((1.0 if accept else 0.0) - target)
                else:
                    accept_post[b] += 1.0 if accept else 0.0
                    trials_post[b] += 1.0
        if adapting:
            if it >= moments_start:
                # Welford update of the beta moments for the proposal
                # covariance.
                beta_count += 1
                d = theta[beta_idx] - beta_mean
                beta_mean += d / beta_count
                beta_m2 += np.outer(d, theta[beta_idx] - beta_mean)
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
