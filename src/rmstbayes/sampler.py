"""Adaptive random-walk Metropolis-within-blocks MCMC and chain diagnostics.

Each sweep updates, in order: the full coefficient vector beta (joint
Gaussian proposal with an adapted full covariance, target acceptance 0.234),
the shape parameter, the cluster effects and log phi (target 0.44 each).
The chain's state is theta, its log posterior and the per-row
log-likelihood terms at theta.  The cluster effects are conditionally
independent given beta, the shape and phi, so all M are proposed at once,
each with its own step scale, and each is accepted or rejected on its own
cluster's log-ratio: one likelihood pass, at the proposal, for all M
effects, since the current clusters' log-likelihoods are sums of the
carried rows.  phi enters only the effects' prior, so its update takes no
likelihood pass.  A sweep thus costs _BETA_UPDATES + 2 likelihood passes
(_BETA_UPDATES + 1 without a shape) whatever M is.  Every step scale
follows a Robbins-Monro recursion during burn-in and is frozen afterwards,
so the kept portion of each chain is a fixed Markov kernel.  The targets,
the initial step scale, the number of beta proposals per sweep and the
initial-point retries are module constants; ``SamplerConfig`` holds only
the chain count, lengths and seed.

Randomness comes from numpy's counter-based Philox generator with per-chain
substreams seeded by SeedSequence([seed, chain_index]); runs are bit-for-bit
reproducible for a given (data, spec, config).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .families import _is_index
from .inference import (_PHI_UPPER, Model, ModelSpec, ParamLayout, SurvivalDataset,
                        effect_log_prior, log_posterior, log_prior,
                        pointwise_log_likelihood)

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
        """Index of a column given by name or by a (non-bool) integer."""
        if isinstance(column, str):
            try:
                return self.columns.index(column)
            except ValueError:
                raise KeyError(f"unknown column {column!r}; have {self.columns}") from None
        if not _is_index(column):
            raise KeyError(f"a column is a name or an integer index, got {column!r}")
        if not 0 <= column < len(self.columns):
            raise KeyError(f"column index {column} outside 0..{len(self.columns) - 1}")
        return int(column)

    def column(self, column) -> np.ndarray:
        """(chains, kept) natural-scale values of one parameter."""
        return self.values[:, :, self.column_index(column)]


def _initial_point(model: Model, rng: np.random.Generator) -> tuple:
    """The chain's starting state: theta, its log posterior and its rows."""
    layout = model.layout
    center = np.zeros(layout.dim)
    # beta = 0, log k = 0 (k=1), log sigma^2 = 0, effects at identity
    # (u=0 / log v=0), phi at half its prior's upper bound.
    if layout.phi_index is not None:
        center[layout.phi_index] = math.log(_PHI_UPPER / 2.0)
    for attempt in range(_MAX_INIT_RETRIES):
        theta = center + rng.normal(0.0, _INIT_JITTER_SD, size=layout.dim)
        lp, rows = log_posterior(model, theta)
        if math.isfinite(lp):
            return theta, lp, rows
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
    theta, lp, rows = _initial_point(model, rng)

    # Adaptation state by theta coordinate: index 0 stands for the beta
    # block (1..q-1 go unused), index i >= q for shape, effect or phi i.
    q = layout.q
    log_scales = np.full(layout.dim, math.log(_INITIAL_STEP))
    rm_iter = np.zeros(layout.dim, dtype=int)  # per-coordinate adaptation clocks
    accept_post = np.zeros(layout.dim)
    effects = layout.effect_indices

    def cluster_log_density(point, point_rows):
        """Entry i: cluster i's log-likelihood at ``point``, summed from its
        rows, plus the log prior of effect i."""
        return (np.bincount(model.cluster, point_rows, minlength=layout.n_clusters)
                + effect_log_prior(model, point))

    def record(index, accepted, target):
        """Robbins-Monro step-scale update during burn-in, acceptance counts
        after it; ``index`` and ``accepted`` may be a slice and a vector."""
        if adapting:
            rm_iter[index] += 1
            gamma = 1.0 / rm_iter[index] ** 0.6
            log_scales[index] += gamma * (accepted - target)
        else:
            accept_post[index] += accepted

    def accepts(lp_prop, index, target) -> bool:
        """The Metropolis test of a proposal whose log posterior is
        ``lp_prop`` against the current state's, recorded on ``index``."""
        accept = lp_prop - lp > math.log(rng.random()) if math.isfinite(lp_prop) else False
        record(index, 1.0 if accept else 0.0, target)
        return accept

    def propose(index):
        """theta with coordinate ``index`` moved by a random-walk step."""
        proposal = theta.copy()
        proposal[index] += math.exp(log_scales[index]) * rng.normal()
        return proposal

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
        # the beta moments change only at the end of a sweep: factorise once
        if beta_count > _ADAPT_START:
            if beta_chol is None:
                # switching from the identity-shaped proposal: restart the
                # scale at the standard 2.38/sqrt(q) optimum and reset the
                # adaptation clock so re-tuning is fast
                log_scales[0] = math.log(2.38 / math.sqrt(q))
                rm_iter[0] = 0
            if adapting or beta_chol is None:
                cov = beta_m2 / (beta_count - 1)
                cov[np.diag_indices_from(cov)] += 1e-10
                beta_chol = np.linalg.cholesky(cov)
        for _ in range(_BETA_UPDATES):
            step = rng.normal(size=q) if beta_chol is None else beta_chol @ rng.normal(size=q)
            proposal = theta.copy()
            proposal[:q] += math.exp(log_scales[0]) * step
            lp_prop, rows_prop = log_posterior(model, proposal)
            if accepts(lp_prop, 0, _TARGET_ACCEPT_BLOCK):
                theta, lp, rows = proposal, lp_prop, rows_prop
        if layout.has_shape:
            proposal = propose(layout.shape_index)
            lp_prop, rows_prop = log_posterior(model, proposal)
            if accepts(lp_prop, layout.shape_index, _TARGET_ACCEPT_SCALAR):
                theta, lp, rows = proposal, lp_prop, rows_prop
        if layout.phi_index is not None:
            # Given beta, the shape and phi the effects are conditionally
            # independent, so one proposal per cluster, each accepted on its
            # own log-ratio, is the kernel of M scalar Metropolis updates at
            # the cost of one likelihood pass.  A row's term depends on its
            # own cluster's effect alone, so the accepted clusters' rows
            # are the proposal's.
            proposal = theta.copy()
            proposal[effects] += (np.exp(log_scales[effects])
                                  * rng.normal(size=layout.n_clusters))
            rows_prop = pointwise_log_likelihood(model, proposal)
            log_ratio = (cluster_log_density(proposal, rows_prop)
                         - cluster_log_density(theta, rows))
            accepted = np.isfinite(log_ratio) & (log_ratio > np.log(rng.random(layout.n_clusters)))
            theta[effects] = np.where(accepted, proposal[effects], theta[effects])
            rows = np.where(accepted[model.cluster], rows_prop, rows)
            lp += float(log_ratio[accepted].sum())
            record(effects, accepted.astype(float), _TARGET_ACCEPT_SCALAR)
            # phi enters only the effects' prior: no likelihood pass.
            proposal = propose(layout.phi_index)
            lp_prop = lp + log_prior(model, proposal) - log_prior(model, theta)
            if accepts(lp_prop, layout.phi_index, _TARGET_ACCEPT_SCALAR):
                theta, lp = proposal, lp_prop
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

    # each block is tried once per kept sweep, the beta block _BETA_UPDATES times
    accept_post[0] /= _BETA_UPDATES
    return kept, accept_post[[0, *range(q, layout.dim)]] / len(kept)


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


def _split_chains(draws: PosteriorDraws, column) -> tuple:
    """The (2 * chains, N/2) half-chains of one column, their mean
    within-chain variance W and the variance of their means, B/N."""
    series = draws.column(column)
    n = series.shape[1]
    if draws.n_chains < 2 and n < 100:
        raise ValueError("need >= 2 chains or >= 100 kept draws")
    half = n // 2
    if half < 2:
        raise ValueError("too few kept draws to split")
    chains = np.concatenate([series[:, :half], series[:, half: 2 * half]], axis=0)
    return chains, chains.var(axis=1, ddof=1).mean(), chains.mean(axis=1).var(ddof=1)


def split_rhat(draws: PosteriorDraws, column) -> float:
    """Classic split-Rhat: chains halved, between/within variance ratio."""
    chains, w, b_over_n = _split_chains(draws, column)
    if w == 0.0:
        return 1.0  # constant chains: degenerate by convention
    n = chains.shape[1]
    var_hat = (n - 1) / n * w + n * b_over_n / n  # B / n, rounded as B = n * b_over_n is
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
    chains, w, b_over_n = _split_chains(draws, column)
    m, n = chains.shape
    if m * n < 100:
        raise ValueError("need >= 100 kept draws for ESS")
    if w == 0.0:
        warnings.warn("constant chain: ESS defined as 0", RuntimeWarning, stacklevel=2)
        return 0.0
    var_hat = (n - 1) / n * w + b_over_n
    acov = np.mean([_autocovariance(chains[j]) for j in range(m)], axis=0)
    rho = 1.0 - (w - acov) / var_hat
    # Lag pairs (1, 2), (3, 4), ... up to the first negative one, made
    # monotone decreasing and summed in order.
    pairs = rho[1:n - 1:2] + rho[2:n:2]
    negative = pairs < 0.0
    if negative.any():
        pairs = pairs[:negative.argmax()]
    pairs = np.minimum.accumulate(pairs)
    # tau is the integrated autocorrelation time; rho[0] = 1 gives the leading 1
    tau = 1.0 + 2.0 * np.cumsum([0.0, *pairs])[-1]
    ess = m * n / tau
    return float(min(ess, m * n))
