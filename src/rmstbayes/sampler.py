"""Adaptive random-walk Metropolis-within-blocks MCMC and chain diagnostics.

Each sweep updates, in order: the full coefficient vector beta (joint
Gaussian proposal with an adapted full covariance, target acceptance 0.234),
the shape parameter, the cluster effects and log phi (target 0.44 each).
A chain's state is theta, its log posterior, the per-row log-likelihood
terms at theta and, with cluster effects, the per-cluster log prior of the
effects at theta.  The cluster effects are conditionally independent given
beta, the shape and phi, so all M are proposed at once, each with its own
step scale, and each is accepted or rejected on its own cluster's
log-ratio: one likelihood pass, at the proposal, for all M effects, since
the current clusters' log-likelihoods are sums of the carried rows and
their priors are carried.  phi enters only the effects' prior, so its
update takes no likelihood pass.  Every step scale follows a Robbins-Monro
recursion during burn-in and is frozen afterwards, so the kept portion of
each chain is a fixed Markov kernel.  The targets, the initial step scale,
the number of beta proposals per sweep and the initial-point retries are
module constants; ``SamplerConfig`` holds only the chain count, lengths and
seed.

The chains run in lockstep: the state holds every chain, theta (chains,
dim), the rows (chains, n) and the effect priors (chains, M), and each step
evaluates all chains' proposals with one block call of ``log_posterior``,
``pointwise_log_likelihood`` or ``effect_log_prior``.  A sweep of all
chains thus costs _BETA_UPDATES + 2 likelihood passes (_BETA_UPDATES + 1
without a shape) and two ``effect_log_prior`` calls, whatever M and the
chain count are.  ``log_prior`` stays a per-chain call on Python floats,
handed the row sum of the chain's effect prior.  The beta, shape and phi
steps share one accept-and-move rule, ``adopt``.

Randomness comes from numpy's counter-based Philox generator with per-chain
substreams seeded by SeedSequence([seed, chain_index]).  Each chain draws
from its own stream in the order a lone chain would, and takes its own
Metropolis decisions on the same floating-point values, so its kept draws
do not depend on the chains beside it; runs are bit-for-bit reproducible
for a given (data, spec, config).
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


def _sample(model: Model, cfg: SamplerConfig) -> tuple:
    """All chains in lockstep: the kept draws (chains, kept, dim) on the
    sampling scale and the acceptance rates (chains, blocks)."""
    layout = model.layout
    rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence([cfg.seed, chain])))
            for chain in range(cfg.chains)]
    thetas, lp, rows = zip(*(_initial_point(model, rng) for rng in rngs))
    theta, lp, rows = np.array(thetas), list(lp), np.array(rows)

    # Adaptation state by theta coordinate: index 0 stands for the beta
    # block (1..q-1 go unused), index i >= q for shape, effect or phi i.
    # Every step records on every chain, so one clock per coordinate serves all.
    q = layout.q
    log_scales = np.full((cfg.chains, layout.dim), math.log(_INITIAL_STEP))
    rm_iter = np.zeros(layout.dim, dtype=int)  # per-coordinate adaptation clocks
    accept_post = np.zeros((cfg.chains, layout.dim))
    effects = layout.effect_indices

    if layout.phi_index is not None:
        # each chain's effect prior at theta: only the effect and phi steps move it
        effect_prior = effect_log_prior(model, theta)
        # cluster i of chain c is bin c * M + i of one bincount over all rows
        chain_cluster = (model.cluster + layout.n_clusters
                         * np.arange(cfg.chains)[:, None]).ravel()

    def cluster_log_likelihood(point_rows):
        """(chains, M): each cluster's log-likelihood, summed from its rows."""
        return np.bincount(chain_cluster, point_rows.ravel(),
                           minlength=cfg.chains * layout.n_clusters).reshape(cfg.chains, -1)

    def record(index, accepted, target):
        """Robbins-Monro step-scale update during burn-in, acceptance counts
        after it; ``index`` may be a slice, ``accepted`` has a chains axis."""
        if adapting:
            rm_iter[index] += 1
            gamma = 1.0 / rm_iter[index] ** 0.6
            log_scales[:, index] += gamma * (accepted - target)
        else:
            accept_post[:, index] += accepted

    def adopt(lp_prop, index, target, proposal, carried, carried_prop):
        """The Metropolis test of each chain's proposal, whose log posterior
        is in ``lp_prop``, against its current state, recorded on ``index``;
        a chain draws its uniform only for a finite proposal.  Each accepting
        chain takes its proposal's theta, lp and row of ``carried_prop`` into
        ``carried`` (the rows, or the effect prior)."""
        accepted = [math.isfinite(new) and new - old > math.log(rng.random())
                    for rng, old, new in zip(rngs, lp, lp_prop)]
        record(index, np.array(accepted, dtype=float), target)
        for c, accept in enumerate(accepted):
            if accept:
                theta[c] = proposal[c]
                lp[c] = lp_prop[c]
                carried[c] = carried_prop[c]

    def propose(index):
        """theta with coordinate ``index`` of every chain moved by a
        random-walk step."""
        proposal = theta.copy()
        for c, rng in enumerate(rngs):
            proposal[c, index] += math.exp(log_scales[c, index]) * rng.normal()
        return proposal

    # Running moments of beta for the adapted full proposal covariance; the
    # coefficients are mutually correlated (intercept vs. slopes), so a
    # diagonal proposal mixes too slowly at the default chain lengths.
    # Accumulation starts a quarter of the way into burn-in so the transit
    # from the (deliberately generic) initial point does not inflate the
    # estimate.
    beta_mean = np.zeros((cfg.chains, q))
    beta_m2 = np.zeros((cfg.chains, q, q))
    beta_count = 0
    beta_chol = None
    moments_start = cfg.burnin // 4
    diagonal = np.arange(q)

    kept = np.empty((cfg.chains, cfg.iterations - cfg.burnin, layout.dim))

    for it in range(cfg.iterations):
        adapting = it < cfg.burnin
        # the beta moments change only at the end of a sweep: factorise once
        if beta_count > _ADAPT_START:
            if beta_chol is None:
                # switching from the identity-shaped proposal: restart the
                # scale at the standard 2.38/sqrt(q) optimum and reset the
                # adaptation clock so re-tuning is fast
                log_scales[:, 0] = math.log(2.38 / math.sqrt(q))
                rm_iter[0] = 0
            if adapting or beta_chol is None:
                cov = beta_m2 / (beta_count - 1)
                cov[:, diagonal, diagonal] += 1e-10
                beta_chol = np.linalg.cholesky(cov)
        # the beta and shape steps leave the effect prior as it is
        sums = None if layout.phi_index is None else effect_prior.sum(axis=1).tolist()
        for _ in range(_BETA_UPDATES):
            proposal = theta.copy()
            for c, rng in enumerate(rngs):
                step = (rng.normal(size=q) if beta_chol is None
                        else beta_chol[c] @ rng.normal(size=q))
                proposal[c, :q] += math.exp(log_scales[c, 0]) * step
            lp_prop, rows_prop = log_posterior(model, proposal, sums)
            adopt(lp_prop.tolist(), 0, _TARGET_ACCEPT_BLOCK, proposal, rows, rows_prop)
        if layout.has_shape:
            proposal = propose(layout.shape_index)
            lp_prop, rows_prop = log_posterior(model, proposal, sums)
            adopt(lp_prop.tolist(), layout.shape_index, _TARGET_ACCEPT_SCALAR,
                  proposal, rows, rows_prop)
        if layout.phi_index is not None:
            # Given beta, the shape and phi the effects are conditionally
            # independent, so one proposal per cluster, each accepted on its
            # own log-ratio, is the kernel of M scalar Metropolis updates at
            # the cost of one likelihood pass.  A row's term depends on its
            # own cluster's effect alone, so the accepted clusters' rows
            # are the proposal's.
            proposal = theta.copy()
            proposal[:, effects] += (np.exp(log_scales[:, effects])
                                     * np.array([rng.normal(size=layout.n_clusters)
                                                 for rng in rngs]))
            rows_prop = pointwise_log_likelihood(model, proposal)
            prior_prop = effect_log_prior(model, proposal)
            log_ratio = ((cluster_log_likelihood(rows_prop) + prior_prop)
                         - (cluster_log_likelihood(rows) + effect_prior))
            uniforms = np.array([rng.random(layout.n_clusters) for rng in rngs])
            accepted = np.isfinite(log_ratio) & (log_ratio > np.log(uniforms))
            theta[:, effects] = np.where(accepted, proposal[:, effects], theta[:, effects])
            np.putmask(rows, accepted.take(model.cluster, axis=1), rows_prop)
            effect_prior = np.where(accepted, prior_prop, effect_prior)
            # each chain's own masked sum: a zero-filled sum over all
            # clusters would add in another order
            lp = [old + float(ratio[acc].sum())
                  for old, ratio, acc in zip(lp, log_ratio, accepted)]
            record(effects, accepted.astype(float), _TARGET_ACCEPT_SCALAR)
            # phi enters only the effects' prior: no likelihood pass.
            proposal = propose(layout.phi_index)
            prior_prop = effect_log_prior(model, proposal)
            lp_prop = [old + log_prior(model, new_theta, new_sum)
                       - log_prior(model, old_theta, old_sum)
                       for old, new_theta, new_sum, old_theta, old_sum
                       in zip(lp, proposal, prior_prop.sum(axis=1).tolist(),
                              theta, effect_prior.sum(axis=1).tolist())]
            adopt(lp_prop, layout.phi_index, _TARGET_ACCEPT_SCALAR,
                  proposal, effect_prior, prior_prop)
        if adapting:
            if it >= moments_start:
                # Welford update of each chain's beta moments for its
                # proposal covariance.
                beta_count += 1
                d = theta[:, :q] - beta_mean
                beta_mean += d / beta_count
                beta_m2 += d[:, :, None] * (theta[:, :q] - beta_mean)[:, None, :]
        else:
            kept[:, it - cfg.burnin] = theta

    # each block is tried once per kept sweep, the beta block _BETA_UPDATES times
    accept_post[:, 0] /= _BETA_UPDATES
    return kept, accept_post[:, [0, *range(q, layout.dim)]] / kept.shape[1]


def run_chains(data: SurvivalDataset, spec: ModelSpec, cfg: SamplerConfig) -> PosteriorDraws:
    """Run all chains and return natural-scale kept draws."""
    model = Model(data, spec)
    layout = model.layout
    kept, rates = _sample(model, cfg)
    return PosteriorDraws(
        values=layout.to_natural(kept),
        columns=layout.column_names(tuple(data.column_names)),
        layout=layout,
        spec=spec,
        acceptance={name: rates[:, j].tolist() for j, name in enumerate(_block_names(layout))},
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
