"""Workload definitions and seeded input generation.

Pure numpy: the benchmark process uses these arrays both to feed the program
and as the ground truth of its checks, so nothing here imports ``rmstbayes``.
"""

from __future__ import annotations

import math

import numpy as np

TAU = 100.0

# fit-weibull-re: one `rmstbayes fit --family weibull --effect random` at the
# default 2 x 2000/1000 chains on thousands of rows in tens of clusters.
FIT_ROWS = 2048
FIT_CLUSTERS = 16
# Weibull S = exp(-lam t^k), log lam = B0 + B1 * group + u, u ~ N(0, PHI^2).
WEIBULL_B0, WEIBULL_B1, WEIBULL_K, WEIBULL_PHI = -7.0, 0.5, 1.5, 0.3
CENSOR_MAX = 150.0   # censoring times ~ U(0, CENSOR_MAX)

# simulate-lognormal-re: scenario B (log-normal, 4 clusters, n = 512) with
# short chains, fitted with random effects.
SIM_ARGS = ["--scenario", "B", "--effect", "random", "--n", "512", "--reps", "2",
            "--iter", "300", "--burnin", "150", "--tau", "100"]
SIM_REPS = 2
# Scenario B's generating model: log T ~ N(3.0 - 0.5 * group + x2 + u, 1).
SIM_B0, SIM_B1, SIM_SIGMA2 = 3.0, -0.5, 1.0
# Bound on |bias| of the posterior-mean RMST difference (truth -10.37).  Over
# 22 operations the bias had mean 1.3 and SD 1.9 (range -2.2 to 4.0), so the
# bound sits 4.5 SD above the mean; it still catches a wrong sign or a lost
# group effect.
SIM_BIAS_TOL = 10.0

# rmst-posterior: synthetic posteriors, no sampling.
POST_ROWS = 512
POST_CLUSTERS = 8
POST_CHAINS, POST_KEPT = 2, 6000          # Weibull posterior: 12000 draws
LL_CHAINS, LL_KEPT = 2, 1000              # log-logistic posterior: 2000 draws
LL_SLOW_SHARE = 0.05                      # shape draws in (0.65, 0.95)
CHECKED_DRAWS = 16                        # per-draw RMSTs checked by quadrature

WORKLOADS = ("fit-weibull-re", "simulate-lognormal-re", "rmst-posterior")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def weibull_data(seed: int, rows: int, clusters: int) -> dict:
    """Clustered, right-censored Weibull data; clusters balanced by group."""
    rng = _rng(seed, 1)
    per_cluster = rows // clusters
    cluster = np.repeat(np.arange(1, clusters + 1), per_cluster)
    group = np.tile(np.repeat([0, 1], per_cluster // 2), clusters)
    u = rng.normal(0.0, WEIBULL_PHI, clusters)
    lam = np.exp(WEIBULL_B0 + WEIBULL_B1 * group + u[cluster - 1])
    t = (rng.exponential(1.0, rows) / lam) ** (1.0 / WEIBULL_K)
    c = rng.uniform(0.0, CENSOR_MAX, rows)
    return {"time": np.minimum(t, c), "event": (t <= c).astype(int),
            "cluster": cluster, "group": group, "u": u}


def write_csv(data: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,event,cluster,group\n")
        for t, e, c, g in zip(data["time"], data["event"], data["cluster"], data["group"]):
            fh.write(f"{float(t)!r},{e},{c},{g}\n")


def checked_draws(seed: int, total: int, must: np.ndarray = np.empty(0, int)) -> np.ndarray:
    """Fixed subset of draw indices whose RMSTs are checked by quadrature."""
    rng = _rng(seed, 9)
    picked = rng.choice(total, CHECKED_DRAWS - len(must), replace=False)
    return np.sort(np.concatenate([must, picked])).astype(int)


def posterior_inputs(seed: int) -> dict:
    """A Weibull random-effects posterior with its dataset, and a log-logistic
    posterior, both drawn synthetically around known parameters."""
    data = weibull_data(seed, POST_ROWS, POST_CLUSTERS)
    rng = _rng(seed, 2)
    s = POST_CHAINS * POST_KEPT
    # columns: intercept, group, k, u[1..M], phi
    weibull = np.column_stack([
        rng.normal(WEIBULL_B0, 0.2, s),
        rng.normal(WEIBULL_B1, 0.1, s),
        WEIBULL_K * np.exp(rng.normal(0.0, 0.04, s)),
        data["u"][None, :] + rng.normal(0.0, 0.1, (s, POST_CLUSTERS)),
        WEIBULL_PHI * np.exp(rng.normal(0.0, 0.2, s)),
    ])
    # Log-logistic S = 1/(1 + e^mu t^k), mu = -k log(scale) + b1 * group.
    # A fixed share of the shape draws lies in (0.65, 0.95), where the program
    # integrates numerically; the rest lie above 1.
    s_ll = LL_CHAINS * LL_KEPT
    slow = rng.choice(s_ll, int(round(LL_SLOW_SHARE * s_ll)), replace=False)
    k = np.clip(1.6 * np.exp(rng.normal(0.0, 0.1, s_ll)), 1.05, None)
    k[slow] = rng.uniform(0.65, 0.95, len(slow))
    log_scale = rng.normal(math.log(50.0), 0.15, s_ll)
    loglogistic = np.column_stack([-k * log_scale, rng.normal(0.3, 0.1, s_ll), k])
    return {
        "time": data["time"], "event": data["event"], "cluster": data["cluster"],
        "group": data["group"],
        "weibull": weibull.reshape(POST_CHAINS, POST_KEPT, -1),
        "loglogistic": loglogistic.reshape(LL_CHAINS, LL_KEPT, -1),
        "weibull_checked": checked_draws(seed, s),
        "loglogistic_checked": checked_draws(seed, s_ll, np.sort(slow)[:4]),
    }
