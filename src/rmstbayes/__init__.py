"""Bayesian restricted mean survival time (RMST) for parametric survival
models — exponential, Weibull, log-logistic, and log-normal — with optional
cluster random effects or gamma frailty, closed-form RMST evaluation over
MCMC posterior draws, WAIC model comparison, and a CSV-driven CLI."""

from .dataio import DataError, ingest_csv, write_csv
from .families import (EffectKind, EffectValue, Family, FamilyParams,
                       NO_EFFECT, frailty, random_offset)
from .inference import ModelSpec, SurvivalDataset
from .model_selection import WaicResult, waic
from .rmst import (RmstSampleVector, rmst_difference, rmst_distribution,
                   rmst_numeric, rmst_value)
from .sampler import (PosteriorDraws, SamplerConfig, effective_sample_size,
                      run_chains, split_rhat)
from .simulation import (ScenarioConfig, SimMetrics, evaluate_replications,
                         generate_scenario, scenario_truth)
from .summaries import RmstSummary, forest_rows, histogram_bins, summarize

__version__ = "0.1.0"
