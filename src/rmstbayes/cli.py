"""Command-line front end: fit / simulate / rmst / waic.

Every subcommand is deterministic given --seed, prints a human-readable
table to stdout, and (with --output) writes a single JSON document that
carries the fully resolved configuration alongside the results.  Output
files are written to a temporary file and renamed into place so a failed
run never leaves a partial document; a non-finite value, which JSON cannot
hold, fails the run instead of being written.  Exit status: 0 on success,
1 on runtime failure, 2 on usage errors, invalid parameter values included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .dataio import DataError, ingest_csv
from .families import (EffectKind, Family, FamilyParams, NO_EFFECT, frailty,
                       random_offset)
from .inference import ModelSpec
from .model_selection import _MIN_DRAWS as _WAIC_MIN_DRAWS, waic as compute_waic
from .rmst import rmst_difference, rmst_value
from .sampler import SamplerConfig, effective_sample_size, run_chains, split_rhat
from .simulation import ScenarioConfig, evaluate_replications, scenario_truth
from .summaries import RmstSummary, histogram_bins, summarize


def _write_output(doc: dict, path: str | None) -> None:
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config(args) -> dict:
    """A document's ``config``: every parsed argument but ``--output``, in
    parser order, each under its argparse destination."""
    return {key: value for key, value in vars(args).items() if key not in ("output", "run")}


def _summary_dict(s: RmstSummary) -> dict:
    return {
        "mean": s.mean, "median": s.median, "mode": s.mode, "sd": s.sd,
        "ci_level": s.ci_level, "ci_low": s.ci_low, "ci_high": s.ci_high,
        "exceedance": [{"threshold": t, "probability": p} for t, p in s.exceedance],
    }


def _table(headers, rows) -> str:
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.4f}" if isinstance(v, float) else "n/a" if v is None else str(v)
                      for v in row])
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _open_interval(lo: float, hi: float):
    """An argparse type: a number strictly between lo and hi."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must lie strictly between {lo:g} and {hi:g}, "
                                             f"got {text!r}")
        return value
    return parse


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chains", type=int, default=2)
    p.add_argument("--iter", dest="iterations", type=int, default=2000)
    p.add_argument("--burnin", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family])
    p.add_argument("--effect", default="none",
                   choices=[e.value for e in EffectKind])


def _add_column_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-col", default="time")
    p.add_argument("--event-col", default="event")
    p.add_argument("--cluster-col", default="cluster")
    p.add_argument("--group-col", default="group")
    p.add_argument("--covariate", action="append", default=None, metavar="COLUMN",
                   help="design covariate column (repeatable; default: all extra columns)")


def _fit(args, cfg: SamplerConfig):
    data = ingest_csv(args.input, time_col=args.time_col, event_col=args.event_col,
                      cluster_col=args.cluster_col, group_col=args.group_col,
                      covariate_cols=args.covariate)
    spec = ModelSpec(family=Family(args.family), effect=EffectKind(args.effect))
    return data, spec, run_chains(data, spec, cfg)


def _diagnostic(fn, draws, column):
    """``fn(draws, column)``, or None where too few draws are kept for it."""
    try:
        return fn(draws, column)
    except ValueError:
        return None


def _sampler_config(args, parser, min_kept: int = 10) -> SamplerConfig:
    """The sampler flags as a config, refused before any sampling when they
    are invalid or keep fewer than ``min_kept`` draws (summaries need 10)."""
    try:
        cfg = SamplerConfig(chains=args.chains, iterations=args.iterations,
                            burnin=args.burnin, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if cfg.chains * (cfg.iterations - cfg.burnin) < min_kept:
        parser.error(f"{args.subcommand} needs chains x (iter - burnin) >= {min_kept} kept "
                     f"draws; got {cfg.chains} x ({cfg.iterations} - {cfg.burnin})")
    return cfg


def cmd_fit(args, parser) -> int:
    data, spec, draws = _fit(args, _sampler_config(args, parser))
    flat = draws.flat()
    param_rows = []
    for j, name in enumerate(draws.columns):
        s = summarize(flat[:, j], level=args.ci_level)
        param_rows.append({
            "name": name, "mode": s.mode, "median": s.median, "mean": s.mean,
            "sd": s.sd, "ci_low": s.ci_low, "ci_high": s.ci_high,
            "rhat": _diagnostic(split_rhat, draws, j),
            "ess": _diagnostic(effective_sample_size, draws, j),
        })

    g0, g1, diff = rmst_difference(draws, args.tau)
    diff_summary = summarize(diff.values, args.ci_level, args.thresholds)
    rmst_doc = {
        "group0": _summary_dict(summarize(g0.values, args.ci_level)),
        "group1": _summary_dict(summarize(g1.values, args.ci_level)),
        "difference": _summary_dict(diff_summary),
    }
    edges, counts = histogram_bins(diff.values)
    forest = None
    if spec.effect is not EffectKind.NONE:
        # forest-plot rows (label, mean, ci_low, ci_high), the marginal last
        forest = []
        for i in range(1, data.n_clusters + 1):
            _, _, cdiff = rmst_difference(draws, args.tau, cluster=i)
            s = summarize(cdiff.values, args.ci_level)
            forest.append([f"cluster-{i}", s.mean, s.ci_low, s.ci_high])
        forest.append(["marginal", diff_summary.mean, diff_summary.ci_low, diff_summary.ci_high])

    doc = {
        "config": _config(args),
        "parameters": param_rows,
        "rmst": rmst_doc,
        "histogram": {"edges": list(edges), "counts": [int(c) for c in counts]},
        "forest": forest,
        "acceptance": draws.acceptance,
    }
    _write_output(doc, args.output)

    headers = ["parameter", "Mode", "Median", "Mean", "SE",
               f"{args.ci_level:.0%}CI lo", "hi", "Rhat", "ESS"]
    rows = [(r["name"], r["mode"], r["median"], r["mean"], r["sd"],
             r["ci_low"], r["ci_high"], r["rhat"], r["ess"]) for r in param_rows]
    for label in ("group0", "group1", "difference"):
        s = rmst_doc[label]
        rows.append((f"RMST {label}", s["mode"], s["median"], s["mean"], s["sd"],
                     s["ci_low"], s["ci_high"], "", ""))
    print(_table(headers, rows))
    for item in rmst_doc["difference"]["exceedance"]:
        print(f"P(RMST difference < {item['threshold']:g}) = {item['probability']:.4f}")
    return 0


def cmd_waic(args, parser) -> int:
    data, spec, draws = _fit(args, _sampler_config(args, parser, _WAIC_MIN_DRAWS))
    result = compute_waic(data, spec, draws)
    doc = {
        "config": _config(args),
        "waic": result.waic, "lppd": result.lppd, "p_waic": result.p_waic,
    }
    _write_output(doc, args.output)
    print(_table(["WAIC", "lppd", "p_waic"], [(result.waic, result.lppd, result.p_waic)]))
    return 0


def cmd_rmst(args, parser) -> int:
    family = Family(args.family)
    try:
        if args.scale is not None:
            if family not in (Family.WEIBULL, Family.LOG_LOGISTIC) or args.k is None:
                parser.error("--scale requires --k and family weibull or loglogistic")
            if any(v is not None for v in (getattr(args, "lambda"), args.mu, args.sigma2)):
                parser.error("--scale replaces --lambda, --mu and --sigma2: give it with --k alone")
            scale, k = args.scale, args.k
            # A negative scale ** -k would be complex, and log(scale) undefined.
            if not scale > 0:
                parser.error("--scale must be positive")
            try:
                # S(t) = exp{-(t/scale)^k} or 1/(1 + (t/scale)^k)
                params = (FamilyParams.weibull(scale ** -k, k) if family is Family.WEIBULL
                          else FamilyParams.loglogistic(-k * math.log(scale), k))
            except OverflowError:
                parser.error(f"--scale {scale:g} with --k {k:g}: scale ** -k overflows")
        else:
            params = FamilyParams(family, lam=getattr(args, "lambda"), k=args.k, mu=args.mu,
                                  sigma2=args.sigma2)
        effect = NO_EFFECT
        if args.u is not None:
            effect = random_offset(args.u)
        elif args.v is not None:
            effect = frailty(args.v)
        value = rmst_value(params, effect, args.tau)
    except ValueError as exc:
        parser.error(str(exc))
    doc = {"config": _config(args), "rmst": value}
    _write_output(doc, args.output)
    print(f"RMST(tau={args.tau:g}) = {value:.6f}")
    return 0


def cmd_simulate(args, parser) -> int:
    sampler_cfg = _sampler_config(args, parser)
    cfg = ScenarioConfig(scenario=args.scenario, n=args.n,
                         replications=args.replications, seed=args.seed, tau=args.tau)
    family = Family(args.family) if args.family else cfg.family
    args.family = family.value  # the config records the family fitted
    spec = ModelSpec(family=family, effect=EffectKind(args.effect))
    metrics = evaluate_replications(cfg, spec, sampler_cfg)
    truth = scenario_truth(cfg)
    doc = {
        "config": _config(args),
        "truth": {"group0": truth[0], "group1": truth[1], "difference": truth[2]},
        "metrics": {"bias": metrics.bias, "mse": metrics.mse,
                    "mode": metrics.mode_diff, "median": metrics.median_diff,
                    "replications": metrics.replications, "failures": metrics.failures},
    }
    _write_output(doc, args.output)
    print(_table(["Bias", "MSE", "Mode", "Median", "reps", "failed"],
                 [(metrics.bias, metrics.mse, metrics.mode_diff,
                   metrics.median_diff, metrics.replications, metrics.failures)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmstbayes",
        description="Bayesian restricted mean survival time for parametric "
                    "survival models with cluster effects.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset by MCMC")
    p_fit.add_argument("--input", required=True)
    _add_model_flags(p_fit)
    p_fit.add_argument("--tau", type=_open_interval(0.0, math.inf), default=100.0)
    _add_sampler_flags(p_fit)
    p_fit.add_argument("--ci-level", type=_open_interval(0.0, 1.0), default=0.95)
    p_fit.add_argument("--threshold", dest="thresholds", action="append", default=[],
                       type=_open_interval(-math.inf, math.inf))
    p_fit.add_argument("--output")
    _add_column_flags(p_fit)
    p_fit.set_defaults(run=functools.partial(cmd_fit, parser=p_fit))

    p_waic = sub.add_parser("waic", help="fit a model and report WAIC")
    p_waic.add_argument("--input", required=True)
    _add_model_flags(p_waic)
    _add_sampler_flags(p_waic)
    p_waic.add_argument("--output")
    _add_column_flags(p_waic)
    p_waic.set_defaults(run=functools.partial(cmd_waic, parser=p_waic))

    p_rmst = sub.add_parser("rmst", help="closed-form RMST for given parameters")
    p_rmst.add_argument("--family", required=True, choices=[f.value for f in Family])
    p_rmst.add_argument("--tau", type=_open_interval(0.0, math.inf), required=True)
    p_rmst.add_argument("--lambda", dest="lambda", type=float)
    p_rmst.add_argument("--k", type=float)
    p_rmst.add_argument("--mu", type=float)
    p_rmst.add_argument("--sigma2", type=float)
    p_rmst.add_argument("--scale", type=float,
                        help="time-scale parameterization (with --k)")
    effect = p_rmst.add_mutually_exclusive_group()
    effect.add_argument("--u", type=float, help="random-effect offset")
    effect.add_argument("--v", type=float, help="frailty multiplier")
    p_rmst.add_argument("--output")
    # its usage errors name "rmstbayes rmst", as argparse's own do
    p_rmst.set_defaults(run=functools.partial(cmd_rmst, parser=p_rmst))

    p_sim = sub.add_parser("simulate", help="run the replication harness")
    p_sim.add_argument("--scenario", required=True, choices=["A", "B", "C"])
    p_sim.add_argument("--n", type=int, default=512)
    p_sim.add_argument("--reps", dest="replications", type=int, default=10)
    p_sim.add_argument("--family", choices=[f.value for f in Family],
                       help="model family to fit (default: the generating family)")
    p_sim.add_argument("--effect", default="none",
                       choices=[e.value for e in EffectKind])
    p_sim.add_argument("--tau", type=_open_interval(0.0, math.inf), default=100.0)
    _add_sampler_flags(p_sim)
    p_sim.add_argument("--output")
    p_sim.set_defaults(run=functools.partial(cmd_simulate, parser=p_sim))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (DataError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
