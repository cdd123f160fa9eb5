#!/usr/bin/env python3
"""Replication study: fit each scenario repeatedly and report recovery metrics.

For every requested scenario this generates seeded synthetic datasets, fits
the correctly-specified fixed-effects model, and prints the closed-form truth
next to bias / MSE / mode- and median-based recovery of the RMST difference.

Example:
    python3 scripts/run_simulation_study.py --scenarios B C --n 256 --reps 10
"""

import argparse
import json
import sys

from rmstbayes.inference import ModelSpec
from rmstbayes.sampler import SamplerConfig
from rmstbayes.simulation import ScenarioConfig, evaluate_replications, scenario_truth


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenarios", nargs="+", default=["A", "B", "C"],
                        choices=["A", "B", "C"])
    parser.add_argument("--n", type=int, default=256, help="observations per dataset")
    parser.add_argument("--reps", type=int, default=10, help="replications per scenario")
    parser.add_argument("--chains", type=int, default=2)
    parser.add_argument("--iter", dest="iterations", type=int, default=2000)
    parser.add_argument("--burnin", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    args = parser.parse_args(argv)

    sampler_cfg = SamplerConfig(chains=args.chains, iterations=args.iterations,
                                burnin=args.burnin, seed=args.seed)
    results = {}
    for sc in args.scenarios:
        cfg = ScenarioConfig(sc, n=args.n, replications=args.reps, seed=args.seed)
        truth = scenario_truth(cfg)
        metrics = evaluate_replications(cfg, ModelSpec(cfg.family), sampler_cfg)
        results[sc] = {
            "truth_group0": truth[0], "truth_group1": truth[1],
            "truth_difference": truth[2],
            "bias": metrics.bias, "mse": metrics.mse,
            "mode_diff": metrics.mode_diff, "median_diff": metrics.median_diff,
            "replications": metrics.replications, "failures": metrics.failures,
        }

    if args.json:
        json.dump(results, sys.stdout, indent=2)
        print()
        return 0

    header = (f"{'scenario':>8} {'truth diff':>11} {'bias':>8} {'mse':>9} "
              f"{'mode diff':>10} {'median diff':>12} {'reps':>5} {'fail':>5}")
    print(header)
    print("-" * len(header))
    for sc, r in results.items():
        print(f"{sc:>8} {r['truth_difference']:>11.3f} {r['bias']:>8.3f} "
              f"{r['mse']:>9.3f} {r['mode_diff']:>10.3f} {r['median_diff']:>12.3f} "
              f"{r['replications']:>5d} {r['failures']:>5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
