#!/usr/bin/env python3
"""End-to-end demo: generate clustered survival data, fit three model
variants (fixed, random cluster effects, gamma frailty), and compare the
resulting RMST-difference posteriors and WAIC scores.

Example:
    python3 scripts/run_cluster_fit_demo.py --n 256 --family exponential
"""

import argparse
import sys

import numpy as np

from rmstbayes.families import EffectKind, Family
from rmstbayes.inference import ModelSpec
from rmstbayes.model_selection import waic
from rmstbayes.rmst import rmst_difference
from rmstbayes.sampler import SamplerConfig, run_chains, split_rhat, effective_sample_size
from rmstbayes.simulation import ScenarioConfig, generate_scenario, scenario_truth
from rmstbayes.summaries import summarize

FAMILIES = {f.value: f for f in Family}
EFFECTS = {"fixed": EffectKind.NONE, "random": EffectKind.RANDOM,
           "frailty": EffectKind.FRAILTY}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", default="C", choices=["A", "B", "C"])
    parser.add_argument("--family", default="exponential", choices=sorted(FAMILIES))
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--tau", type=float, default=100.0)
    parser.add_argument("--chains", type=int, default=2)
    parser.add_argument("--iter", dest="iterations", type=int, default=2000)
    parser.add_argument("--burnin", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    scen_cfg = ScenarioConfig(args.scenario, n=args.n, seed=args.seed)
    data = generate_scenario(scen_cfg, 0)
    truth = scenario_truth(scen_cfg)
    print(f"scenario {args.scenario}: n={data.n}, clusters={data.n_clusters}, "
          f"events={int(data.event.sum())}")
    print(f"closed-form truth at tau={scen_cfg.tau}: group0={truth[0]:.2f}, "
          f"group1={truth[1]:.2f}, difference={truth[2]:.2f}\n")

    family = FAMILIES[args.family]
    sampler_cfg = SamplerConfig(chains=args.chains, iterations=args.iterations,
                                burnin=args.burnin, seed=args.seed)
    for label, effect in EFFECTS.items():
        spec = ModelSpec(family, effect)
        draws = run_chains(data, spec, sampler_cfg)
        _, _, diff = rmst_difference(draws, args.tau)
        s = summarize(diff.values, level=0.95, thresholds=[0.0])
        w = waic(data, spec, draws)
        worst_rhat = max(split_rhat(draws, j) for j in range(data.q))
        worst_ess = min(effective_sample_size(draws, j) for j in range(data.q))
        print(f"[{label}] RMST difference: mean {s.mean:+.2f}  "
              f"95% CI [{s.ci_low:+.2f}, {s.ci_high:+.2f}]  "
              f"P(diff < 0) {s.exceedance[0][1]:.3f}")
        print(f"         WAIC {w.waic:.1f} (p_waic {w.p_waic:.1f})  "
              f"max Rhat {worst_rhat:.3f}  min ESS {worst_ess:.0f}")
        if effect is EffectKind.RANDOM:
            per_cluster = []
            for i in range(1, data.n_clusters + 1):
                _, _, d_i = rmst_difference(draws, args.tau, cluster=i)
                per_cluster.append(float(np.mean(d_i.values)))
            pretty = ", ".join(f"{v:+.2f}" for v in per_cluster)
            print(f"         per-cluster posterior-mean differences: {pretty}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
