"""Benchmark of rmstbayes: `fit`, `simulate` and posterior RMST, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program's work runs in a child process
(worker.py) with one BLAS thread; this process makes the inputs from --seed,
checks every output against the oracles in oracles.py and prints one JSON
line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Every end-to-end time is scaled to a fixed host speed by the
reference loop in reference.py, timed in the same run.  A run whose checks
fail prints its operation counts and the failed checks, and exits 1 without
a result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import reference
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 15
RUN_LIMIT_S = 175.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dataio.ingest_s": "s",
    "inference.log_posterior_calls": "count",
    "inference.log_posterior_us": "us",
    "inference.ns_per_row": "ns",
    "sampler.run_chains_s": "s",
    "sampler.sweep_ms": "ms",
    "sampler.self_s": "s",
    "sampler.accept_beta": "ratio",
    "sampler.accept_shape": "ratio",
    "sampler.accept_effect": "ratio",
    "sampler.ess_group": "draws",
    "sampler.ess_effect": "draws",
    "sampler.ess_rmst_diff": "draws",
    "sampler.ess_per_s": "1/s",
    "rmst.difference_s": "s",
    "rmst.draws": "count",
    "rmst.us_per_draw": "us",
    "rmst.quadrature_calls": "count",
    "rmst.quadrature_s": "s",
    "specfun.gamma_calls": "count",
    "specfun.beta_calls": "count",
    "summaries.summarize_calls": "count",
    "summaries.summarize_s": "s",
    "summaries.kde_mode_s": "s",
    "model_selection.waic_s": "s",
    "model_selection.pointwise_s": "s",
    "simulation.generate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "host.unit_s": "s",
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env) -> float:
    """Median time from starting a fresh interpreter until rmstbayes is
    imported, scaled by the mean of the reference units timed between the
    probes."""
    times, units = [], [reference.unit_seconds()]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "--probe"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            err = proc.stderr.read()
            proc.wait(timeout=60)
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
        units.append(reference.unit_seconds())
    return reference.scaled(statistics.median(times), statistics.fmean(units))


# ---------------------------------------------------------------- checks


def close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.isclose(a, b, rtol=rtol, atol=atol)))


def weibull_rmst(b0, b1, k, u, group):
    lam = np.exp(b0 + b1 * group + u)
    return oracles.rmst_quadrature(oracles.weibull_surv(lam, k), wl.TAU)


def tag_of(record) -> str:
    return f"{record['index']}{'t' if record['traced'] else 'u'}"


def check_traced_output(record, workdir, problems):
    """A traced operation must write the same JSON as its untraced twin."""
    if record["traced"] and (workdir / f"out-{tag_of(record)}.json").read_bytes() != \
            (workdir / f"out-{record['index']}u.json").read_bytes():
        problems.append(f"{tag_of(record)}: traced output differs from the untraced one")


def check_ranges(ranges, problems, tag):
    if not (np.all(ranges[:, [1, 3]] > 0) and np.all(ranges[:, [2, 4]] <= wl.TAU)):
        problems.append(f"{tag}: an RMST lies outside (0, tau]")


def check_fit(record, workdir, seed, problems):
    tag = tag_of(record)
    doc = json.loads((workdir / f"out-{tag}.json").read_text())
    cap = np.load(workdir / f"capture-{tag}.npz")
    values = cap["values0"]
    draws = values.shape[0] * values.shape[1]
    flat = values.reshape(draws, -1)
    if sum(doc["histogram"]["counts"]) != draws:
        problems.append(f"{tag}: histogram counts do not sum to {draws} draws")
    if len(doc["forest"]) != wl.FIT_CLUSTERS + 1:
        problems.append(f"{tag}: forest has {len(doc['forest'])} rows, "
                        f"expected {wl.FIT_CLUSTERS + 1}")
    check_ranges(cap["ranges"], problems, tag)
    if len(cap["ranges"]) != wl.FIT_CLUSTERS + 1:
        problems.append(f"{tag}: {len(cap['ranges'])} RMST evaluations, "
                        f"expected {wl.FIT_CLUSTERS + 1}")

    truth = (weibull_rmst(wl.WEIBULL_B0, wl.WEIBULL_B1, wl.WEIBULL_K, 0.0, 1)
             - weibull_rmst(wl.WEIBULL_B0, wl.WEIBULL_B1, wl.WEIBULL_K, 0.0, 0))
    reported = doc["rmst"]["difference"]
    half = (reported["ci_high"] - reported["ci_low"]) / 2.0
    if not reported["ci_low"] - half <= truth <= reported["ci_high"] + half:
        problems.append(f"{tag}: generating RMST difference {truth:.4f} is far outside "
                        f"the 95% interval [{reported['ci_low']:.4f}, {reported['ci_high']:.4f}]")

    idx = wl.checked_draws(seed, draws)
    b0, b1, k = flat[idx, 0], flat[idx, 1], flat[idx, 2]
    for group in (0, 1):
        if not close(cap[f"g{group}0"][idx], weibull_rmst(b0, b1, k, 0.0, group), 1e-7):
            problems.append(f"{tag}: per-draw RMST of group {group} differs from quadrature")
    check_summary(cap["diff0"], reported, problems, f"{tag} difference")
    check_traced_output(record, workdir, problems)


def check_summary(vector, reported, problems, what):
    expected = oracles.summary(vector)
    for key, value in expected.items():
        if not close(reported[key], value, 1e-9, 1e-9):
            problems.append(f"{what}: {key} {reported[key]!r} != numpy {value!r}")


def check_simulate(record, workdir, problems):
    tag = tag_of(record)
    doc = json.loads((workdir / f"out-{tag}.json").read_text())
    g0, g1 = (oracles.rmst_quadrature(
        oracles.lognormal_surv(wl.SIM_B0 + wl.SIM_B1 * group, wl.SIM_SIGMA2), wl.TAU)
        for group in (0, 1))
    truth = doc["truth"]
    if not close([truth["group0"], truth["group1"], truth["difference"]],
                 [g0, g1, g1 - g0], 1e-8):
        problems.append(f"{tag}: reported truth {truth} differs from quadrature")
    metrics = doc["metrics"]
    if metrics["replications"] != wl.SIM_REPS or metrics["failures"] != 0:
        problems.append(f"{tag}: {metrics['replications']} replications and "
                        f"{metrics['failures']} failures, expected {wl.SIM_REPS} and 0")
    if not abs(metrics["bias"]) <= wl.SIM_BIAS_TOL:
        problems.append(f"{tag}: bias {metrics['bias']:.4f} exceeds {wl.SIM_BIAS_TOL}")
    check_ranges(np.load(workdir / f"capture-{tag}.npz")["ranges"], problems, tag)
    check_traced_output(record, workdir, problems)


def check_posterior(records, workdir, inputs, problems):
    digests = {r["digest"] for r in records if not r["failed"]}
    if len(digests) > 1:
        problems.append("operations on the same posterior gave different outputs")
    out = np.load(workdir / "out.npz")
    doc = json.loads((workdir / "out.json").read_text())
    for key in ("w_g0", "w_g1", "l_g0", "l_g1"):
        if not (np.all(out[key] > 0) and np.all(out[key] <= wl.TAU)):
            problems.append(f"{key}: an RMST lies outside (0, tau]")

    weibull = inputs["weibull"].reshape(-1, inputs["weibull"].shape[-1])
    idx = inputs["weibull_checked"]
    b0, b1, k, u = weibull[idx, 0], weibull[idx, 1], weibull[idx, 2], weibull[idx, 3:-1]
    for group in (0, 1):
        if not close(out[f"w_g{group}"][idx], weibull_rmst(b0, b1, k, 0.0, group), 1e-7):
            problems.append(f"Weibull per-draw RMST of group {group} differs from quadrature")
    for c in range(1, wl.POST_CLUSTERS + 1):
        uc = u[:, c - 1]
        diff = weibull_rmst(b0, b1, k, uc, 1) - weibull_rmst(b0, b1, k, uc, 0)
        if not close(out[f"w_diff_c{c}"][idx], diff, 0.0, 1e-7 * wl.TAU):
            problems.append(f"Weibull cluster {c} per-draw RMST difference differs "
                            f"from quadrature")

    ll_draws = inputs["loglogistic"].reshape(-1, 3)
    idx = inputs["loglogistic_checked"]
    mu, b1, k = ll_draws[idx, 0], ll_draws[idx, 1], ll_draws[idx, 2]
    for group in (0, 1):
        expected = oracles.rmst_quadrature(oracles.loglogistic_surv(mu + b1 * group, k), wl.TAU)
        if not close(out[f"l_g{group}"][idx], expected, 1e-7):
            problems.append(f"log-logistic per-draw RMST of group {group} differs "
                            f"from quadrature")

    for key, reported in doc["summaries"].items():
        check_summary(out[key], reported, problems, key)

    x = np.column_stack([np.ones(len(inputs["time"])), inputs["group"]])
    ll = oracles.weibull_re_loglik(inputs["time"], inputs["event"], x, inputs["cluster"],
                                   weibull[:, :2], weibull[:, 2], weibull[:, 3:-1])
    if not close(doc["waic"], oracles.waic(ll), 1e-8):
        problems.append(f"WAIC {doc['waic']} differs from numpy {list(oracles.waic(ll))}")


# ---------------------------------------------------------------- metrics


def fit_ess(cap, j, columns):
    """(ESS of the group coefficient, of u[1], of the RMST difference) of fit j."""
    values = cap[f"values{j}"]
    diff = cap[f"diff{j}"].reshape(values.shape[:2])
    return (oracles.ess(values[:, :, columns.index("group")]),
            oracles.ess(values[:, :, columns.index("u[1]")]),
            oracles.ess(diff))


def layer_metrics(record, untraced_wall, result, workdir) -> dict:
    layers, rows = record["layers"], result["rows"]

    def get(key):
        return layers.get(key, 0)

    lp_calls, lp_s = get("inference.log_posterior_calls"), get("inference.log_posterior_s")
    chains_s, sweeps = get("sampler.run_chains_s"), get("sampler.run_chains.sweeps")
    draws = get("rmst.distribution.draws")
    m = {
        "dataio.ingest_s": get("dataio.ingest_s"),
        "inference.log_posterior_calls": lp_calls,
        "inference.log_posterior_us": lp_s / lp_calls * 1e6 if lp_calls else 0.0,
        "inference.ns_per_row": lp_s / (lp_calls * rows) * 1e9 if lp_calls else 0.0,
        "sampler.run_chains_s": chains_s,
        "sampler.sweep_ms": chains_s / sweeps * 1e3 if sweeps else 0.0,
        "sampler.self_s": chains_s - lp_s if sweeps else 0.0,
        "rmst.difference_s": get("rmst.difference_s"),
        "rmst.draws": draws,
        "rmst.us_per_draw": get("rmst.distribution_s") / draws * 1e6 if draws else 0.0,
        "rmst.quadrature_calls": get("rmst.quadrature_calls"),
        "rmst.quadrature_s": get("rmst.quadrature_s"),
        "specfun.gamma_calls": get("specfun.gamma_calls"),
        "specfun.beta_calls": get("specfun.beta_calls"),
        "summaries.summarize_calls": get("summaries.summarize_calls"),
        "summaries.summarize_s": get("summaries.summarize_s"),
        "summaries.kde_mode_s": get("summaries.kde_mode_s"),
        "model_selection.waic_s": get("model_selection.waic_s"),
        "model_selection.pointwise_s": get("model_selection.pointwise_s"),
        "simulation.generate_s": get("simulation.generate_s"),
        "cli.self_s": layers["op_s"] - layers["children_s"]
        if result["op"].startswith("cli.") else 0.0,
        "trace.overhead_s": record["wall_s"] - untraced_wall,
        "host.unit_s": statistics.fmean(result["unit_s"]),
    }
    accept = {"beta": [], "shape": [], "effect": []}
    ess = []
    if "columns" in record:
        cap = np.load(workdir / f"capture-{tag_of(record)}.npz")
        for j, rates in enumerate(record["acceptance"]):
            for block, per_chain in rates.items():
                kind = block.split("[")[0]
                if kind in accept:
                    accept[kind].extend(per_chain)
            ess.append(fit_ess(cap, j, record["columns"]))
    for kind, rates in accept.items():
        m[f"sampler.accept_{kind}"] = statistics.fmean(rates) if rates else 0.0
    if ess:
        ess = np.array(ess)
        m["sampler.ess_group"], m["sampler.ess_effect"], m["sampler.ess_rmst_diff"] = \
            (float(np.median(ess[:, j])) for j in range(3))
        m["sampler.ess_per_s"] = float(ess.sum(axis=0).min()) / untraced_wall
    else:
        m.update({"sampler.ess_group": 0.0, "sampler.ess_effect": 0.0,
                  "sampler.ess_rmst_diff": 0.0, "sampler.ess_per_s": 0.0})
    return m


# ---------------------------------------------------------------- main


def make_inputs(workload, seed, workdir):
    if workload == "fit-weibull-re":
        wl.write_csv(wl.weibull_data(seed, wl.FIT_ROWS, wl.FIT_CLUSTERS), workdir / "input.csv")
    elif workload == "rmst-posterior":
        inputs = wl.posterior_inputs(seed)
        np.savez(workdir / "input.npz", **inputs)
        return inputs
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "rmstbayes" / "__init__.py").is_file():
        print(f"error: no rmstbayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = make_inputs(args.workload, args.seed, workdir)
    env = child_env()
    setup_s = setup_seconds(env)

    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    with open(workdir / "worker.log", "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            code = proc.wait(timeout=RUN_LIMIT_S - (perf_counter() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    if code != 0:
        print(f"error: worker ended with {code}; see {workdir / 'worker.log'}", file=sys.stderr)
        print((workdir / "worker.log").read_text()[-3000:], file=sys.stderr)
        return 1

    result = json.loads((workdir / "worker.json").read_text())
    records = result["records"]
    done = [r for r in records if not r["failed"]]
    attempted, failed = len(records), len(records) - len(done)
    problems = []
    if not done:
        problems.append("no operation completed")
    elif args.workload == "fit-weibull-re":
        for r in done:
            check_fit(r, workdir, args.seed, problems)
    elif args.workload == "simulate-lognormal-re":
        for r in done:
            check_simulate(r, workdir, problems)
    else:
        check_posterior(done, workdir, inputs, problems)
    for r in records[:20]:
        if r["failed"]:
            print(f"operation {r['index']} failed: {r['error']}", file=sys.stderr)
    if problems:
        print(f"refused: checks failed; attempted {attempted}, failed {failed}")
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        return 1

    untraced = {r["index"]: r["wall_s"] for r in done if not r["traced"]}
    # The first operation warms up and measures memory; later ones are timed.
    timed = [t for i, t in untraced.items() if i > 0] or list(untraced.values())
    if args.trace:
        per_op = [layer_metrics(r, untraced[r["index"]], result, workdir)
                  for r in done if r["traced"] and r["index"] in untraced]
        values = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        # Means, not medians: the host flips between a fast and a slow
        # state, and a mean of either kind of time weighs each state by the
        # time spent in it, where a median of the units jumps between them.
        values = {"wall_s": reference.scaled(statistics.fmean(timed),
                                             statistics.fmean(result["unit_s"])),
                  "setup_s": setup_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    out = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(out, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
