"""Runs one workload's operations against the program, in a process of its own.

``run.py`` starts this file and does every check itself, so the peak resident
memory of this process is that of the program's work.  The program is
imported from the checkout's ``src`` directory and nowhere else.

    worker.py --probe
        import the program, print "ready" and exit (set-up time probe)
    worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
        run whole operations until the next one would end after S seconds;
        with --trace 1 every operation runs twice, untraced then traced.
        REF_UNITS units of the reference loop run before the first operation
        and after each untraced one, and one unit at a break inside an
        untraced operation about every BREAK_S seconds, except in the first;
        their times measure the host's speed over the run, and time spent at
        breaks is not the operation's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
from contextlib import ExitStack, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import workloads
from tracing import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
REF_UNITS = 5
# The host's speed drifts within seconds, so the reference loop must run
# often to follow it: one sample per 10-s fit did not.
BREAK_S = 0.5


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import rmstbayes
    where = Path(rmstbayes.__file__).resolve().parent
    if where != ROOT / "src" / "rmstbayes":
        raise SystemExit(f"rmstbayes imported from {where}, not from this checkout")
    return rmstbayes


def _then(fn, after):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after()
        return result
    return wrapper


class FitOp:
    """`rmstbayes fit --family weibull --effect random` on the generated CSV."""

    name = "cli.fit"
    modules = ("rmstbayes.cli",)

    def __init__(self, seed, workdir):
        from rmstbayes import cli
        self.main, self.seed, self.workdir = cli.main, seed, workdir
        self.rows = workloads.FIT_ROWS

    def argv(self, index, tag):
        return ["fit", "--input", str(self.workdir / "input.csv"), "--family", "weibull",
                "--effect", "random", "--tau", repr(workloads.TAU),
                "--seed", str(self.seed * 100 + index),
                "--output", str(self.workdir / f"out-{tag}.json")]

    def run(self, index, tag, pause):
        # The sampler's calls to log_posterior are where the operation may
        # take a break.
        with patched("rmstbayes.sampler", "log_posterior",
                     lambda fn: _then(fn, pause)) if pause.active else nullcontext():
            code = self.main(self.argv(index, tag))
        if code != 0:
            raise RuntimeError(f"rmstbayes exited with {code}")


class SimulateOp(FitOp):
    """`rmstbayes simulate --scenario B --effect random` with short chains."""

    name = "cli.simulate"
    modules = ("rmstbayes.simulation",)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rows = 512

    def argv(self, index, tag):
        return ["simulate", *workloads.SIM_ARGS, "--seed", str(self.seed * 100 + index),
                "--output", str(self.workdir / f"out-{tag}.json")]


class Capture:
    """Keeps what the checks need from each fit of an operation: the draws,
    the marginal per-draw RMSTs, and the range of every RMST vector."""

    def __init__(self, modules):
        self.modules = modules
        self.fits, self.ranges = [], []

    def installed(self):
        stack = ExitStack()
        for module in self.modules:
            stack.enter_context(patched(module, "run_chains", self._run_chains))
            stack.enter_context(patched(module, "rmst_difference", self._difference))
        return stack

    def _run_chains(self, fn):
        def wrapper(*args, **kwargs):
            draws = fn(*args, **kwargs)
            self.fits.append({"draws": draws})
            return draws
        return wrapper

    def _difference(self, fn):
        def wrapper(draws, tau, *args, **kwargs):
            g0, g1, diff = fn(draws, tau, *args, **kwargs)
            cluster = kwargs.get("cluster", args[1] if len(args) > 1 else None)
            self.ranges.append((0 if cluster is None else cluster,
                                g0.values.min(), g0.values.max(),
                                g1.values.min(), g1.values.max()))
            if cluster is None:
                self.fits[-1].update(g0=g0.values, g1=g1.values, diff=diff.values)
            return g0, g1, diff
        return wrapper

    def save(self, path):
        arrays = {"ranges": np.array(self.ranges)}
        for j, fit in enumerate(self.fits):
            arrays[f"values{j}"] = fit["draws"].values
            for key in ("g0", "g1", "diff"):
                arrays[f"{key}{j}"] = fit[key]
        np.savez(path, **arrays)
        return {"columns": list(self.fits[0]["draws"].columns),
                "acceptance": [fit["draws"].acceptance for fit in self.fits]}


class PosteriorOp:
    """Posterior RMST, summaries and WAIC from fixed synthetic posteriors."""

    name = "posterior"
    modules = ()
    rows = 0

    def __init__(self, seed, workdir):
        from rmstbayes.families import EffectKind, Family
        from rmstbayes.inference import ModelSpec, ParamLayout, SurvivalDataset
        from rmstbayes.sampler import PosteriorDraws, SamplerConfig
        from rmstbayes import model_selection, rmst, summaries
        self.rmst, self.summaries, self.model_selection = rmst, summaries, model_selection
        self.workdir = workdir
        inputs = np.load(workdir / "input.npz")
        self.data = SurvivalDataset(
            time=inputs["time"], event=inputs["event"],
            x=np.column_stack([np.ones(len(inputs["time"])), inputs["group"]]),
            cluster=inputs["cluster"], column_names=("intercept", "group"))

        def draws(values, family, effect, clusters):
            spec = ModelSpec(family, effect)
            layout = ParamLayout(q=2, has_shape=True, effect=effect, n_clusters=clusters)
            chains, kept, _ = values.shape
            return spec, PosteriorDraws(
                values=values, columns=layout.column_names(("intercept", "group")),
                layout=layout, spec=spec, acceptance={},
                config=SamplerConfig(chains=chains, iterations=2 * kept, burnin=kept))

        self.spec, self.weibull = draws(inputs["weibull"], Family.WEIBULL,
                                        EffectKind.RANDOM, workloads.POST_CLUSTERS)
        _, self.loglogistic = draws(inputs["loglogistic"], Family.LOG_LOGISTIC,
                                    EffectKind.NONE, 0)
        self.last = None

    def run(self, index, tag, pause):
        tau, summarize = workloads.TAU, self.summaries.summarize
        vectors, summaries = {}, {}
        g0, g1, diff = self.rmst.rmst_difference(self.weibull, tau)
        vectors.update(w_g0=g0.values, w_g1=g1.values, w_diff=diff.values)
        pause()
        for c in range(1, workloads.POST_CLUSTERS + 1):
            vectors[f"w_diff_c{c}"] = self.rmst.rmst_difference(
                self.weibull, tau, cluster=c)[2].values
            pause()
        g0, g1, diff = self.rmst.rmst_difference(self.loglogistic, tau)
        vectors.update(l_g0=g0.values, l_g1=g1.values, l_diff=diff.values)
        pause()
        for key, v in vectors.items():
            if key != "w_g0" and key != "w_g1":
                summaries[key] = summarize(v)
                pause()
        result = self.model_selection.waic(self.data, self.spec, self.weibull)
        self.last = vectors, summaries, result

    def save(self):
        vectors, summaries, result = self.last
        self.last = None
        doc = {"summaries": {k: {"mean": s.mean, "median": s.median, "ci_low": s.ci_low,
                                 "ci_high": s.ci_high} for k, s in summaries.items()},
               "waic": [result.waic, result.lppd, result.p_waic]}
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        for key in sorted(vectors):
            digest.update(vectors[key].tobytes())
        if not (self.workdir / "out.npz").exists():
            np.savez(self.workdir / "out.npz", **vectors)
            (self.workdir / "out.json").write_text(json.dumps(doc))
        return {"digest": digest.hexdigest()}


OPS = {"fit-weibull-re": FitOp, "simulate-lognormal-re": SimulateOp,
       "rmst-posterior": PosteriorOp}


class Breaks:
    """Called where an operation may take a break.  Once BREAK_S seconds of
    the operation have passed since the last break, it runs one unit of the
    reference loop into ``unit_s`` and keeps that time out of the
    operation's.  With ``unit_s`` None (traced operations) it does nothing."""

    def __init__(self, unit_s=None):
        self.unit_s, self.paused = unit_s, 0.0
        self.active = unit_s is not None
        self.last = perf_counter()

    def __call__(self):
        if self.active and perf_counter() - self.last >= BREAK_S:
            start = perf_counter()
            self.unit_s.append(reference.unit_seconds())
            self.last = perf_counter()
            self.paused += self.last - start


def run_one(op, index, tracer, unit_s):
    """One operation, timed; returns its record."""
    tag = f"{index}{'t' if tracer else 'u'}"
    record = {"index": index, "traced": tracer is not None, "failed": False}
    capture = Capture(op.modules) if op.modules else None
    pause = Breaks(None if tracer else unit_s)
    gc.collect()
    try:
        with tracer.op(index, op.name) if tracer else nullcontext(), \
                capture.installed() if capture else nullcontext():
            start = perf_counter()
            op.run(index, tag, pause)
            record["wall_s"] = perf_counter() - start - pause.paused
    except Exception as exc:  # a failed operation is counted, not fatal
        record.update(failed=True, error=repr(exc))
        return record
    if capture:
        record.update(capture.save(op.workdir / f"capture-{tag}.npz"))
    else:
        record.update(op.save())
    if tracer:
        record["layers"] = tracer.totals(index)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(OPS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    import_program()
    if args.probe:
        print("ready", flush=True)
        return 0

    op = OPS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    records, rounds = [], 0
    start = perf_counter()
    unit_s = [reference.unit_seconds(REF_UNITS)]
    while True:
        # The first operation takes no breaks, so the peak memory through it
        # is the program's alone.  Later operations can raise the peak by a
        # few MB as the allocator's heap shifts, and how many of them fit in
        # a run depends on the host's speed, so they are not counted.
        records.append(run_one(op, rounds, None, unit_s if rounds else None))
        if rounds == 0:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        unit_s.append(reference.unit_seconds(REF_UNITS))
        if tracer:
            records.append(run_one(op, rounds, tracer, unit_s))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    if tracer:
        tracer.dump(args.workdir / "trace.jsonl")
    result = {"op": op.name, "rows": op.rows, "records": records, "unit_s": unit_s,
              "peak_rss_mb": peak_kb / 1024.0}
    (args.workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
