"""The example script under ``scripts/`` runs end to end on scenario B at tiny
sizes, in its own interpreter."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=env, capture_output=True, text=True)


def test_cluster_fit_demo_takes_the_cli_family_spelling():
    out = _run("run_cluster_fit_demo.py", "--scenario", "B", "--family", "lognormal",
               "--n", "64", "--iter", "200", "--burnin", "100")
    assert out.returncode == 0, out.stderr
    assert "[frailty] RMST difference" in out.stdout

