"""Command-line interface: subcommands, exit codes, JSON documents,
atomic output, and determinism."""

import json
import math
import os
import re
import shlex

import numpy as np
import pytest

from rmstbayes.cli import build_parser, main
from rmstbayes.dataio import write_csv
from rmstbayes.rmst import integrate
from rmstbayes.simulation import ScenarioConfig, generate_scenario


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "scenario_c.csv"
    write_csv(generate_scenario(ScenarioConfig("C", n=96), 0), path)
    return str(path)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")

FIT_ARGS = ["--family", "exponential", "--chains", "2",
            "--iter", "300", "--burnin", "150", "--seed", "3", "--tau", "100"]

# A document's config holds every parsed argument but --output, in parser
# order, each under its argparse destination.
CONFIG_KEYS = {
    "fit": ["subcommand", "input", "family", "effect", "tau", "chains", "iterations",
            "burnin", "seed", "ci_level", "thresholds",
            "time_col", "event_col", "cluster_col", "group_col", "covariate"],
    "waic": ["subcommand", "input", "family", "effect", "chains", "iterations", "burnin",
             "seed", "time_col", "event_col", "cluster_col", "group_col", "covariate"],
    "rmst": ["subcommand", "family", "tau", "lambda", "k", "mu", "sigma2", "scale", "u", "v"],
    "simulate": ["subcommand", "scenario", "n", "replications", "family", "effect", "tau",
                 "chains", "iterations", "burnin", "seed"],
}


def test_rmst_exponential_reference(capsys):
    code = main(["rmst", "--family", "exponential",
                 "--lambda", str(math.exp(-4.5)), "--tau", "100"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("=")[-1])
    assert abs(value - 60.37) <= 0.01


def test_rmst_weibull_unit_shape_equals_exponential(capsys):
    main(["rmst", "--family", "weibull", "--lambda", "1", "--k", "1", "--tau", "5"])
    a = float(capsys.readouterr().out.strip().split("=")[-1])
    main(["rmst", "--family", "exponential", "--lambda", "1", "--tau", "5"])
    b = float(capsys.readouterr().out.strip().split("=")[-1])
    assert math.isclose(a, b, rel_tol=1e-9)


def test_rmst_alternate_parameterization(capsys):
    main(["rmst", "--family", "loglogistic", "--scale", "50", "--k", "2", "--tau", "100"])
    a = float(capsys.readouterr().out.strip().split("=")[-1])
    main(["rmst", "--family", "loglogistic", "--mu", str(-2 * math.log(50)),
          "--k", "2", "--tau", "100"])
    b = float(capsys.readouterr().out.strip().split("=")[-1])
    assert math.isclose(a, b, rel_tol=1e-12)
    main(["rmst", "--family", "weibull", "--scale", "20", "--k", "1.5", "--tau", "100"])
    a = float(capsys.readouterr().out.strip().split("=")[-1])
    main(["rmst", "--family", "weibull", "--lambda", repr(20.0 ** -1.5),
          "--k", "1.5", "--tau", "100"])
    b = float(capsys.readouterr().out.strip().split("=")[-1])
    assert math.isclose(a, b, rel_tol=1e-12)
    # the time-scale survival functions, integrated by quadrature
    for family, surv in (("weibull", lambda t: math.exp(-(t / 20.0) ** 1.5)),
                         ("loglogistic", lambda t: 1.0 / (1.0 + (t / 20.0) ** 1.5))):
        main(["rmst", "--family", family, "--scale", "20", "--k", "1.5", "--tau", "100"])
        got = float(capsys.readouterr().out.strip().split("=")[-1])
        assert abs(got - integrate(surv, 0.0, 100.0)) <= 1e-6


def test_rmst_loglogistic_half_shape(capsys):
    # k <= 1 takes the closed form with a nonpositive incomplete-beta argument
    code = main(["rmst", "--family", "loglogistic", "--mu", "-1.5", "--k", "0.5",
                 "--tau", "100"])
    assert code == 0
    value = float(capsys.readouterr().out.strip().split("=")[-1])
    assert abs(value - 42.517730) <= 1e-6


def test_rmst_with_effects(capsys):
    main(["rmst", "--family", "exponential", "--lambda", "0.02", "--u",
          str(math.log(2.0)), "--tau", "100"])
    a = float(capsys.readouterr().out.strip().split("=")[-1])
    main(["rmst", "--family", "exponential", "--lambda", "0.04", "--tau", "100"])
    b = float(capsys.readouterr().out.strip().split("=")[-1])
    assert math.isclose(a, b, rel_tol=1e-9)


def test_rmst_weibull_tiny_shape(capsys):
    # Gamma(1/k + 1) overflows at k = 0.005; the RMST is the quadrature's 60.1038
    code = main(["rmst", "--family", "weibull", "--lambda", "0.5", "--k", "0.005",
                 "--tau", "100"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "RMST(tau=100) = 60.103760"


def test_rmst_weibull_huge_cumulative_hazard(tmp_path):
    # Lambda(tau) = 1.3e20, where the incomplete gamma once failed to converge;
    # S is about 0 on [0, tau], so the RMST is the mean Gamma(1 + 1/k) lam^(-1/k)
    out = tmp_path / "rmst.json"
    code = main(["rmst", "--family", "weibull", "--lambda", "1.3e16", "--k", "2",
                 "--tau", "100", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert math.isclose(doc["rmst"], math.gamma(1.5) / math.sqrt(1.3e16), rel_tol=1e-14)
    assert list(doc["config"]) == CONFIG_KEYS["rmst"]
    assert doc["config"]["lambda"] == 1.3e16


def test_usage_errors_exit_two(csv_path, monkeypatch, capsys):
    # invalid values are rejected before any sampling
    monkeypatch.setattr("rmstbayes.cli.run_chains", None)
    monkeypatch.setattr("rmstbayes.simulation.run_chains", None)
    rmst = ["rmst", "--family"]
    for argv in (
        ["fit", "--input", csv_path, "--family", "gompertz"],
        rmst + ["weibull", "--tau", "10"],  # no parameters
        rmst + ["exponential", "--lambda", "0.02", "--u", "0.1", "--v", "1.2", "--tau", "10"],
        rmst + ["weibull", "--scale", "-1", "--k", "2", "--tau", "10"],
        rmst + ["weibull", "--scale", "80", "--k", "-1.5", "--tau", "10"],
        rmst + ["exponential", "--scale", "80", "--k", "1.5", "--tau", "10"],
        rmst + ["weibull", "--lambda", "-1", "--k", "2", "--tau", "10"],
        rmst + ["exponential", "--lambda", "0.02", "--v", "0", "--tau", "10"],
        rmst + ["exponential", "--lambda", "0.02", "--tau", "-5"],
        rmst + ["loglogistic", "--mu", "-9.6", "--k", "2", "--u", "nan", "--tau", "100"],
        ["fit", "--input", csv_path, "--family", "exponential", "--tau", "0"],
        ["fit", "--input", csv_path, "--family", "exponential", "--ci-level", "1.5"],
        # a non-finite threshold would reach the document as a bare NaN or Infinity
        ["fit", "--input", csv_path, "--family", "exponential", "--threshold", "nan"],
        ["fit", "--input", csv_path, "--family", "exponential", "--threshold", "inf"],
        ["simulate", "--scenario", "C", "--tau", "nan"],
        # a replication would keep 2 x 2 draws, too few to summarize
        ["simulate", "--scenario", "C", "--n", "8", "--reps", "1", "--iter", "5", "--burnin", "3"],
        # each family without one parameter it requires
        rmst + ["exponential", "--tau", "10"],
        rmst + ["weibull", "--lambda", "0.01", "--tau", "10"],
        rmst + ["loglogistic", "--k", "2", "--tau", "10"],
        rmst + ["lognormal", "--mu", "3", "--tau", "10"],
        # scale ** -k overflows; k = 0 is not a shape
        rmst + ["weibull", "--scale", "1e-300", "--k", "2", "--tau", "10"],
        rmst + ["weibull", "--scale", "80", "--k", "0", "--tau", "10"],
        # closed forms outside the floating-point range: e^(-eta/k) overflows
        # beside an incomplete gamma or beta that underflows, or the beta overflows
        rmst + ["loglogistic", "--mu", "-300", "--k", "0.01", "--tau", "100"],
        rmst + ["loglogistic", "--mu", "300", "--k", "1e-3", "--tau", "100"],
        # a parameter the family does not take, or one --scale would override
        rmst + ["exponential", "--lambda", "0.02", "--k", "2", "--tau", "10"],
        rmst + ["weibull", "--lambda", "0.02", "--k", "2", "--mu", "5", "--tau", "10"],
        rmst + ["loglogistic", "--scale", "50", "--k", "2", "--mu", "1", "--tau", "100"],
        # WAIC needs 100 kept draws; this fit would keep 2 x 20
        ["waic", "--input", csv_path, "--family", "exponential", "--iter", "30",
         "--burnin", "10"],
        ["fit", "--input", csv_path, "--family", "exponential", "--burnin", "-5"],
        ["waic", "--input", csv_path, "--family", "exponential", "--burnin", "-5"],
        ["simulate", "--scenario", "C", "--burnin", "-5"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err, argv
        if argv[0] == "rmst":  # the rmst subparser's usage line and error prefix
            assert err.startswith("usage: rmstbayes rmst "), argv
            assert "\nrmstbayes rmst: error:" in err, argv


def test_missing_input_exits_one(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--family", "exponential"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fit_document_structure(csv_path, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", csv_path, *FIT_ARGS,
                 "--threshold", "0", "--threshold", "-3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc["config"]) == CONFIG_KEYS["fit"]
    assert doc["config"]["family"] == "exponential"
    assert doc["config"]["thresholds"] == [0.0, -3.0]
    names = [r["name"] for r in doc["parameters"]]
    assert names == ["intercept", "group", "x2"]
    for row in doc["parameters"]:
        assert row["ci_low"] <= row["median"] <= row["ci_high"]
        assert row["ess"] > 0 and row["rhat"] > 0.9
    rmst = doc["rmst"]
    assert set(rmst) == {"group0", "group1", "difference"}
    ths = [e["threshold"] for e in rmst["difference"]["exceedance"]]
    assert ths == [0.0, -3.0]
    assert sum(doc["histogram"]["counts"]) == 2 * 150
    table = capsys.readouterr().out
    assert "RMST difference" in table and "Rhat" in table


@pytest.mark.parametrize("chains, rhat_known", [(2, True), (1, False)])
def test_fit_too_short_for_a_diagnostic_still_writes_its_document(csv_path, tmp_path, capsys,
                                                                   chains, rhat_known):
    # 40 kept draws a chain: ESS needs 100 in all, split-Rhat 2 chains or 100
    out = tmp_path / "short.json"
    code = main(["fit", "--input", csv_path, "--family", "exponential", "--chains", str(chains),
                 "--iter", "80", "--burnin", "40", "--seed", "3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    for row in doc["parameters"]:
        assert row["ess"] is None
        assert (row["rhat"] > 0.9) if rhat_known else (row["rhat"] is None)
    assert sum(doc["histogram"]["counts"]) == chains * 40
    table = capsys.readouterr().out
    assert table.count("n/a") == (3 if rhat_known else 6)


def test_fit_keeping_fewer_than_ten_draws_is_a_usage_error(csv_path, tmp_path, monkeypatch,
                                                            capsys):
    # the summaries need 10 draws in all: 2 x (4 - 1) is refused before sampling
    out = tmp_path / "few.json"
    with monkeypatch.context() as patch:
        patch.setattr("rmstbayes.cli.run_chains", None)
        with pytest.raises(SystemExit) as e:
            main(["fit", "--input", csv_path, "--family", "exponential",
                  "--iter", "4", "--burnin", "1", "--output", str(out)])
    assert e.value.code == 2
    assert "chains x (iter - burnin)" in capsys.readouterr().err
    assert not out.exists()
    # exactly 10 kept draws fit and write their document
    assert main(["fit", "--input", csv_path, "--family", "exponential", "--chains", "1",
                 "--iter", "11", "--burnin", "1", "--output", str(out)]) == 0
    assert sum(json.loads(out.read_text())["histogram"]["counts"]) == 10


def test_fit_with_a_categorical_covariate(tmp_path):
    # a blank line, a renamed time column, and a three-level covariate coded
    # against its first level
    lines = ["t,event,cluster,group,place"]
    places = ("urban", "rural", "coastal")
    for i in range(48):
        lines.append(f"{5 + i % 11}.5,{int(i % 3 != 0)},{1 + i % 4},{i % 2},{places[i % 3]}")
        if i == 20:
            lines.append("")
    data = tmp_path / "places.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "fit.json"
    code = main(["fit", "--input", str(data), *FIT_ARGS, "--time-col", "t",
                 "--covariate", "place", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = [r["name"] for r in doc["parameters"]]
    assert names[:4] == ["intercept", "group", "place=rural", "place=coastal"]
    # the columns read are recorded, so fits of other columns differ in config
    assert doc["config"]["time_col"] == "t"
    assert doc["config"]["covariate"] == ["place"]


def test_fit_with_random_effects_emits_forest(csv_path, tmp_path):
    out = tmp_path / "fit_re.json"
    code = main(["fit", "--input", csv_path, "--family", "exponential",
                 "--effect", "random", "--chains", "1", "--iter", "200",
                 "--burnin", "100", "--seed", "5", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    labels = [r[0] for r in doc["forest"]]
    assert labels == [f"cluster-{i}" for i in range(1, 5)] + ["marginal"]
    for label, mean, lo, hi in doc["forest"]:
        assert lo <= mean <= hi, label
    # the marginal row is the RMST difference's own summary
    diff = doc["rmst"]["difference"]
    assert doc["forest"][-1][1:] == [diff["mean"], diff["ci_low"], diff["ci_high"]]


def test_readme_cluster_recipe_at_tiny_sizes(tmp_path):
    # README's comparison of cluster structures, with one effect kind and
    # short chains: write scenario B, fit at tau = 50, and score by WAIC
    data = tmp_path / "scenario_b.csv"
    write_csv(generate_scenario(ScenarioConfig("B", n=64)), data)
    model = ["--input", str(data), "--family", "lognormal", "--effect", "frailty",
             "--iter", "200", "--burnin", "100"]
    fit_out, waic_out = tmp_path / "fit_frailty.json", tmp_path / "waic_frailty.json"
    assert main(["fit", *model, "--tau", "50", "--output", str(fit_out)]) == 0
    assert main(["waic", *model, "--output", str(waic_out)]) == 0
    text = fit_out.read_text()
    assert '"tau": 50.0' in text
    doc = json.loads(text)
    assert [r["name"] for r in doc["parameters"]] == [
        "intercept", "group", "x2", "sigma2", *(f"v[{i}]" for i in range(1, 5)), "phi"]
    assert [r[0] for r in doc["forest"]] == [f"cluster-{i}" for i in range(1, 5)] + ["marginal"]
    assert math.isfinite(json.loads(waic_out.read_text())["waic"])


def test_fit_output_is_deterministic_bytes(csv_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["fit", "--input", csv_path, *FIT_ARGS, "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_waic_document(csv_path, tmp_path):
    out = tmp_path / "waic.json"
    code = main(["waic", "--input", csv_path, "--family", "exponential",
                 "--chains", "2", "--iter", "300", "--burnin", "150",
                 "--seed", "3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc["config"]) == CONFIG_KEYS["waic"]
    assert math.isclose(doc["waic"], -2 * (doc["lppd"] - doc["p_waic"]), rel_tol=1e-12)


def test_simulate_document(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--scenario", "C", "--n", "64", "--reps", "2",
                 "--chains", "1", "--iter", "200", "--burnin", "100",
                 "--seed", "0", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc["config"]) == CONFIG_KEYS["simulate"]
    # with no --family the generating family is fitted, and recorded
    assert doc["config"]["family"] == ScenarioConfig("C").family.value
    assert abs(doc["truth"]["difference"] + 14.52) <= 0.01
    assert doc["metrics"]["replications"] == 2


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "-8"], ["--reps", "0"]],
                         ids=["n=0", "n=-8", "reps=0"])
def test_simulate_without_data_exits_one(argv, monkeypatch, capsys):
    monkeypatch.setattr("rmstbayes.simulation.run_chains", None)
    assert main(["simulate", "--scenario", "C", *argv]) == 1
    assert "must be at least" in capsys.readouterr().err


def _readme_shell_lines():
    """The words of each line in README's shell blocks, with continuation
    lines joined."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            yield shlex.split(line, comments=True)


def test_readme_commands_parse():
    lines = list(_readme_shell_lines())
    commands = [words[1:] for words in lines if words[:1] == ["rmstbayes"]]
    assert {c[0] for c in commands} == {"fit", "waic", "rmst", "simulate"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: rmstbayes {shlex.join(argv)}")
    # every Python file a command names exists, and inline code compiles
    for words in lines:
        if words[:2] == ["python3", "-c"]:
            compile(words[2], "README", "exec")
        for path in (w for w in words if w.endswith(".py")):
            assert os.path.isfile(os.path.join(ROOT, path)), shlex.join(words)


def test_no_partial_output_on_failure(tmp_path, monkeypatch):
    out = tmp_path / "never.json"
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--family", "exponential", "--output", str(out)])
    assert code == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.tmp"))
    # JSON has no NaN: a non-finite result fails the run, mid-write, rather
    # than leave a document that strict parsers reject
    monkeypatch.setattr("rmstbayes.cli.rmst_value", lambda p, e, tau: math.nan)
    code = main(["rmst", "--family", "exponential", "--lambda", "0.02", "--tau", "10",
                 "--output", str(out)])
    assert code == 1
    assert list(tmp_path.iterdir()) == []
