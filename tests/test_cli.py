import json
import os

import numpy as np
import pytest

from ldplab.cli import main
from ldplab.config import preset_config


@pytest.fixture
def tiny_config(tmp_path):
    doc = preset_config("appendix-f")
    doc["ensemble"]["n_runs"] = 2048
    doc["ensemble"]["horizon_T"] = 10
    doc["ensemble"]["t_grid"] = list(range(1, 10))
    doc["output"]["directory"] = str(tmp_path / "results")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


def test_simulate_tail_fit_roundtrip(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    assert os.path.exists(os.path.join(out, "trajsummary.csv"))
    meta = json.loads(open(os.path.join(out, "meta.json")).read())
    assert meta["tool"] == "ldplab"
    assert meta["n_runs"] == 2048
    assert "M" in meta["certified"]

    assert main(["tail", out, "--epsilon", "0.18", "--t-grid", "2:9"]) == 0
    tail_csv = os.path.join(out, "tail.csv")
    first = open(tail_csv).readline()
    assert first.startswith("#") and meta["config_digest"] in first
    svg = open(os.path.join(out, "tail.svg")).read()
    assert svg.startswith("<svg xmlns=") and svg.rstrip().endswith("</svg>")
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")
    assert meta["config_digest"] in svg  # provenance comment

    assert main(["fit", tail_csv, "--candidates", "linear-t,sqrt-t"]) == 0
    fit_rows = [l for l in open(os.path.join(out, "fit.csv")) if not l.startswith("#")]
    assert fit_rows[0].strip() == "candidate,slope_hat,intercept,r_squared,points_used"
    assert len(fit_rows) == 3


def test_simulate_byte_identical_across_workers(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["simulate", "--config", config_path, "--out", out1, "--workers", "1"]) == 0
    assert main(["simulate", "--config", config_path, "--out", out2, "--workers", "3"]) == 0
    csv1 = open(os.path.join(out1, "trajsummary.csv"), "rb").read()
    csv2 = open(os.path.join(out2, "trajsummary.csv"), "rb").read()
    assert csv1 == csv2
    assert (
        open(os.path.join(out1, "meta.json"), "rb").read()
        == open(os.path.join(out2, "meta.json"), "rb").read()
    )


def test_simulate_refuses_differing_digest(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    doc2 = json.loads(open(config_path).read())
    doc2["ensemble"]["seed"] += 1
    config2 = tmp_path / "config2.json"
    config2.write_text(json.dumps(doc2))
    assert main(["simulate", "--config", str(config2)]) == 3
    assert main(["simulate", "--config", str(config2), "--force"]) == 0


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}")
    assert main(["simulate", "--config", str(bad)]) == 2
    doc = preset_config("appendix-f")
    doc["method"]["step"]["a"] = 0.9  # > 1/L = 0.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert main(["simulate"]) == 2  # neither --config nor --preset


def test_unknown_epsilon_exit_code(tiny_config):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    assert main(["tail", out, "--epsilon", "0.5"]) == 2


def test_missing_or_corrupt_results_exit_code(tiny_config, tmp_path):
    config_path, doc = tiny_config
    assert main(["tail", str(tmp_path / "nowhere"), "--epsilon", "0.18"]) == 3
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    with open(os.path.join(out, "meta.json"), "w") as fh:
        fh.write("{broken")
    assert main(["tail", out, "--epsilon", "0.18"]) == 3


def test_analysis_ignores_manifest_output_block(tiny_config):
    # results whose recorded output block has a key the schema no longer knows stay readable
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    meta_path = os.path.join(out, "meta.json")
    meta = json.loads(open(meta_path).read())
    meta["config"]["output"]["retired_key"] = ["csv", "svg"]
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    assert main(["report", out]) == 0
    assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 0


def test_fit_insufficient_data_exit_code(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    # a 2-point grid cannot support a fit
    assert main(["tail", out, "--epsilon", "0.18", "--t-grid", "3:4"]) == 0
    assert main(["fit", os.path.join(out, "tail.csv"), "--candidates", "linear-t"]) == 4


def test_verify_fast_suites_and_report(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    vdir = str(tmp_path / "verify")
    assert main(["verify", "rates", "appendix-f-enum", "--out", vdir]) == 0
    rows = [l for l in open(os.path.join(vdir, "verify.csv")) if not l.startswith("#")]
    assert len(rows) > 20
    assert main(["verify", "no-such-suite"]) == 2

    assert main(["simulate", "--config", config_path]) == 0
    assert main(["report", out]) == 0
    report = open(os.path.join(out, "report.txt")).read()
    assert "epsilon = 0.18" in report
    assert os.path.exists(os.path.join(out, "tail_eps1.csv"))


def test_verify_failure_exit_code(monkeypatch):
    import ldplab.cli as cli_mod
    from ldplab.montecarlo import LemmaCheck, LemmaSuiteReport

    def failing_suite(suite, n_samples=0, seed=0, **kw):
        return LemmaSuiteReport(suite, [LemmaCheck("forced", 2.0, 1.0, 0.0, False)])

    monkeypatch.setattr(cli_mod, "verify_lemma_suite", failing_suite)
    assert main(["verify", "mgf-bounded", "--samples", "1000"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["tail", "{R}", "--epsilon", "0.18", "--t-grid", "0:99"],
        ["fit", "{R}/tail.csv", "--candidates", "bogus"],
        ["verify", "clip-bias", "--samples", "1000"],
        ["rates", "--epsilon", "0.1", "--p", "3"],
        ["rates", "--epsilon", "0.1", "--M", "1", "--t-grid", "abc"],
    ],
    ids=["tail-t-grid-below-1", "fit-unknown-family", "verify-too-few-samples",
         "rates-p-out-of-range", "rates-bad-t-grid"],
)
def test_library_rejection_exit_code(argv, tiny_config, tmp_path, monkeypatch, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("tail", "fit"):
        assert main(["simulate", "--config", config_path]) == 0
        assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 0
    capsys.readouterr()
    assert main([a.format(R=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rates_and_sota_csv(tmp_path):
    rates_csv = str(tmp_path / "rates.csv")
    assert main(["rates", "--epsilon", "1.0", "--M", "1", "--G", "1", "--p", "1.5",
                 "--C", "3", "--out", rates_csv]) == 0
    lines = [l for l in open(rates_csv) if not l.startswith("#")]
    assert lines[0].strip() == "t,n_t,family,slope"
    assert any("sgd" in l for l in lines[1:])

    sota_csv = str(tmp_path / "sota.csv")
    assert main(["compare-sota", "--epsilon", "1.0", "--B", "1", "--sigma", "1",
                 "--delta", "1", "--L", "1", "--C", "1", "--p", "1.5", "--out", sota_csv]) == 0
    lines = [l for l in open(sota_csv) if not l.startswith("#")]
    assert lines[0].strip() == "t,n_t,family,slope"


def test_single_run_yields_one_row(tmp_path):
    doc = preset_config("appendix-f")
    doc["ensemble"]["n_runs"] = 1
    doc["ensemble"]["horizon_T"] = 10
    doc["ensemble"]["t_grid"] = list(range(1, 10))
    doc["output"]["directory"] = str(tmp_path / "one")
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(cfg)]) == 0
    lines = [
        l for l in open(tmp_path / "one" / "trajsummary.csv") if not l.startswith("#")
    ]
    assert len(lines) == 2  # header + exactly one run


def test_env_var_output_root(tiny_config, tmp_path, monkeypatch):
    config_path, doc = tiny_config
    doc["output"]["directory"] = "rel/results"
    cfg = tmp_path / "rel.json"
    cfg.write_text(json.dumps(doc))
    root = tmp_path / "envroot"
    monkeypatch.setenv("LDPLAB_OUT", str(root))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (root / "rel" / "results" / "trajsummary.csv").exists()
