import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import ldplab
from ldplab import cli, montecarlo
from ldplab.cli import main
from ldplab.config import parse_config, preset_config
from ldplab.montecarlo import estimate_tail, run_ensemble
from ldplab.optimizers import MAX_HORIZON


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


def test_simulate_byte_identical_across_workers(tiny_config, tmp_path, monkeypatch):
    # chunks of 512 runs and 3 CPUs whatever the machine, so --workers 3 forks
    # three workers for the four chunks; every chunk leaves a mark named after
    # the process that ran it
    config_path, doc = tiny_config
    marks = tmp_path / "chunks"
    marks.mkdir()
    parent = os.getpid()
    simulate_runs = montecarlo.simulate_runs

    def marking_simulate_runs(config, run_indices, record_full=False):
        (marks / f"{os.getpid()}-{run_indices[0]}").touch()
        # a worker waits until a second worker has taken a chunk, so that the
        # chunks cannot all go to the first worker that starts
        deadline = time.monotonic() + 30.0
        while os.getpid() != parent and len(_chunk_pids(marks)) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        return simulate_runs(config, run_indices, record_full=record_full)

    monkeypatch.setattr(montecarlo, "ENSEMBLE_CHUNK", 512)
    monkeypatch.setattr(montecarlo, "simulate_runs", marking_simulate_runs)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["simulate", "--config", config_path, "--out", out1, "--workers", "1"]) == 0
    assert _chunk_pids(marks) == {str(parent)} and len(os.listdir(marks)) == 4
    for mark in marks.iterdir():
        mark.unlink()
    assert main(["simulate", "--config", config_path, "--out", out2, "--workers", "3"]) == 0
    pids = _chunk_pids(marks)
    assert len(os.listdir(marks)) == 4 and len(pids) >= 2 and str(parent) not in pids
    for name in ("trajsummary.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def _chunk_pids(marks) -> set:
    return {name.split("-")[0] for name in os.listdir(marks)}


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


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: meta["certified"].update(M=99),
        lambda meta: meta.update(certified={}),
        lambda meta: meta.update(tool="other-tool"),
    ],
    ids=["certified-M-changed", "certified-empty", "tool-changed"],
)
def test_manifest_field_not_the_simulated_one_is_io_error(edit, tiny_config, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    meta_path = os.path.join(out, "meta.json")
    meta = json.loads(open(meta_path).read())
    edit(meta)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 3
    assert main(["report", out]) == 3
    assert capsys.readouterr().err.count("corrupt run manifest") == 2
    assert not [name for name in os.listdir(out) if name.startswith("tail")]


def test_fit_insufficient_data_exit_code(tiny_config, tmp_path):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    # a 2-point grid cannot support a fit
    assert main(["tail", out, "--epsilon", "0.18", "--t-grid", "3:4"]) == 0
    assert main(["fit", os.path.join(out, "tail.csv"), "--candidates", "linear-t"]) == 4


# a tail CSV's rows as (t, epsilon, N, exceed); enough estimable points for a fit
_TAIL_ROWS = [(t, "0.18", "1000", c) for t, c in zip(range(1, 10), (900, 700, 500, 350, 250, 180, 120, 90, 60))]


_T_GRID_RULE = f"t_grid must be non-empty, strictly increasing and within [1, {MAX_HORIZON}]"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.insert(4, rows.pop(3)), _T_GRID_RULE),
        (lambda rows: rows.__setitem__(4, (4, *rows[4][1:])), _T_GRID_RULE),
        (lambda rows: rows.__setitem__(0, (-1, *rows[0][1:])), _T_GRID_RULE),
        (lambda rows: rows.__setitem__(2, (3, "0.18", "999", 500)), "rows differ in N: 999, 1000"),
        (lambda rows: rows.__setitem__(2, (3, "0.2", "1000", 500)), "rows differ in epsilon: 0.18, 0.2"),
        (lambda rows: rows.__setitem__(0, (1, "0.18", "1000", 1001)), "exceedance counts must lie in [0, N = 1000]"),
        (lambda rows: rows.__setitem__(8, (9, "0.18", "1000", -1)), "exceedance counts must lie in [0, N = 1000]"),
        (lambda rows: rows.__setitem__(slice(None), [(t, "nan", n, c) for t, _, n, c in rows]),
         "epsilon must be a finite number, got nan"),
        (lambda rows: rows.__setitem__(8, (99999999999999999999, *rows[8][1:])),
         "column 't': 99999999999999999999 does not fit in int64"),
        (lambda rows: rows.__setitem__(8, (-99999999999999999999, *rows[8][1:])),
         "column 't': -99999999999999999999 does not fit in int64"),
        (lambda rows: rows.__setitem__(slice(None), [(t, e, "99999999999999999999", c) for t, e, _, c in rows]),
         "column 'N': 99999999999999999999 does not fit in int64"),
        (lambda rows: rows.__setitem__(8, (9, "0.18", "1000", 99999999999999999999)),
         "column 'exceed': 99999999999999999999 does not fit in int64"),
    ],
    ids=["t-unsorted", "t-repeated", "t-negative", "N-differs", "epsilon-differs", "count-above-N",
         "count-negative", "epsilon-nan", "t-beyond-int64", "t-below-int64", "N-beyond-int64", "exceed-beyond-int64"],
)
def test_fit_rejects_a_malformed_tail_csv(edit, message, tmp_path, capsys):
    path = tmp_path / "tail.csv"

    def write(rows):
        lines = ["# tool=ldplab digest=0", "t,epsilon,N,exceed,p_hat"]
        lines += [f"{t},{eps},{n},{c},0.5" for t, eps, n, c in rows]
        path.write_text("\n".join(lines) + "\n")

    write(_TAIL_ROWS)
    assert main(["fit", str(path)]) == 0
    os.remove(tmp_path / "fit.csv")
    rows = list(_TAIL_ROWS)
    edit(rows)
    write(rows)
    capsys.readouterr()
    assert main(["fit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "fit.csv").exists()


def test_fit_reads_a_tail_csv_without_p_hat(tmp_path):
    # fit rebuilds p_hat from exceed and N, so the column may be absent
    fits = []
    for header, cell in (("t,epsilon,N,exceed,p_hat", ",0.5"), ("t,epsilon,N,exceed", "")):
        lines = ["# tool=ldplab digest=0", header] + [f"{t},{eps},{n},{c}{cell}" for t, eps, n, c in _TAIL_ROWS]
        (tmp_path / "tail.csv").write_text("\n".join(lines) + "\n")
        assert main(["fit", str(tmp_path / "tail.csv")]) == 0
        fits.append((tmp_path / "fit.csv").read_bytes())
    assert fits[0] == fits[1]


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
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "0:10"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "1:2"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "10:5"],
        ["compare-sota", "--epsilon", "1", "--B", "1", "--t-grid", "0:10"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "1,2"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "0,10"],
        ["compare-sota", "--epsilon", "1", "--B", "1", "--t-grid", "2"],
        ["compare-sota", "--epsilon", "1", "--B", "0"],
        ["compare-sota", "--epsilon", "1", "--C", "0", "--L", "1"],
        ["compare-sota", "--epsilon", "1", "--C", "1", "--L", "-1"],
        ["compare-sota", "--epsilon", "1", "--sigma", "1", "--delta", "0", "--L", "1", "--p", "1.5"],
        ["rates", "--epsilon", "-1", "--M", "1"],
        ["rates", "--epsilon", "0", "--p", "1.5"],
        ["compare-sota", "--epsilon", "-0.1", "--C", "1", "--L", "1"],
        ["compare-sota", "--epsilon", "nan", "--B", "1"],
        ["rates", "--epsilon", "1", "--M", "1", "--C", "3"],
        ["compare-sota", "--epsilon", "1", "--B", "1", "--L", "2", "--delta", "3"],
        ["compare-sota", "--epsilon", "1", "--B", "1", "--p", "1.5"],
        ["fit", "{R}/tail.csv", "--p", "1.5"],
        ["rates", "--epsilon", "1", "--M", "1e300"],
        ["rates", "--epsilon", "1", "--p", "1.5", "--G", "1e300"],
        ["compare-sota", "--epsilon", "1", "--B", "1e300"],
        ["compare-sota", "--epsilon", "1", "--B", "1e-300"],
        ["compare-sota", "--epsilon", "1", "--sigma", "1", "--delta", "1e-300", "--L", "1e-300", "--p", "1.5"],
        ["rates", "--epsilon", "1", "--M", "inf"],
        ["rates", "--epsilon", "1", "--M", "1e-300"],
        ["compare-sota", "--epsilon", "inf", "--B", "1"],
        ["rates", "--epsilon", "1e200", "--M", "1"],
        ["compare-sota", "--epsilon", "1", "--C", "1e-80", "--L", "1"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "3,99999999999999999999999"],
        ["tail", "{R}", "--epsilon", "0.09", "--t-grid", "3,100000000000000000000"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "3:1000000000000000000000000000000"],
        ["compare-sota", "--epsilon", "1", "--B", "1", "--t-grid", "3:1000000000000000000000000000000"],
        ["tail", "{R}", "--epsilon", "0.18", "--t-grid", "1:100000000000000000000"],
        ["tail", "{R}", "--epsilon", "0.18", "--t-grid", "5,3"],
        ["rates", "--epsilon", "1", "--M", "1", "--t-grid", "9,3,3"],
    ],
    ids=["tail-t-grid-below-1", "fit-unknown-family", "verify-too-few-samples",
         "rates-p-out-of-range", "rates-bad-t-grid", "rates-t-grid-from-0",
         "rates-t-grid-no-t-from-3", "rates-t-grid-reversed", "sota-t-grid-from-0",
         "rates-t-grid-list-no-t-from-3", "rates-t-grid-list-from-0",
         "sota-t-grid-list-no-t-from-3", "sota-B-zero", "sota-C-zero", "sota-L-negative",
         "sota-delta-zero", "rates-epsilon-negative", "rates-epsilon-zero",
         "sota-epsilon-negative", "sota-epsilon-nan", "rates-C-without-p",
         "sota-L-delta-complete-no-curve", "sota-p-completes-no-curve", "fit-p-without-power-over-log",
         "rates-M-overflows", "rates-G-overflows", "sota-B-overflows", "sota-B-underflows",
         "sota-delta-L-underflow", "rates-M-inf", "rates-M-underflows", "sota-epsilon-inf",
         "rates-slope-overflows", "sota-slope-overflows", "rates-t-grid-list-beyond-int64",
         "tail-t-grid-list-beyond-int64", "rates-t-grid-range-beyond-int64",
         "sota-t-grid-range-beyond-int64", "tail-t-grid-range-beyond-horizon",
         "tail-t-grid-list-unordered", "rates-t-grid-list-unordered-repeated"],
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
    if "--epsilon" in argv and not float(argv[argv.index("--epsilon") + 1]) > 0:
        assert err.startswith("error: --epsilon must be positive")
    if "--t-grid" in argv:
        assert err.startswith("error: --t-grid")
    assert not os.path.exists("rates.csv") and not os.path.exists("sota.csv")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_workers_below_one_exit_code(workers, tiny_config, monkeypatch, capsys):
    # rejected before any chunk runs, so no worker process is started
    def no_work(*args, **kwargs):
        raise AssertionError("no chunk may run and no process may start")

    monkeypatch.setattr(ldplab.montecarlo, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(ldplab.montecarlo, "_chunk_job", no_work)
    config_path, doc = tiny_config
    assert main(["simulate", "--config", config_path, "--workers", workers]) == 2
    assert capsys.readouterr().err == f"error: workers must be a positive integer, got {workers}\n"
    assert not os.path.exists(doc["output"]["directory"])


@pytest.mark.parametrize(
    "argv",
    [
        ["mgf-bounded", "--samples", "0"],
        ["batch-bound", "--samples", "-5"],
        ["all", "--samples", "0"],
        ["all", "--samples", "99999"],
    ],
    ids=["mgf-bounded-zero", "batch-bound-negative", "all-zero", "all-below-probe-floor"],
)
def test_verify_bad_samples_rejected_before_any_suite(argv, tmp_path, capsys):
    vdir = tmp_path / "verify"
    assert main(["verify", *argv, "--out", str(vdir)]) == 2
    captured = capsys.readouterr()
    assert "==" not in captured.out  # no suite header
    assert captured.err.startswith("error: --samples") and captured.err.count("\n") == 1
    assert not vdir.exists()


@pytest.mark.parametrize("t_max", ["1076", "0"])
def test_verify_bad_enum_t_max_rejected_before_any_suite(t_max, tmp_path, capsys):
    vdir = tmp_path / "verify"
    argv = ["mgf-bounded", "appendix-f-enum", "--samples", "10", "--enum-t-max", t_max]
    assert main(["verify", *argv, "--out", str(vdir)]) == 2
    captured = capsys.readouterr()
    assert "==" not in captured.out  # no suite header
    assert captured.err.startswith("error: --enum-t-max") and captured.err.count("\n") == 1
    assert not vdir.exists()


def test_verify_help_names_the_registry_suites(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "500")  # one help line: argparse wraps at hyphens
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--help"])
    assert exit_info.value.code == 0
    listed = re.search(r"one or more of (.*); or 'all'", capsys.readouterr().out)
    assert listed is not None
    assert tuple(listed.group(1).split(", ")) == ldplab.montecarlo.LEMMA_SUITES


def test_fit_help_names_every_decay_family(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "500")  # one help line: argparse wraps at hyphens
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--help"])
    assert exit_info.value.code == 0
    listed = re.search(r"comma list of (.*)$", capsys.readouterr().out, re.MULTILINE)
    assert listed is not None
    assert tuple(listed.group(1).strip().split(", ")) == ldplab.theory.DECAY_FAMILIES


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


@pytest.mark.parametrize(
    "argv",
    [["rates", "--M", "1"], ["compare-sota", "--B", "1"]],
    ids=["rates", "compare-sota"],
)
def test_curve_t_grid_forms_share_the_t_from_3_rule(argv, tmp_path):
    # a comma list and a range keep the same steps: only t >= 3
    rows = {}
    for spec in ("2,10", "2:10"):
        out = str(tmp_path / f"{spec.replace(':', '-')}.csv")
        assert main([*argv, "--epsilon", "1", "--t-grid", spec, "--out", out]) == 0
        rows[spec] = list(csv.reader(l for l in open(out) if not l.startswith("#")))[1:]
    assert [r[0] for r in rows["2,10"]] == ["10"]
    assert all(int(r[0]) >= 3 for r in rows["2:10"]) and rows["2:10"][-1] == rows["2,10"][-1]


def test_cli_tail_equals_library_estimate(tiny_config):
    # simulate -> tail through the CLI, and run_ensemble -> estimate_tail in
    # the library, give bitwise the same tail, also when read back for a fit
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    assert main(["tail", out, "--epsilon", "0.18", "--t-grid", "2:9", "--no-svg"]) == 0
    exp = parse_config(doc)
    lib = estimate_tail(run_ensemble(exp.run_config, exp.n_runs), 0.18, np.arange(2, 10))
    tail_csv = os.path.join(out, "tail.csv")
    _, read_back = cli._tail_from_csv(tail_csv)
    _, header, body = cli._read_csv(tail_csv, dtype=np.float64)
    written = dict(zip(header, body.T))
    assert (read_back.n_runs, read_back.epsilon) == (lib.n_runs, lib.epsilon)
    for name, column in [("t_grid", "t"), ("exceed_count", "exceed"), ("p_hat", "p_hat"),
                         ("ci_low", "ci_low"), ("ci_high", "ci_high")]:
        want = getattr(lib, name)
        got = getattr(read_back, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert written[column].tobytes() == want.astype(np.float64).tobytes(), column


def test_load_results_returns_the_simulated_arrays(tiny_config):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    meta, exp, arrays = cli._load_results(out)
    want = run_ensemble(exp.run_config, exp.n_runs)
    assert meta["n_runs"] == arrays.n_runs == want.n_runs == 2048
    assert arrays.horizon_T == want.horizon_T == 10
    assert arrays.epsilon_grid.tobytes() == want.epsilon_grid.tobytes()
    assert np.any(want.hit == 11) and np.any(want.hit <= 10)  # both codes are exercised
    for name in ldplab.EnsembleArrays.PER_RUN:
        got, expected = getattr(arrays, name), getattr(want, name)
        if expected is None:
            assert got is None, name
        else:
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_tail_epsilon_near_a_recorded_one_writes_the_recorded_value(tiny_config):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    assert main(["tail", out, "--epsilon", "0.18000000000000002", "--no-svg"]) == 0
    rows = list(csv.reader(l for l in open(os.path.join(out, "tail.csv")) if not l.startswith("#")))
    assert {r[rows[0].index("epsilon")] for r in rows[1:]} == {"0.18"}


def test_tail_draws_no_overlay_for_an_infinite_rate(tmp_path):
    # M = 1e-160 gives a positive subnormal 24 M^2 G^2, so I(0.02) is +inf
    doc = preset_config("sgd-bounded")
    doc["ensemble"].update(n_runs=64, horizon_T=40)
    doc["oracle"]["noise"]["radius"] = 1e-160
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(config_path), "--out", out]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning either
        assert main(["tail", out, "--epsilon", "0.02"]) == 0
    svg = open(os.path.join(out, "tail.svg")).read()
    assert "sgd bound shape" not in svg and "liu-sgd shape" in svg


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


def _summary_lines(out):
    with open(os.path.join(out, "trajsummary.csv"), encoding="utf-8") as fh:
        return fh.readlines()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:10] + [lines[10].rsplit(",", 1)[0] + "\n"] + lines[11:],
        lambda lines: lines[: len(lines) // 2],
        lambda lines: lines[:10] + [lines[10].replace(",", ",x", 1)] + lines[11:],
        lambda lines: [lines[0], lines[1].replace("hit_0.18", "hit_0.5")] + lines[2:],
        lambda lines: [lines[0], lines[1].replace("hit_0.09,hit_0.18", "hit_0.18,hit_0.09")] + lines[2:],
        lambda lines: [lines[0], lines[1].replace("hit_0.18", "hit_0.18000000000000002")] + lines[2:],
        lambda lines: lines[:10] + [lines[10].rsplit(",", 2)[0] + ",12,12\n"] + lines[11:],
        lambda lines: lines[:10] + [lines[10].rsplit(",", 2)[0] + ",2,3\n"] + lines[11:],
        # a diverged run never hits, so only the cell itself is wrong
        lambda lines: lines[:10] + [re.sub(r"^(\d+),\d+,(\d+),.*", r"\1,2,\2,-1,-1", lines[10])] + lines[11:],
        lambda lines: lines[:10] + [lines[10].rsplit(",", 2)[0] + ",11,11\n"] + lines[11:],
        lambda lines: lines[:7] + [re.sub(r"^\d+,", "7,", lines[7])] + lines[8:],  # row 5
    ],
    ids=["truncated-row", "cut-off-file", "non-integer-cell", "hit-header-not-the-grid",
         "hit-headers-swapped", "hit-header-near-the-grid", "hit-after-horizon", "larger-epsilon-hit-later",
         "diverged-cell-two", "hit-raw-horizon-plus-one", "run-index-not-in-order"],
)
def test_corrupt_trajsummary_is_io_error(corrupt, tiny_config, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    lines = corrupt(_summary_lines(out))
    with open(os.path.join(out, "trajsummary.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 3
    assert main(["report", out]) == 3
    err = capsys.readouterr().err
    assert err.count("corrupt trajsummary") == 2


@pytest.mark.parametrize("failing_replace", [1, 2], ids=["summary-replace-fails", "manifest-replace-fails"])
def test_interrupted_simulate_never_mixes_results(failing_replace, tiny_config, tmp_path, monkeypatch, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    names = ("meta.json", "trajsummary.csv")
    old = {name: open(os.path.join(out, name), "rb").read() for name in names}
    doc["ensemble"]["seed"] += 1
    config2 = tmp_path / "config2.json"
    config2.write_text(json.dumps(doc))

    real_replace, targets = os.replace, []

    def replace(src, dst):
        targets.append(os.path.basename(dst))
        if len(targets) == failing_replace:
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["simulate", "--config", str(config2), "--force"]) == 3
    monkeypatch.undo()
    assert targets == ["trajsummary.csv", "meta.json"][:failing_replace]
    assert sorted(os.listdir(out)) == sorted(names)  # no temp file left behind
    assert open(os.path.join(out, "meta.json"), "rb").read() == old["meta.json"]
    capsys.readouterr()
    if failing_replace == 1:  # nothing replaced: the old results load
        assert open(os.path.join(out, "trajsummary.csv"), "rb").read() == old["trajsummary.csv"]
        assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 0
    else:  # a new summary beside the old manifest is refused
        assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 3
        assert "corrupt trajsummary" in capsys.readouterr().err


def test_interrupted_report_leaves_no_partial_file(tiny_config, monkeypatch, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    real_replace, targets = os.replace, []

    def replace(src, dst):
        targets.append(os.path.basename(dst))
        if len(targets) == 2:
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["report", out]) == 3
    monkeypatch.undo()
    assert targets == ["tail_eps0.csv", "tail_eps1.csv"]
    # the first file is whole, the second and report.txt were never placed
    assert sorted(os.listdir(out)) == ["meta.json", "tail_eps0.csv", "trajsummary.csv"]
    with open(os.path.join(out, "tail_eps0.csv"), "rb") as fh:
        first = fh.read()
    assert main(["report", out]) == 0
    with open(os.path.join(out, "tail_eps0.csv"), "rb") as fh:
        assert fh.read() == first


def test_block_writer_matches_row_writer_and_reader(tmp_path):
    rng = np.random.default_rng(3)
    n = (1 << 16) + 5  # a full block of rows and a short one
    run_index = np.arange(n, dtype=np.int64)
    diverged = rng.random(n) < 0.1
    clip_events = rng.integers(0, 50, n)
    hits = rng.integers(1, 17, (n, 2)).astype(np.int32)
    hits[rng.random((n, 2)) < 0.3] = -1
    hits[diverged] = -1
    comment = "tool=ldplab digest=0123456789abcdef M=0.6"
    header = ["run_index", "diverged", "clip_events", "hit_0.18", "hit_0.5"]

    block_path = tmp_path / "block.csv"
    cli._write_csv(str(block_path), comment, header, columns=[run_index, diverged, clip_events, *hits.T])
    # reference: one csv.writer row per run, as the summary was first written
    row_path = tmp_path / "rows.csv"
    with open(row_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(n):
            writer.writerow(
                [int(run_index[i]), "1" if diverged[i] else "0", int(clip_events[i])] + [int(h) for h in hits[i]]
            )
    assert block_path.read_bytes() == row_path.read_bytes()

    meta, got_header, body = cli._read_csv(str(block_path))
    assert meta == {"tool": "ldplab", "digest": "0123456789abcdef", "M": "0.6"}
    assert got_header == header
    assert body.dtype == np.int64
    np.testing.assert_array_equal(body, np.column_stack([run_index, diverged, clip_events, hits]))


def test_commands_run_without_scipy(tiny_config):
    # numpy is the one runtime dependency: no command may load scipy
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    commands = [
        ["simulate", "--config", config_path],
        ["tail", out, "--epsilon", "0.18"],
        ["report", out],
        ["fit", os.path.join(out, "tail.csv")],
    ]
    code = (
        "import sys\n"
        "from ldplab.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
