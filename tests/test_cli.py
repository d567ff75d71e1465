import csv
import dataclasses
import json
import os
import re
import signal
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
    # chunks of at most 342 runs and 3 CPUs whatever the machine, so both runs
    # cut the 2048 runs into six chunks, and --workers 3 forks three workers
    # for them; every chunk leaves a mark named after the process that ran it
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

    monkeypatch.setattr(montecarlo, "ENSEMBLE_CHUNK", 342)
    monkeypatch.setattr(montecarlo, "simulate_runs", marking_simulate_runs)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 3)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["simulate", "--config", config_path, "--out", out1, "--workers", "1"]) == 0
    assert _chunk_pids(marks) == {str(parent)} and len(os.listdir(marks)) == 6
    for mark in marks.iterdir():
        mark.unlink()
    assert main(["simulate", "--config", config_path, "--out", out2, "--workers", "3"]) == 0
    pids = _chunk_pids(marks)
    assert len(os.listdir(marks)) == 6 and len(pids) >= 2 and str(parent) not in pids
    for name in ("trajsummary.csv", "steps.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_byte_budget_chunks_write_the_bytes_of_one_chunk(tmp_path, monkeypatch, capsys):
    # 1024 csgd-pareto runs over T = 400 pre-draw 12.5 MiB: one chunk at the
    # default budget and --workers 1; under a 1 MiB budget 13 chunks fit,
    # and --workers 2 forks two workers for 14
    doc = preset_config("csgd-pareto")
    doc["ensemble"]["n_runs"] = 1024
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "one"), "--workers", "1"]) == 0
    assert "chunks=1, predraw_mib_per_chunk=12.5)" in capsys.readouterr().out
    monkeypatch.setattr(montecarlo, "CHUNK_PREDRAW_BYTES", 1 << 20)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "many"), "--workers", "2"]) == 0
    assert "chunks=14, predraw_mib_per_chunk=0.9)" in capsys.readouterr().out
    for name in ("trajsummary.csv", "steps.csv", "meta.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes(), name


def _chunk_pids(marks) -> set:
    return {name.split("-")[0] for name in os.listdir(marks)}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_summary_write_cancels_the_chunks_not_started(workers, tiny_config, tmp_path, monkeypatch, capsys):
    # 16 chunks; the first chunk's write fails, so at most the chunks already
    # in flight (two per worker plus one) run, not the whole ensemble
    config_path, doc = tiny_config
    marks = tmp_path / "chunks"
    marks.mkdir()
    simulate_runs = montecarlo.simulate_runs

    def marking_simulate_runs(config, run_indices, record_full=False):
        (marks / f"{os.getpid()}-{run_indices[0]}").touch()
        return simulate_runs(config, run_indices, record_full=record_full)

    def failing_rows(arrays):
        raise OSError("no space left on device")

    monkeypatch.setattr(montecarlo, "ENSEMBLE_CHUNK", 128)
    monkeypatch.setattr(montecarlo, "simulate_runs", marking_simulate_runs)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_summary_rows", failing_rows)
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path, "--workers", workers]) == 3
    assert "no space left on device" in capsys.readouterr().err
    assert 1 <= len(os.listdir(marks)) <= 2 * int(workers) + 1
    assert not os.path.exists(out)  # no summary, temporary file or manifest, nor the directory it made


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


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json}")
    assert main(["simulate", "--config", str(bad)]) == 2
    # a document that is not an object is the same error with or without --seed
    for document in (5, "ensemble", None):
        bad.write_text(json.dumps(document))
        for seed in ([], ["--seed", "3"]):
            capsys.readouterr()
            assert main(["simulate", "--config", str(bad), *seed]) == 2
            assert capsys.readouterr().err == "error: $: expected an object\n"
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


def test_non_utf8_manifest_is_io_error_naming_it(tiny_config, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    meta_path = os.path.join(out, "meta.json")
    with open(meta_path, "wb") as fh:
        fh.write(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 3
    assert main(["report", out]) == 3
    assert main(["simulate", "--config", config_path]) == 3  # the old manifest is read without --force
    err = capsys.readouterr().err
    assert err.count(f"{meta_path}: corrupt run manifest") == 3, err
    assert main(["simulate", "--config", config_path, "--force"]) == 0


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
    # every job of a verify request runs through _verify_job, in this process or a worker
    def failing_job(job):
        return [montecarlo.LemmaCheck("forced", 2.0, 1.0, 0.0, False)]

    monkeypatch.setattr(montecarlo, "_verify_job", failing_job)
    assert main(["verify", "mgf-bounded", "--samples", "1000"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["tail", "{R}", "--epsilon", "0.18", "--t-grid", "0:99"],
        ["fit", "{R}/tail.csv", "--candidates", "bogus"],
        ["fit", "{R}/tail.csv", "--candidates", ""],
        ["fit", "{R}/tail.csv", "--candidates", "sqrt-t,linear-t,sqrt-t"],
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
    ids=["tail-t-grid-below-1", "fit-unknown-family", "fit-no-family", "fit-repeated-family",
         "verify-too-few-samples",
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
    if "--candidates" in argv:
        assert err.startswith("error: --candidates: ")
        assert not os.path.exists(os.path.join(out, "fit.csv"))
    assert not os.path.exists("rates.csv") and not os.path.exists("sota.csv")


@pytest.mark.parametrize(
    "p, message", [("3", "expected --p in (1, 2], got 3.0"), ("nan", "--p must be a finite number, got nan")]
)
def test_fit_bad_moment_order_names_p(p, message, tmp_path, capsys):
    # a bad --p is blamed on --p, not on the family list, before the tail is read
    argv = ["fit", str(tmp_path / "tail.csv"), "--candidates", "power-over-log", "--p", p]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_workers_below_one_exit_code(workers, tiny_config, monkeypatch, capsys):
    # rejected before any chunk runs, so no worker process is started
    def no_work(*args, **kwargs):
        raise AssertionError("no chunk may run and no process may start")

    monkeypatch.setattr(ldplab.montecarlo, "_forked_map", no_work)
    monkeypatch.setattr(ldplab.montecarlo, "_chunk_job", no_work)
    config_path, doc = tiny_config
    assert main(["simulate", "--config", config_path, "--workers", workers]) == 2
    assert capsys.readouterr().err == f"error: workers must be an integer >= 1, got {workers}\n"
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


def test_verify_repeated_suite_rejected_before_any_suite(tmp_path, capsys):
    # each suite of a request runs once, so a repeated one is an error, not a second report
    vdir = tmp_path / "verify"
    assert main(["verify", "rates", "rates", "--out", str(vdir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no suite header
    assert captured.err == "error: suite 'rates' is requested twice\n"
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


def test_verify_request_too_large_for_memory_is_exit_2(tmp_path, capsys):
    # 10^15 samples need petabytes, which no machine can allocate
    argv = ["verify", "mgf-bounded", "--samples", str(10**15), "--out", str(tmp_path / "verify")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: not enough memory for 'verify mgf-bounded --samples {10**15} --out ")
    assert err.count("\n") == 1
    assert not (tmp_path / "verify").exists()


def test_verify_request_too_large_for_memory_in_a_worker_is_exit_2(tmp_path, monkeypatch, capsys):
    # verify all runs its jobs on two forked workers; the MemoryError of the
    # first job is raised in a worker and reported like one raised here
    started, forked_map = [], montecarlo._forked_map

    def recording_map(fn, jobs, processes):
        started.append(processes)
        return forked_map(fn, jobs, processes)

    monkeypatch.setattr(montecarlo, "_forked_map", recording_map)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    argv = ["verify", "all", "--samples", str(10**15), "--out", str(tmp_path / "verify")]
    assert main(argv) == 2
    assert started == [2]
    err = capsys.readouterr().err
    assert err.startswith(f"error: not enough memory for 'verify all --samples {10**15} --out ")
    assert err.count("\n") == 1
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_verify_out_that_cannot_be_a_directory_fails_before_any_suite(under, tmp_path, capsys):
    # --out is made before any suite runs, so a file in its way costs no suite's time
    blocker = tmp_path / "verify"
    blocker.write_text("a file")
    assert main(["verify", "rates", "--out", os.path.join(blocker, under)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # no suite header
    assert captured.err.startswith("io error: ") and captured.err.count("\n") == 1
    assert blocker.read_text() == "a file"
    assert list(tmp_path.rglob("verify.csv")) == []


def test_failed_verify_removes_the_directories_it_made(tmp_path, capsys):
    # --out and its missing parent are made before the suites run, and
    # removed again when a suite fails, as a request too large for memory does
    out = tmp_path / "new" / "verify"
    assert main(["verify", "mgf-bounded", "--samples", str(10**15), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: not enough memory")
    assert os.listdir(tmp_path) == []


def test_failed_simulate_removes_the_directories_it_made(tiny_config, tmp_path, monkeypatch, capsys):
    # a chunk that fails leaves none of the directories simulate made, and
    # leaves the complete results of an earlier simulate as they were
    def failing_chunk(job):
        raise OSError("a chunk failed")

    config_path, doc = tiny_config
    out = tmp_path / "new" / "sub"
    monkeypatch.setattr(montecarlo, "_chunk_job", failing_chunk)
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 3
    assert not (tmp_path / "new").exists()
    monkeypatch.undo()
    results = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    old = {name: open(os.path.join(results, name), "rb").read() for name in os.listdir(results)}
    monkeypatch.setattr(montecarlo, "_chunk_job", failing_chunk)
    assert main(["simulate", "--config", config_path, "--force"]) == 3
    assert {name: open(os.path.join(results, name), "rb").read() for name in os.listdir(results)} == old
    assert capsys.readouterr().err.count("io error: a chunk failed") == 2


@pytest.mark.parametrize("suite", ["rates", "appendix-f-enum"])
def test_one_job_verify_starts_no_process(suite, tmp_path, monkeypatch):
    # a request of one job runs in this process, whatever the CPUs
    def no_pool(*args, **kwargs):
        raise AssertionError("no process may start")

    monkeypatch.setattr(montecarlo, "_forked_map", no_pool)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    assert main(["verify", suite, "--out", str(tmp_path)]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
def test_one_cpu_affinity_keeps_every_pool_serial():
    # under an affinity mask of one CPU, as taskset -c 0 sets, neither the
    # chunk plan nor verify's pool starts a worker, whatever os.cpu_count() is
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from ldplab import montecarlo\n"
        "from ldplab.cli import main\n"
        "from ldplab.config import parse_config, preset_config\n"
        "def no_pool(*args, **kwargs):\n"
        "    raise AssertionError('no process may start')\n"
        "montecarlo._forked_map = no_pool\n"
        "assert montecarlo.usable_cpus() == 1\n"
        "montecarlo.ENSEMBLE_CHUNK = 2\n"
        "rc = parse_config(preset_config('appendix-f')).run_config\n"
        "assert len(list(montecarlo.ensemble_chunks(rc, 8, 2))) == 4  # four chunks, run here\n"
        "sys.exit(main(['verify', 'mgf-bounded', 'rates', '--samples', '1000']))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    # tail and report read steps.csv: the per-step table of the simulated runs
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    meta, exp, table = cli._load_results(out)
    want = run_ensemble(exp.run_config, exp.n_runs)
    assert meta["n_runs"] == exp.n_runs == want.n_runs == 2048
    assert np.any(want.hit == 11) and np.any(want.hit <= 10)  # runs that never hit are in no column
    expected = want.step_table()
    assert expected.shape == (10, 4) and expected[:, 2:].sum() < 2 * 2048
    assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()


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


def _lines(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return fh.readlines()


def _rewrite(out, name, lines):
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


def _edit_cell(lines, t, column, change):
    """steps.csv's lines with the cell of step t in ``column`` (0 is t) replaced by change(cell)."""
    cells = lines[t + 1].rstrip("\n").split(",")
    cells[column] = str(change(int(cells[column])))
    return lines[: t + 1] + [",".join(cells) + "\n"] + lines[t + 2 :]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: [lines[0].replace("digest=", "digest=0")] + lines[1:],
        lambda lines: lines[1:],
    ],
    ids=["digest-not-the-manifests", "no-provenance-line"],
)
def test_corrupt_trajsummary_is_io_error(corrupt, tiny_config, capsys):
    # of the summary, tail and report read the provenance line only
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    _rewrite(out, "trajsummary.csv", corrupt(_lines(out, "trajsummary.csv")))
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 3
    assert main(["report", out]) == 3
    err = capsys.readouterr().err
    assert err.count("corrupt trajsummary: digest") == 2 and "Traceback" not in err


@pytest.fixture
def clipped_config(tmp_path):
    """A clipped-SGD config of 256 runs over T = 40 whose updates are clipped up to t = 39."""
    doc = preset_config("csgd-pareto")
    doc["ensemble"].update(n_runs=256, horizon_T=40)
    doc["output"]["directory"] = str(tmp_path / "clipped")
    path = tmp_path / "clipped.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


# In tiny_config's table (vanilla, 2048 runs, T = 10) the first hits of 0.09
# and 0.18 sum to 2015 and 2046, and the first-hit columns are 3 and 4;
# clipped_config's is clipped (column 2) at t = 39.
@pytest.mark.parametrize(
    "results, corrupt, message",
    [
        ("tiny", lambda lines: [lines[0], lines[1].replace("first_hit_0.18", "first_hit_0.5")] + lines[2:], "header"),
        ("tiny", lambda lines: [lines[0], lines[1].replace("first_hit_0.09,first_hit_0.18",
                                                           "first_hit_0.18,first_hit_0.09")] + lines[2:], "header"),
        ("tiny", lambda lines: [lines[0], lines[1].replace("first_hit_0.18", "first_hit_0.18000000000000002")]
         + lines[2:], "header"),
        ("tiny", lambda lines: lines[: len(lines) // 2], "the t column is not 1..10"),
        ("tiny", lambda lines: lines + ["11,0,0,0,1\n"], "the t column is not 1..10"),
        ("tiny", lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:], "the t column is not 1..10"),
        ("tiny", lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0] + "\n"] + lines[6:], "columns"),
        ("tiny", lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:], "corrupt step table"),
        ("tiny", lambda lines: _edit_cell(lines, 5, 4, lambda c: 99999999999999999999), "corrupt step table"),
        ("clipped", lambda lines: _edit_cell(lines, 5, 2, lambda c: -5), "a count is negative"),
        ("clipped", lambda lines: _edit_cell(lines, 5, 2, lambda c: 257), "a count is above n_runs = 256"),
        ("tiny", lambda lines: _edit_cell(lines, 10, 4, lambda c: c + 3), "first hits sum above n_runs = 2048"),
        ("tiny", lambda lines: _edit_cell(lines, 3, 1, lambda c: 3), "first hits sum above n_runs = 2048"),
        ("tiny", lambda lines: _edit_cell(_edit_cell(lines, 2, 3, lambda c: c + 1), 3, 3, lambda c: c - 1),
         "a larger epsilon has fewer hits than a smaller one by some t"),
        ("clipped", lambda lines: _edit_cell(lines, 40, 2, lambda c: 1), "an update is clipped at t = 40"),
        ("tiny", lambda lines: [lines[0].replace("digest=", "digest=0")] + lines[1:], "corrupt step table: digest"),
        ("tiny", lambda lines: _edit_cell(lines, 3, 1, lambda c: 1), "diverged_runs is 0, not 1"),
    ],
    ids=["hit-header-not-the-grid", "hit-headers-swapped", "hit-header-near-the-grid", "cut-off-file",
         "row-after-horizon", "t-not-in-order", "truncated-row", "non-integer-cell", "cell-beyond-int64",
         "clipped-count-negative", "clipped-count-above-n", "first-hit-column-above-n",
         "diverged-and-hits-above-n", "larger-epsilon-hit-later", "clipped-at-horizon",
         "digest-not-the-manifests", "diverged-not-the-manifests"],
)
def test_corrupt_step_table_is_io_error(results, corrupt, message, tiny_config, clipped_config, capsys):
    config_path, doc = tiny_config if results == "tiny" else clipped_config
    out = doc["output"]["directory"]
    epsilon = str(doc["ensemble"]["epsilon_grid"][-1])
    assert main(["simulate", "--config", config_path]) == 0
    assert main(["tail", out, "--epsilon", epsilon, "--no-svg"]) == 0  # the table as written loads
    _rewrite(out, "steps.csv", corrupt(_lines(out, "steps.csv")))
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", epsilon, "--no-svg"]) == 3
    assert main(["report", out]) == 3
    err = capsys.readouterr().err
    assert err.count(message) == 2 and err.count("io error: ") == 2 and "Traceback" not in err


def test_clip_count_without_a_clip_schedule_is_io_error(tmp_path, capsys):
    doc = preset_config("sgd-bounded")  # vanilla SGD: every clipped count is 0
    doc["ensemble"].update(n_runs=64, horizon_T=40)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(config_path), "--out", out]) == 0
    assert main(["tail", out, "--epsilon", "0.02", "--no-svg"]) == 0
    _rewrite(out, "steps.csv", _edit_cell(_lines(out, "steps.csv"), 5, 2, lambda c: 1))
    capsys.readouterr()
    assert main(["tail", out, "--epsilon", "0.02", "--no-svg"]) == 3
    assert "corrupt step table: a clipped count is not 0, and the config clips nothing" in capsys.readouterr().err


def test_tail_and_report_do_not_read_the_summary_body(tiny_config):
    # a summary cut down to its comment and header gives the same outputs
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    outputs = []
    for cut in (False, True):
        if cut:
            _rewrite(out, "trajsummary.csv", _lines(out, "trajsummary.csv")[:2])
        assert main(["tail", out, "--epsilon", "0.09"]) == 0
        assert main(["report", out]) == 0
        names = ["tail.csv", "tail.svg", "tail_eps0.csv", "tail_eps1.csv", "report.txt"]
        outputs.append({name: open(os.path.join(out, name), "rb").read() for name in names})
    assert outputs[0] == outputs[1]


def _diverging_doc():
    """Vanilla SGD under Pareto noise of tail index 1.05: 405 of the first 2048 runs diverge by T = 200."""
    doc = preset_config("csgd-pareto")
    doc["method"] = {"kind": "vanilla", "step": {"kind": "sgd-sqrt", "a": 1.0}}
    doc["oracle"]["noise"].update(x_m=1e7, tail_index=1.05, moment_order=1.02)
    doc["ensemble"]["horizon_T"] = 200
    return doc


@pytest.mark.parametrize(
    "make_doc, n_runs",
    [(lambda: preset_config("appendix-f"), 4096), (lambda: preset_config("csgd-pareto"), 1024), (_diverging_doc, 2048)],
    ids=["appendix-f", "csgd-pareto", "diverging"],
)
def test_step_table_is_worker_invariant_and_agrees_with_the_runs(make_doc, n_runs, tmp_path, monkeypatch):
    # chunks of 384 runs, forked to two workers with --workers 2
    monkeypatch.setattr(montecarlo, "ENSEMBLE_CHUNK", 384)
    monkeypatch.setattr(montecarlo, "usable_cpus", lambda: 2)
    doc = make_doc()
    doc["ensemble"]["n_runs"] = n_runs
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(["simulate", "--config", str(config_path), "--out", str(out), "--workers", workers]) == 0
        tables.append((out / "steps.csv").read_bytes())
    assert tables[0] == tables[1]

    out = str(tmp_path / "2")
    meta, exp, table = cli._load_results(out)
    _, _, summary = cli._read_csv(os.path.join(out, "trajsummary.csv"))
    assert table[:, 0].sum() == summary[:, 1].sum() == meta["diverged_runs"]
    assert table[:, 1].sum() == summary[:, 2].sum()
    arrays = run_ensemble(exp.run_config, n_runs)
    for j, eps in enumerate(exp.run_config.epsilon_grid):
        got = montecarlo.tail_from_first_hits(table[:, 2 + j], n_runs, float(eps))
        want = estimate_tail(arrays, eps)
        for name in ("t_grid", "exceed_count", "p_hat", "ci_low", "ci_high"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (eps, name)


def test_diverged_runs_pinned(tmp_path):
    # a count tied to today's draws, apart from the worker-invariance check
    # above, so that -k "not pinned" keeps that check when the draws change
    doc = _diverging_doc()
    doc["ensemble"]["n_runs"] = 2048
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert cli._load_results(str(out))[0]["diverged_runs"] == 405


@pytest.mark.parametrize(
    "failing_replace", [1, 2, 3], ids=["summary-replace-fails", "table-replace-fails", "manifest-replace-fails"]
)
def test_interrupted_simulate_never_mixes_results(failing_replace, tiny_config, tmp_path, monkeypatch, capsys):
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    assert main(["simulate", "--config", config_path]) == 0
    names = ("meta.json", "steps.csv", "trajsummary.csv")
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
    assert targets == ["trajsummary.csv", "steps.csv", "meta.json"][:failing_replace]
    assert sorted(os.listdir(out)) == sorted(names)  # no temp file left behind
    assert open(os.path.join(out, "meta.json"), "rb").read() == old["meta.json"]
    capsys.readouterr()
    if failing_replace == 1:  # nothing replaced: the old results load
        for name in names:
            assert open(os.path.join(out, name), "rb").read() == old[name], name
        assert main(["tail", out, "--epsilon", "0.18", "--no-svg"]) == 0
    else:  # a new summary, and a new table or not, beside the old manifest is refused
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
    assert sorted(os.listdir(out)) == ["meta.json", "steps.csv", "tail_eps0.csv", "trajsummary.csv"]
    with open(os.path.join(out, "tail_eps0.csv"), "rb") as fh:
        first = fh.read()
    assert main(["report", out]) == 0
    with open(os.path.join(out, "tail_eps0.csv"), "rb") as fh:
        assert fh.read() == first


@pytest.mark.parametrize("counts", ["distinct", "equal", "mixed"])
def test_tail_rows_per_distinct_count_equal_one_repr_per_cell(counts):
    n, rng = 4096, np.random.default_rng(5)
    t_grid = np.arange(1, 4001)
    if counts == "distinct":
        t_grid = t_grid[:n]
        exceed = n - t_grid
    elif counts == "equal":
        exceed = np.full(t_grid.size, 17)
    else:
        t_grid = np.sort(rng.choice(t_grid, 1500, replace=False))
        exceed = np.sort(rng.integers(0, n + 1, t_grid.size))[::-1]
    tail = montecarlo.tail_from_counts(t_grid, exceed, n, 0.05)
    want = "".join(
        f"{int(t)},{float(tail.epsilon)!r},{n},{int(c)},{float(p)!r},{float(lo)!r},{float(hi)!r}\n"
        for t, c, p, lo, hi in zip(tail.t_grid, tail.exceed_count, tail.p_hat, tail.ci_low, tail.ci_high)
    )
    assert cli._tail_lines(tail) == want
    distinct = len(np.unique(exceed))
    assert {"distinct": distinct == exceed.size, "equal": distinct == 1, "mixed": 1 < distinct < exceed.size}[counts]


def test_chunk_rows_match_row_writer_and_reader(tmp_path):
    # simulate writes the summary's head, then each chunk's rows as it arrives
    rng = np.random.default_rng(3)
    n, T = 3000, 16
    diverged = rng.random(n) < 0.1
    hits = rng.integers(1, T + 1, (n, 2)).astype(np.int32)
    hits[rng.random((n, 2)) < 0.3] = T + 1
    hits[diverged] = T + 1
    whole = ldplab.EnsembleArrays(
        run_indices=np.arange(n),
        epsilon_grid=np.array([0.18, 0.5]),
        horizon_T=T,
        diverged=diverged,
        clip_events=rng.integers(0, T, n),
        hit=hits,
        diverged_steps=np.zeros(T, dtype=np.int64),
        clipped_steps=np.zeros(T, dtype=np.int64),
    )
    rows = ("run_indices", "diverged", "clip_events", "hit")
    chunks = [
        dataclasses.replace(whole, **{name: getattr(whole, name)[lo:hi] for name in rows})
        for lo, hi in ((0, 1024), (1024, 2048), (2048, n))
    ]
    comment = "tool=ldplab digest=0123456789abcdef M=0.6"
    header = ["run_index", "diverged", "clip_events", "hit_0.18", "hit_0.5"]

    chunk_path = tmp_path / "chunks.csv"
    with open(chunk_path, "w", encoding="utf-8", newline="") as fh:
        cli._write_head(fh, comment, header)
        for part in chunks:
            fh.write(cli._summary_rows(part))
    # reference: one csv.writer row per run, as the summary was first written
    row_path = tmp_path / "rows.csv"
    with open(row_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(n):
            writer.writerow(
                [i, "1" if diverged[i] else "0", int(whole.clip_events[i])] + [-1 if h > T else int(h) for h in hits[i]]
            )
    assert chunk_path.read_bytes() == row_path.read_bytes()

    meta, got_header, body = cli._read_csv(str(chunk_path), np.int32)
    assert meta == {"tool": "ldplab", "digest": "0123456789abcdef", "M": "0.6"}
    assert got_header == header
    assert body.dtype == np.int32
    np.testing.assert_array_equal(
        body, np.column_stack([np.arange(n), diverged, whole.clip_events, np.where(hits > T, -1, hits)])
    )


# Starts argv[1:] and prints its exit code and ru_maxrss from os.wait4.  The
# kernel counts in a process's ru_maxrss the resident set of the process that
# started it, as it was at exec, so simulate is started from this small
# launcher, not from the test process, whose resident set grows with the suite.
_PEAK_RSS_LAUNCHER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


def _peak_rss_mib(argv) -> float:
    """The peak resident set, in MiB, of ``ldplab <argv>`` run to exit 0 in a
    fresh interpreter; measured by _PEAK_RSS_LAUNCHER, so the test process's
    own high-water mark does not count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    cli_main = "import sys; from ldplab.cli import main; sys.exit(main())"
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-c", cli_main, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    code, maxrss_kib = map(int, run.stdout.split())
    assert code == 0, run.stderr
    return maxrss_kib / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_simulate_peak_memory_is_bounded_in_the_run_count(tmp_path):
    # simulate holds one chunk of at most 2^14 runs at a time, so 16 times as
    # many runs on one worker add less than 7 MiB to its peak resident set.
    # About 4 MiB of that is paid once, from the second chunk on: glibc raises
    # its mmap threshold when the first chunk's arrays are freed, and later
    # chunks come from the heap.  Holding every chunk's summaries would add
    # about 12 MiB here.
    peak_mib = {}
    for n_runs in (2**14, 2**18):
        doc = preset_config("appendix-f")
        doc["ensemble"]["n_runs"] = n_runs
        config_path = tmp_path / f"{n_runs}.json"
        config_path.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / str(n_runs)), "--workers", "1"]
        peak_mib[n_runs] = _peak_rss_mib(argv)
    assert peak_mib[2**18] - peak_mib[2**14] < 7.0, peak_mib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_simulate_peak_memory_is_bounded_in_the_horizon(tmp_path):
    # 2048 runs of 4-dimensional noise over T = 4000 pre-draw 262 MB in one
    # chunk of runs; chunks bounded by the bytes they pre-draw keep the peak
    # within the budget plus the interpreter, numpy and the step loop
    doc = preset_config("csgd-pareto")
    doc["ensemble"].update(n_runs=2048, horizon_T=4000)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out"), "--workers", "1"]
    assert _peak_rss_mib(argv) < montecarlo.CHUNK_PREDRAW_BYTES / 2**20 + 64


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_tail_and_report_peak_memory_is_flat_in_the_run_count(tmp_path):
    # tail and report read the O(T) step table and one line of the summary,
    # so 16 times as many runs move their peaks by less than 2 MiB; parsing
    # the summary body added about 10 MiB per 2^18 runs
    peak_mib = {}
    for n_runs in (2**14, 2**18):
        doc = preset_config("appendix-f")
        doc["ensemble"]["n_runs"] = n_runs
        config_path = tmp_path / f"{n_runs}.json"
        config_path.write_text(json.dumps(doc))
        out = str(tmp_path / str(n_runs))
        assert main(["simulate", "--config", str(config_path), "--out", out, "--workers", "2"]) == 0
        for argv in (["tail", out, "--epsilon", "0.18"], ["report", out]):
            peak_mib[argv[0], n_runs] = _peak_rss_mib(argv)
    for command in ("tail", "report"):
        assert abs(peak_mib[command, 2**18] - peak_mib[command, 2**14]) < 2.0, peak_mib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_verify_peak_memory_is_bounded_in_the_sample_count():
    # the MGF suites hold the d = 2 coordinates of each sample, 16 bytes, so
    # 7 * 10^5 more samples add about 11 MiB; an (n, 8) projection and
    # full-size draw temporaries added about 107 MiB
    argv = ["verify", "mgf-inner", "mgf-bounded", "--samples"]
    small, large = (_peak_rss_mib([*argv, str(n)]) for n in (10**5, 8 * 10**5))
    assert large - small < 24.0, (small, large)


def _children(pid: int) -> list:
    """The pids whose parent is pid, read from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # not a process, or one that has exited
            continue
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def _is_running(pid: int) -> bool:
    """True while pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _start_cli(argv, stderr, nohup: bool = False) -> subprocess.Popen:
    """ldplab <argv> in a fresh interpreter and a session of its own, on two
    usable CPUs whatever the machine has, so that its pools fork workers;
    with nohup, started ignoring SIGTERM and SIGHUP."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    code = "import sys; from ldplab import cli, montecarlo; montecarlo.usable_cpus = lambda: 2; sys.exit(cli.main())"
    if nohup:
        code = "import signal; signal.signal(signal.SIGTERM, signal.SIG_IGN); signal.signal(signal.SIGHUP, signal.SIG_IGN); " + code
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
        stderr=stderr,
        start_new_session=True,
    )


def _await(proc, ready, what: str) -> None:
    """Poll until ready() while proc runs, for at most 30 s."""
    deadline = time.monotonic() + 30
    while not ready():
        assert proc.poll() is None and time.monotonic() < deadline, what
        time.sleep(0.002)


def _await_work(proc, command: str, out) -> list:
    """The worker pids of a running simulate or verify once it is under way:
    simulate has written a chunk's rows, verify's two workers have run a
    little."""
    if command == "simulate":
        tmp = out / "trajsummary.csv.tmp"
        _await(proc, lambda: tmp.exists() and tmp.stat().st_size > 1000, "no chunk was written")  # more than the head
    else:
        _await(proc, lambda: len(_children(proc.pid)) == 2, "no worker started")
        time.sleep(0.2)
    return _children(proc.pid)


def _assert_gone_within_2_s(pids) -> None:
    deadline = time.monotonic() + 2
    while any(_is_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    running = [pid for pid in pids if _is_running(pid)]
    for pid in running:  # an orphan would outlive the test
        os.kill(pid, signal.SIGKILL)
    assert running == []


def _long_argv(command: str, tmp_path) -> list:
    """A simulate of 2^20 appendix-f runs at --workers 2, or verify all at 2e5
    samples, each a few seconds of work, writing to tmp_path / 'out'."""
    out = str(tmp_path / "out")
    if command == "verify":
        return ["verify", "all", "--samples", "200000", "--out", out]
    doc = preset_config("appendix-f")
    doc["ensemble"]["n_runs"] = 2**20
    (tmp_path / "long.json").write_text(json.dumps(doc))
    return ["simulate", "--config", str(tmp_path / "long.json"), "--out", out, "--workers", "2", "--force"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the worker pids from /proc")
@pytest.mark.parametrize("signame", ["SIGTERM", "SIGHUP", "SIGINT"])
def test_stop_signal_unwinds_simulate(signame, tmp_path):
    # a signal after the first chunk of 64 at --workers 2: one line and exit
    # 128 + n, no temporary file, the earlier result untouched and no worker
    # left running
    signum = getattr(signal, signame)
    out = tmp_path / "out"
    doc = preset_config("appendix-f")
    doc["ensemble"]["n_runs"] = 2**12
    (tmp_path / "4096.json").write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(tmp_path / "4096.json"), "--out", str(out)]) == 0
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = _start_cli(_long_argv("simulate", tmp_path), err)
        try:
            workers = _await_work(proc, "simulate", out)
            proc.send_signal(signum)
            assert proc.wait(timeout=5) == 128 + signum
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        assert err.read() == f"interrupted by {signame}\n"
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
    _assert_gone_within_2_s(workers)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the worker pids from /proc")
@pytest.mark.parametrize("signame", ["SIGTERM", "SIGHUP", "SIGINT"])
def test_stop_signal_unwinds_verify(signame, tmp_path):
    # a signal while verify all's two workers run its jobs: one line and exit
    # 128 + n, nothing written and no worker left running
    signum = getattr(signal, signame)
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = _start_cli(_long_argv("verify", tmp_path), err)
        try:
            workers = _await_work(proc, "verify", tmp_path / "out")
            proc.send_signal(signum)
            assert proc.wait(timeout=5) == 128 + signum
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        assert err.read() == f"interrupted by {signame}\n"
    assert not (tmp_path / "out").exists()
    _assert_gone_within_2_s(workers)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the worker pids from /proc")
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_killed_worker_is_one_error_line(command, tmp_path):
    # SIGKILL to one worker, as the out-of-memory killer sends: exit 2 with
    # one line naming the request, no temporary file, the other worker stopped
    argv = _long_argv(command, tmp_path)
    out = tmp_path / "out"
    with open(tmp_path / "stderr", "w+", encoding="utf-8") as err:
        proc = _start_cli(argv, err)
        try:
            workers = _await_work(proc, command, out)
            os.kill(workers[0], signal.SIGKILL)
            assert proc.wait(timeout=10) == 2
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        assert err.read() == f"error: a worker process of {' '.join(argv)!r} was killed\n"
    assert not out.exists() or os.listdir(out) == []
    _assert_gone_within_2_s(workers)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers ask Linux for a signal when the parent dies")
@pytest.mark.parametrize(
    "command, nohup",
    [("simulate", False), ("verify", False), ("simulate", True), ("verify", True)],
    ids=["simulate", "verify", "simulate-nohup", "verify-nohup"],
)
def test_workers_die_with_a_parent_killed_by_sigkill(command, nohup, tmp_path):
    # SIGKILL runs no handler in the parent, so its workers must end by
    # themselves, also when they were started ignoring SIGTERM and SIGHUP
    proc = _start_cli(_long_argv(command, tmp_path), subprocess.DEVNULL, nohup)
    try:
        workers = _await_work(proc, command, tmp_path / "out")
        assert len(workers) == 2
    finally:
        proc.kill()
        proc.wait()
    _assert_gone_within_2_s(workers)


def test_commands_run_without_scipy(tiny_config):
    # numpy is the one runtime dependency: no command may load scipy.  A
    # command that starts no pool loads none of the pool's modules, nor the
    # enumeration's fractions, and only a tail with its chart loads svgplot
    config_path, doc = tiny_config
    out = doc["output"]["directory"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    commands = [
        ["simulate", "--config", config_path],  # one chunk
        ["tail", out, "--epsilon", "0.18", "--no-svg"],
        ["report", out],
        ["fit", os.path.join(out, "tail.csv")],
    ]
    unloaded = ["multiprocessing", "concurrent.futures.process", "fractions", "ldplab.svgplot"]
    code = (
        "import sys\n"
        "from ldplab.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"loaded = [m for m in {unloaded!r} if m in sys.modules]\n"
        f"assert main({['tail', out, '--epsilon', '0.18']!r}) == 0\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy, loaded, 'ldplab.svgplot' in sys.modules)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[] [] True"


def test_pools_run_without_concurrent_futures(tiny_config):
    # the pool forks its own workers: a simulate split over two workers and
    # verify all on two start the pool and never load concurrent.futures
    config_path, doc = tiny_config
    src = os.path.dirname(os.path.dirname(os.path.abspath(ldplab.__file__)))
    code = (
        "import sys\n"
        "from ldplab import montecarlo\n"
        "from ldplab.cli import main\n"
        "montecarlo.usable_cpus = lambda: 2\n"
        "montecarlo.ENSEMBLE_CHUNK = 256\n"
        f"assert main({['simulate', '--config', config_path, '--workers', '2']!r}) == 0\n"
        "assert main(['verify', 'all', '--samples', '100000']) == 0\n"
        "print('multiprocessing.connection' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert "chunks=8," in run.stdout
    assert run.stdout.strip().splitlines()[-1] == "True False"
