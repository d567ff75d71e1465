"""Tests of the benchmark's own code; fast, and they run no workload."""

import json
import os
import types

import pytest

import gate
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _span(sid, parent, name, start, end, **attrs):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "run": "r", "attrs": attrs}


def _leaf(parent, enclosing, name, count, seconds, nbytes=0):
    return {"parent": parent, "enclosing": enclosing, "name": name, "count": count,
            "seconds": seconds, "bytes": nbytes}


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2.0
    assert spans.union_length([(0, 2), (1, 3)]) == 3.0
    assert spans.union_length([(0, 5), (1, 2), (6, 7)]) == 6.0


def _nested_trace():
    """cli.main with a same-layer CSV write and an ensemble run on two workers."""
    return spans.Trace(
        [
            _span("m", None, "cli.main", 0.0, 10.0),
            _span("p", "m", "config.parse", 1.0, 2.0),
            _span("w", "m", "cli.write_csv", 3.0, 6.0, bytes=3_000_000),
            _span("e", "m", "montecarlo.run_ensemble", 6.0, 9.0),
            _span("c1", "e", "montecarlo.chunk", 6.1, 8.0),
            _span("c2", "e", "montecarlo.chunk", 6.5, 8.9),
            _span("s1", "c1", "optimizers.simulate_runs", 6.1, 8.0, runs=4, steps=60),
            _span("s2", "c2", "optimizers.simulate_runs", 6.5, 8.9, runs=4, steps=60),
        ],
        [
            _leaf("s1", None, "rng.reset", 4, 0.25),
            _leaf("s1", None, "oracles.draw", 4, 0.5, nbytes=960),
            _leaf("s1", None, "oracles.gradients", 15, 0.5),
            _leaf("s1", "oracles.gradients", "costs.gradient", 15, 0.25),
            _leaf("s1", None, "costs.gradient", 16, 0.25),
            _leaf("s2", None, "oracles.draw", 4, 0.5, nbytes=1920),
        ],
    )


def test_self_time_treats_same_layer_children_as_own():
    tr = _nested_trace()
    main = tr.named("cli.main")[0]
    # the CSV write is cli work; parse (1 s) and the ensemble (3 s) are not
    assert tr.self_time(main) == pytest.approx(6.0)


def test_self_time_subtracts_union_of_parallel_children():
    tr = _nested_trace()
    ens = tr.named("montecarlo.run_ensemble")[0]
    assert tr.self_time(ens) == pytest.approx(3.0 - (8.9 - 6.1))


def test_self_time_subtracts_leaves_of_other_layers():
    tr = _nested_trace()
    s1 = [s for s in tr.spans if s["id"] == "s1"][0]
    # 1.9 s minus reset, draw, gradients (whose nested cost call is inside
    # it) and the direct cost call
    assert tr.self_time(s1) == pytest.approx(1.9 - 0.25 - 0.5 - 0.5 - 0.25)
    assert tr.leaf_self("oracles.gradients") == pytest.approx(0.25)
    assert tr.leaf_total("costs.gradient") == pytest.approx(0.5)
    assert tr.leaf_count("costs.gradient") == 31


def test_layer_metrics_of_a_synthetic_pipeline():
    tr = _nested_trace()
    doc = {"spans": tr.spans, "leaves": tr.leaves}
    m = spans.layer_metrics({"simulate": doc}, workers=2)
    assert m["cli.simulate_self_s"][0] == pytest.approx(6.0)
    assert m["cli.summary_bytes"][0] == 3_000_000
    assert m["cli.write_mb_per_s"][0] == pytest.approx(1.0)
    assert m["montecarlo.chunks"][0] == 2
    assert m["montecarlo.chunk_busy_s"][0] == pytest.approx(1.9 + 2.4)
    assert m["montecarlo.parallel_eff"][0] == pytest.approx(4.3 / (2 * 3.0))
    assert m["optimizers.run_steps"][0] == 120
    assert m["optimizers.predraw_bytes_per_chunk"][0] == 1920
    assert m["oracles.draws"][0] == 8
    assert m["rng.resets"][0] == 4
    assert m["cli.tail_self_s"][0] == 0.0  # no tail command in this pipeline


def test_recorder_records_nesting_and_patches_aliases():
    rec = spans.Recorder("r")
    mod = types.ModuleType("fake_layer")
    alias = types.ModuleType("fake_user")

    def inner(x):
        return [x] * 3

    def outer(x):
        return len(mod.inner(x)) + len(mod.inner(x))

    mod.inner, mod.outer = inner, outer
    alias.outer = outer  # imported by name elsewhere
    spans.patch_everywhere([mod, alias], mod, "inner", rec.leaf("costs.inner", inner, nbytes=len))
    spans.patch_everywhere([mod, alias], mod, "outer", rec.full("optimizers.outer", outer))
    assert alias.outer is mod.outer
    assert alias.outer(7) == 6

    payload = rec.payload()
    (span,) = payload["spans"]
    (leaf,) = payload["leaves"]
    assert span["name"] == "optimizers.outer" and span["parent"] is None
    assert leaf["parent"] == span["id"] and leaf["enclosing"] is None
    assert (leaf["count"], leaf["bytes"]) == (2, 6)
    tr = spans.Trace(payload["spans"], payload["leaves"])
    assert 0.0 <= tr.self_time(tr.spans[0]) <= span["end"] - span["start"] - leaf["seconds"] + 1e-12


# ---------------------------------------------------------------------------
# metric naming
# ---------------------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_name_pattern():
    assert spans.METRIC_NAME.match("montecarlo.suite_s.clip-bias")
    for bad in ("", "_lead", "has space", "slash/no", "x" * 65, "paren(s)"):
        assert not spans.METRIC_NAME.match(bad)


def test_reported_metrics_match_benchmark_json():
    doc = _benchmark_json()
    per_layer = set(spans.layer_metrics({}, workers=2)) | set(run.TRACE_METRICS)
    assert per_layer == {m["name"] for m in doc["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in doc["end_to_end"]}
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    for name, (_, unit) in spans.layer_metrics({}, workers=2).items():
        assert units[name] == unit
    for name, unit in run.END_TO_END.items():
        assert units[name] == unit
    for name in units:
        assert spans.METRIC_NAME.match(name), name
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


# ---------------------------------------------------------------------------
# digest gate
# ---------------------------------------------------------------------------


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _tail_csv(rows):
    head = "# tool=ldplab digest=x\nt,epsilon,N,exceed,p_hat,ci_low,ci_high\n"
    return head + "".join(f"{t},0.1,100,{round(p * 100)},{p},{lo},{hi}\n" for t, p, lo, hi in rows)


GOOD_TAIL = [(1, 1.0, 0.96, 1.0), (2, 0.5, 0.4, 0.6), (3, 0.25, 0.17, 0.34)]


@pytest.fixture
def results(tmp_path):
    d = tmp_path / "results"
    d.mkdir()
    _write(d / "tail.csv", _tail_csv(GOOD_TAIL))
    _write(d / "tail.svg", "<svg/>\n")
    _write(d / "tail_eps0.csv", _tail_csv(GOOD_TAIL))
    _write(d / "report.txt", f"ldplab report\nresults: {d}\nruns: 100\n")
    _write(d / "verify.csv", "# c\nsuite,check,empirical,bound,se,passed\nrates,a,0.1,1.0,0.0,1\n")
    return d


def _check(d, reference, command, compare=True, appendix_f=True, stdout="verification: ALL PASS"):
    return gate.check_command(command, str(d), reference, compare, appendix_f, stdout)


def test_gate_passes_recorded_outputs_and_ignores_results_path(results, tmp_path):
    reference = gate.reference_entry(str(results))
    assert reference["rows"]["tail.csv"] == 3
    other = tmp_path / "elsewhere"
    results.rename(other)  # report.txt now names another directory
    _write(other / "report.txt", f"ldplab report\nresults: {other}\nruns: 100\n")
    for command in ("tail", "report", "verify"):
        assert _check(other, reference, command) == []


def test_gate_flags_changed_bytes_only_at_reference_seed(results):
    reference = gate.reference_entry(str(results))
    _write(results / "tail.svg", "<svg />\n")
    assert _check(results, reference, "tail") == ["tail.svg: sha256 differs from the reference"]
    assert _check(results, reference, "tail", compare=False) == []


def test_gate_invariants(results):
    reference = gate.reference_entry(str(results))
    _write(results / "tail.csv", _tail_csv([(1, 1.0, 0.96, 1.0), (2, 0.5, 0.4, 0.6), (3, 0.55, 0.5, 0.6)]))
    assert any("increases" in p for p in _check(results, reference, "tail", compare=False))
    _write(results / "tail.csv", _tail_csv([(1, 1.0, 0.96, 1.0), (2, 0.5, 0.51, 0.6), (3, 0.25, 0.17, 0.34)]))
    assert any("Wilson" in p for p in _check(results, reference, "tail", compare=False))
    # 2^(1-t) at t=3 is 0.25; 0.05 is more than 3 half-widths below it
    _write(results / "tail.csv", _tail_csv([(1, 1.0, 0.96, 1.0), (2, 0.5, 0.4, 0.6), (3, 0.05, 0.04, 0.06)]))
    assert any("2^(1-t)" in p for p in _check(results, reference, "tail", compare=False))
    assert _check(results, reference, "tail", compare=False, appendix_f=False) == []
    _write(results / "tail.csv", _tail_csv(GOOD_TAIL[:2]))
    assert any("rows" in p for p in _check(results, reference, "tail", compare=False))


def test_gate_verification_failures(results):
    reference = gate.reference_entry(str(results))
    assert _check(results, reference, "verify", stdout="verification: FAILURES PRESENT") == [
        "verify: did not report ALL PASS"
    ]
    _write(results / "verify.csv", "# c\nsuite,check,empirical,bound,se,passed\nrates,a,2.0,1.0,0.0,0\n")
    problems = _check(results, reference, "verify", compare=False)
    assert problems == ["verify.csv: check failed: rates a"]
    os.remove(results / "verify.csv")
    assert any("wrote []" in p for p in _check(results, reference, "verify"))


def test_reference_covers_every_command_of_every_workload():
    with open(run.REFERENCE_PATH, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    assert set(reference) == set(run.WORKLOADS)
    for entry in reference.values():
        assert set(entry["owner"].values()) == set(run.COMMANDS)
        assert set(entry["digests"]) == set(entry["owner"]) == set(entry["rows"])
