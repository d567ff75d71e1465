import copy
import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ldplab.cli import main
from ldplab.config import (
    KIND_BLOCKS,
    PRESET_NAMES,
    ConfigError,
    config_digest,
    load_config,
    parse_config,
    preset_config,
)
from ldplab.theory import DECAY_FAMILIES


@pytest.fixture
def base_doc():
    return preset_config("appendix-f")


class TestPresets:
    @pytest.mark.parametrize("name", ["appendix-f", "sgd-bounded", "csgd-pareto"])
    def test_presets_parse(self, name):
        exp = parse_config(preset_config(name))
        assert exp.n_runs >= 1
        assert exp.run_config.horizon_T >= 1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("appendix-z")

    def test_mutated_preset_leaves_the_next_call_unchanged(self):
        doc = preset_config("appendix-f")
        fresh = copy.deepcopy(doc)
        doc["ensemble"]["seed"] += 1
        doc["ensemble"]["t_grid"].append(99)
        doc["analysis"]["sota"][0]["B"] = 9.0
        assert preset_config("appendix-f") == fresh

    def test_appendix_f_matches_construction(self):
        exp = parse_config(preset_config("appendix-f"))
        rc = exp.run_config
        assert rc.cost.name == "huber"
        x1 = rc.init_x1
        assert 0.0 < np.linalg.norm(x1) <= rc.cost.grad_bound_G
        np.testing.assert_array_equal(rc.oracle.noise.v, x1)
        # alpha_t = 1/(2 sqrt(t+1)) and gamma_t = 2G
        assert rc.step_schedule.kind == "sgd-sqrt" and rc.step_schedule.value == 0.5
        assert rc.clip_schedule.kind == "constant"
        assert rc.clip_schedule.G_or_C == 2.0 * rc.cost.grad_bound_G


class TestValidation:
    def test_unknown_top_level_key(self, base_doc):
        base_doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(base_doc)

    def test_unknown_nested_key(self, base_doc):
        base_doc["ensemble"]["typo_eps"] = [0.1]
        with pytest.raises(ConfigError, match="ensemble"):
            parse_config(base_doc)

    def test_step_above_inverse_smoothness(self, base_doc):
        base_doc["method"]["step"]["a"] = 1.01 / 2.0  # L = 2 for this cost
        with pytest.raises(ConfigError, match="exceeds"):
            parse_config(base_doc)

    def test_moment_order_out_of_range(self):
        doc = preset_config("csgd-pareto")
        doc["method"]["step"]["p"] = 2.5
        with pytest.raises(ConfigError, match="p in"):
            parse_config(doc)

    def test_pareto_index_not_above_p(self):
        doc = preset_config("csgd-pareto")
        doc["oracle"]["noise"]["tail_index"] = 1.4
        with pytest.raises(ConfigError, match="infinite"):
            parse_config(doc)

    def test_epsilon_grid_must_be_sorted_positive(self, base_doc):
        base_doc["ensemble"]["epsilon_grid"] = [0.2, 0.1]
        with pytest.raises(ConfigError):
            parse_config(base_doc)
        base_doc["ensemble"]["epsilon_grid"] = [-0.1, 0.2]
        with pytest.raises(ConfigError):
            parse_config(base_doc)

    def test_vanilla_rejects_clip_block(self, base_doc):
        base_doc["method"]["kind"] = "vanilla"
        with pytest.raises(ConfigError, match="clip"):
            parse_config(base_doc)

    def test_missing_block(self, base_doc):
        del base_doc["oracle"]
        with pytest.raises(ConfigError, match="missing"):
            parse_config(base_doc)

    def test_clip_coefficient_key_must_match_kind(self, base_doc):
        base_doc["method"]["clip"] = {"kind": "paper-eq5", "p": 1.5, "C": 2.0}
        with pytest.raises(ConfigError, match="requires key"):
            parse_config(base_doc)

    def test_bad_t_grid(self, base_doc):
        # [1, 10**20] does not fit an int64; steps must be integers, not floats or bools
        for t_grid in ([1, 1, 2], [1, 10**20], [1, 2.0], [True, 2]):
            base_doc["ensemble"]["t_grid"] = t_grid
            with pytest.raises(ConfigError, match="t_grid"):
                parse_config(base_doc)

    def test_horizon_bound_and_no_default_grid(self, base_doc, tmp_path, capsys):
        # hit is int32 and stores T + 1; a missing t_grid is left to estimate_tail's 1..T
        del base_doc["ensemble"]["t_grid"]
        base_doc["ensemble"]["horizon_T"] = 2**31 - 2
        assert parse_config(base_doc).t_grid is None
        config_path = tmp_path / "config.json"
        for horizon in (2**31 - 1, 10**20):
            base_doc["ensemble"]["horizon_T"] = horizon
            with pytest.raises(ConfigError, match=r"^ensemble/method: horizon_T must be at most 2147483646"):
                parse_config(base_doc)
            config_path.write_text(json.dumps(base_doc))
            assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith("error: ensemble/method: horizon_T must be at most")
        assert not (tmp_path / "out").exists()

    def test_paper_law_is_built_at_parse(self):
        exps = {name: parse_config(preset_config(name)) for name in PRESET_NAMES}
        assert exps["appendix-f"].law is None  # a constant threshold has no closed-form law
        cert = exps["sgd-bounded"].run_config.certified_constants()
        assert (exps["sgd-bounded"].law.name, exps["sgd-bounded"].law.params) == ("sgd", {"M": 0.5, "G": cert["G"]})
        assert (exps["csgd-pareto"].law.name, exps["csgd-pareto"].law.params["p"]) == ("csgd", 1.5)

    @pytest.mark.parametrize(
        "preset, edit, law",
        [
            ("sgd-bounded", lambda d: d["oracle"]["noise"].update(radius=1e300), "sgd"),
            ("sgd-bounded", lambda d: d["oracle"]["noise"].update(radius=1e-300), "sgd"),
            ("csgd-pareto", lambda d: d["method"].update(clip={"kind": "general-C", "p": 1.5, "C": 1e300}),
             "csgd-generalC"),
        ],
        ids=["sgd-M-overflows", "sgd-M-underflows", "general-C-overflows"],
    )
    def test_paper_law_that_cannot_be_formed_exits_2_before_any_run(self, preset, edit, law, tmp_path, capsys):
        doc = preset_config(preset)
        edit(doc)
        with pytest.raises(ConfigError, match=rf"^ensemble/method: {law} law: rate denominator"):
            parse_config(doc)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: ensemble/method: {law} law:")
        assert not (tmp_path / "out").exists()

    def test_unknown_candidate_family(self, base_doc):
        base_doc["analysis"]["candidates"] = ["cubed-t"]
        with pytest.raises(ConfigError, match="cubed-t"):
            parse_config(base_doc)

    def test_candidates_are_distinct_families(self, base_doc):
        # a repeated family would be fitted and reported twice; no family at all fits nothing
        base_doc["analysis"]["candidates"] = ["sqrt-t", "linear-t", "sqrt-t"]
        with pytest.raises(ConfigError, match=r"^analysis\.candidates: decay family 'sqrt-t' is listed twice$"):
            parse_config(base_doc)
        base_doc["analysis"]["candidates"] = []
        assert parse_config(base_doc).candidates == ()

    def test_sota_curve_missing_parameter(self, base_doc):
        base_doc["analysis"]["sota"] = [{"kind": "liu-sgd"}]
        with pytest.raises(ConfigError, match=r"^analysis\.sota\[0\]: .*\['B'\]"):
            parse_config(base_doc)

    def test_power_over_log_candidate_needs_candidate_p(self, base_doc):
        base_doc["analysis"]["candidates"] = ["power-over-log"]
        with pytest.raises(ConfigError, match=r"^analysis\.candidates: .*moment order p") as info:
            parse_config(base_doc)
        assert "--p" not in str(info.value)
        base_doc["analysis"]["candidate_p"] = 1.5
        assert [c.name for c in parse_config(base_doc).candidates] == ["power-over-log"]


    @pytest.mark.parametrize(
        "preset, edit, message",
        [
            ("appendix-f", lambda d: d["method"]["step"].update(p=1.7, c=9.0),
             r"^method\.step: keys \['c', 'p'\] do not apply to kind 'sgd-sqrt'"),
            ("csgd-pareto", lambda d: d["method"]["step"].update(a=0.5),
             r"^method\.step: keys \['a'\] do not apply to kind 'csgd-power'"),
            ("appendix-f", lambda d: d["method"]["step"].update(kind="constant", c=0.1),
             r"^method\.step: keys \['a'\] do not apply to kind 'constant'"),
            ("appendix-f", lambda d: d["method"]["clip"].update(p=1.5),
             r"^method\.clip: keys \['p'\] do not apply to kind 'constant'"),
            ("appendix-f", lambda d: d["method"].update(kind="vanilla"),
             r"^method: keys \['clip'\] do not apply to kind 'vanilla'"),
            ("appendix-f", lambda d: d["analysis"].update(candidate_p=1.5),
             r"^analysis\.candidate_p: applies only when .*'power-over-log'"),
            ("appendix-f", lambda d: d["analysis"]["sota"][0].update(sigma=1.0),
             r"^analysis\.sota\[0\]: .*does not take parameters \['sigma'\]"),
            ("csgd-pareto", lambda d: d["analysis"]["sota"][0].update(B=0.5),
             r"^analysis\.sota\[0\]: .*does not take parameters \['B'\]"),
            ("appendix-f", lambda d: d["method"]["clip"].update(kind=["constant"]),
             r"^method\.clip\.kind: unknown kind \['constant'\]"),
            ("appendix-f", lambda d: d["analysis"]["sota"][0].update(B=0),
             r"^analysis\.sota\[0\]: B must be positive, got 0\.0$"),
            ("csgd-pareto", lambda d: d["analysis"]["sota"][0].update(sigma=-1.0, L=0.0),
             r"^analysis\.sota\[0\]: sigma must be positive, got -1\.0$"),
            ("csgd-pareto", lambda d: d["analysis"]["sota"][0].update(delta=0.0),
             r"^analysis\.sota\[0\]: delta must be positive, got 0\.0$"),
            ("appendix-f", lambda d: d["analysis"]["sota"].append({"kind": "armacki-nsgd", "C": 0, "L": 1}),
             r"^analysis\.sota\[1\]: C must be positive, got 0\.0$"),
        ],
        ids=["sgd-sqrt-step-p-c", "csgd-power-step-a", "constant-step-a", "constant-clip-p", "vanilla-clip",
             "candidate-p-without-power-over-log", "liu-sgd-sigma", "nguyen-csgd-B",
             "clip-kind-not-a-string", "liu-sgd-B-zero", "nguyen-csgd-sigma-L-nonpositive",
             "nguyen-csgd-delta-zero", "armacki-nsgd-C-zero"],
    )
    def test_key_the_kind_does_not_read_rejected(self, preset, edit, message, tmp_path):
        doc = preset_config(preset)
        edit(doc)
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


# a valid value for each numeric parameter the kind tables name
_SAMPLE_VALUES = {
    "threshold_G": 1.0, "scale": 1.0, "dim": 2, "m": 8, "dataset_seed": 1, "batch_size": 2,
    "radius": 0.5, "v": [0.6, 0.0], "x_m": 0.5, "tail_index": 2.0, "moment_order": 1.5,
    "a": 0.01, "p": 1.5, "c": 0.1, "G": 1.0, "C": 2.0, "threshold": 2.0,
    "B": 0.5, "sigma": 1.0, "delta": 1.0, "L": 1.0,
}

def _doc_with_kind(path: str, kind: str) -> tuple[dict, dict]:
    """(a small valid document, its block at ``path``), the block being ``kind``
    with a sample value for each of its parameters; a nested block keeps the
    document's own."""
    doc = {
        "cost": {"name": "batch-logistic", "m": 8, "dim": 2, "dataset_seed": 1},
        "oracle": {"mode": "additive-noise", "noise": {"kind": "two-point", "v": [0.6, 0.0]}},
        "method": {
            "kind": "clipped",
            "step": {"kind": "constant", "c": 0.1},
            "clip": {"kind": "constant", "threshold": 2.0},
        },
        "ensemble": {"n_runs": 2, "horizon_T": 3, "seed": 1, "init_x1": [0.6, 0.0], "epsilon_grid": [0.1]},
        "analysis": {"sota": [{"kind": "liu-sgd", "B": 0.5}]},
    }
    *parents, last = path.removesuffix("[]").split(".")
    parent = doc
    for key in parents:
        parent = parent[key]
    own = parent[last][0] if path.endswith("[]") else parent[last]
    tag, table = KIND_BLOCKS[path]
    block = {tag: kind}
    for key in table[kind]:
        block[key] = _SAMPLE_VALUES[key] if key in _SAMPLE_VALUES else own[key]
    if path.endswith("[]"):
        parent[last][0] = block
    else:
        parent[last] = block
    return doc, block


# every (block path, kind) with a numeric parameter
_NUMERIC_KINDS = [
    (path, kind)
    for path, (_, table) in KIND_BLOCKS.items()
    for kind, params in table.items()
    if any(key in _SAMPLE_VALUES for key in params)
]


@pytest.mark.parametrize("path, kind", _NUMERIC_KINDS, ids=[f"{path}-{kind}" for path, kind in _NUMERIC_KINDS])
def test_non_numeric_parameter_exits_2_and_writes_nothing(path, kind, tmp_path, capsys):
    doc, block = _doc_with_kind(path, kind)
    parse_config(doc)  # the sample document is valid
    for key in [k for k in KIND_BLOCKS[path][1][kind] if k in _SAMPLE_VALUES]:
        good = block[key]
        for bad in (True, "1"):
            block[key] = bad
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(doc))
            out = tmp_path / "out"
            assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 2, (key, bad)
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err
        block[key] = good


# the values the fuzz tests set each leaf of a document to, in turn
FUZZ_VALUES = [None, True, "1", [], {}, -1, 0, 0.5, 1e300, -1e300, math.nan, math.inf]


def _tiny_preset(name: str) -> dict:
    doc = preset_config(name)
    doc["ensemble"].update(n_runs=4, horizon_T=16)
    return doc


def _leaves(node, path=()):
    """The path of every leaf of a JSON document: a scalar, or an empty list or object."""
    items = list(node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ())
    if not items:
        yield path
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _fuzz_documents():
    """(name, document, the leaves to fuzz): every leaf of each preset at a
    tiny size, and the leaves of each kind-tagged block of KIND_BLOCKS in a
    small document with that kind."""
    for name in PRESET_NAMES:
        doc = _tiny_preset(name)
        yield name, doc, list(_leaves(doc))
    for path, (_, table) in KIND_BLOCKS.items():
        block = tuple(path.removesuffix("[]").split(".")) + ((0,) if path.endswith("[]") else ())
        for kind in table:
            doc = _doc_with_kind(path, kind)[0]
            yield f"{path}-{kind}", doc, [leaf for leaf in _leaves(doc) if leaf[: len(block)] == block]


_FUZZ_DOCS = {name: (doc, leaves) for name, doc, leaves in _fuzz_documents()}
_FUZZ_CASES = [(name, leaf) for name, (_, leaves) in _FUZZ_DOCS.items() for leaf in leaves]


@pytest.mark.parametrize(
    "name, leaf", _FUZZ_CASES, ids=[f"{name}:{'.'.join(map(str, leaf))}" for name, leaf in _FUZZ_CASES]
)
def test_fuzzed_config_parses_or_exits_2(name, leaf, tmp_path, capsys):
    """A config with one leaf set to a fuzz value either parses, simulates,
    draws the tail at its first epsilon and reports with exit 0, or is
    rejected with exit 2 and writes nothing; a non-finite number never
    parses, and no exception escapes ``main``."""
    for value in FUZZ_VALUES:
        doc = copy.deepcopy(_FUZZ_DOCS[name][0])
        *parents, last = leaf
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        try:
            first_epsilon = parse_config(copy.deepcopy(doc)).run_config.epsilon_grid[0]
            parses = True
        except ConfigError:
            parses = False
        finite = not (isinstance(value, float) and not math.isfinite(value))
        assert parses <= finite, value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == (0 if parses else 2), value
        if parses:
            assert main(["tail", str(out), "--epsilon", repr(float(first_epsilon))]) == 0, value
            assert main(["report", str(out)]) == 0, value
            shutil.rmtree(out)
        assert not out.exists()
        capsys.readouterr()


# the top-level fields of a manifest besides its config
_MANIFEST_FIELDS = ("certified", "config_digest", "diverged_runs", "horizon_T", "n_runs", "tool", "version")
# those fields and every leaf of the config that simulate records, as paths into the manifest
_MANIFEST_LEAVES = [(f,) for f in _MANIFEST_FIELDS] + [("config", *leaf) for leaf in _leaves(_tiny_preset("appendix-f"))]


@pytest.mark.parametrize("leaf", _MANIFEST_LEAVES, ids=[".".join(map(str, leaf)) for leaf in _MANIFEST_LEAVES])
def test_fuzzed_manifest_field_exits_0_or_3(leaf, tmp_path, capsys):
    """tail and report on results whose manifest has one top-level field or
    one config leaf set to a fuzz value, or deleted, exit 3 unless the value
    is the results' own in canonical JSON or the leaf lies in the config's
    output block, which analysis ignores, then 0; no exception escapes
    ``main``."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_tiny_preset("appendix-f")))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", str(config_path), "--out", out]) == 0
    meta_path = os.path.join(out, "meta.json")
    meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    assert sorted(set(meta) - {"config"}) == list(_MANIFEST_FIELDS)
    *parents, last = leaf
    original = meta
    for key in leaf:
        original = original[key]
    deleted = object()
    for value in [*FUZZ_VALUES, deleted]:
        mutated = copy.deepcopy(meta)
        node = mutated
        for key in parents:
            node = node[key]
        if value is deleted:
            del node[last]
        else:
            node[last] = value
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(mutated, fh)
        kept = value is not deleted and json.dumps(value, sort_keys=True) == json.dumps(original, sort_keys=True)
        want = 0 if kept or leaf[:2] == ("config", "output") else 3
        assert main(["tail", out, "--epsilon", "0.18"]) == want, value
        assert main(["report", out]) == want, value
        if want == 3:  # each error names the file it found corrupt
            assert capsys.readouterr().err.count(f"io error: {out}{os.sep}") == 2, value
        capsys.readouterr()


def test_noise_key_of_another_kind_rejected():
    doc = preset_config("sgd-bounded")
    doc["oracle"]["noise"]["scale"] = 1.0  # a gaussian parameter
    with pytest.raises(ConfigError, match=r"^oracle\.noise: keys \['scale'\] do not apply to kind 'sphere-bounded'"):
        parse_config(doc)


def test_batch_subsample_needs_a_finite_sum_cost(tmp_path, capsys):
    doc = preset_config("appendix-f")
    doc["oracle"] = {"mode": "batch-subsample", "batch_size": 2}
    with pytest.raises(ConfigError, match=r"^oracle: batch subsampling needs a finite-sum cost, not 'huber'"):
        parse_config(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: oracle: batch subsampling")


def test_readme_config_format_names_every_kind_and_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    names = set(DECAY_FAMILIES)
    for tag, table in KIND_BLOCKS.values():
        names |= {tag, *table, *(key for params in table.values() for key in params)}
    missing = [n for n in sorted(names) if not re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", section)]
    assert missing == []


class TestDigest:
    def test_digest_stable_under_key_order(self, base_doc):
        reordered = json.loads(json.dumps(base_doc, sort_keys=True))
        assert config_digest(base_doc) == config_digest(reordered)

    def test_digest_changes_with_content(self, base_doc):
        other = copy.deepcopy(base_doc)
        other["ensemble"]["seed"] += 1
        assert config_digest(base_doc) != config_digest(other)

    def test_digest_ignores_output_block(self, base_doc):
        moved = copy.deepcopy(base_doc)
        moved["output"]["directory"] = "elsewhere/results"
        assert config_digest(base_doc) == config_digest(moved)
        del moved["output"]
        assert config_digest(base_doc) == config_digest(moved)


def test_load_config_anchors_syntax_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "cost": {,}\n}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:"):
        load_config(str(path))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_config_rejects_non_finite_numbers(constant, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(preset_config("appendix-f")).replace("0.18", constant))
    with pytest.raises(ConfigError, match=rf"bad\.json: {constant} is not a finite number"):
        load_config(str(path))


def test_load_config_roundtrip(tmp_path, base_doc):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(base_doc))
    exp = parse_config(load_config(str(path)))
    assert exp.digest == config_digest(base_doc)
