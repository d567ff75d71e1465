import copy
import json

import numpy as np
import pytest

from ldplab.config import (
    ConfigError,
    config_digest,
    load_config,
    parse_config,
    preset_config,
)


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

    def test_appendix_f_matches_construction(self):
        exp = parse_config(preset_config("appendix-f"))
        rc = exp.run_config
        assert rc.cost.name == "huber"
        x1 = rc.init_x1
        assert 0.0 < np.linalg.norm(x1) <= rc.cost.grad_bound_G
        np.testing.assert_array_equal(rc.oracle.noise.v, x1)
        # alpha_t = 1/(2 sqrt(t+1)) and gamma_t = 2G
        assert rc.step_schedule.kind == "sgd-sqrt" and rc.step_schedule.a == 0.5
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
        base_doc["ensemble"]["t_grid"] = [1, 1, 2]
        with pytest.raises(ConfigError, match="t_grid"):
            parse_config(base_doc)

    def test_unknown_candidate_family(self, base_doc):
        base_doc["analysis"]["candidates"] = ["cubed-t"]
        with pytest.raises(ConfigError, match="cubed-t"):
            parse_config(base_doc)

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


def test_load_config_roundtrip(tmp_path, base_doc):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(base_doc))
    exp = parse_config(load_config(str(path)))
    assert exp.digest == config_digest(base_doc)
