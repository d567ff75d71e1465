"""Experiment configuration: schema, validation, the digest, and presets.

Configs are JSON documents with blocks ``cost``, ``oracle``, ``method``,
``ensemble`` and optional ``analysis`` / ``output``.  ``parse_config`` is the
only path from a document to the objects the lab uses.  Validation is strict:
unknown keys are errors, not warnings, because a silently ignored typo in an
epsilon or a moment order invalidates an experiment.  This module checks the
document's shape: objects, kind tags and keys.  The values are checked by the
constructors that own them, whose ValueErrors become ConfigErrors here, so a
library caller gets the same errors.  Every error message is anchored to the
JSON path of the offending entry.

The config digest covers the whole document except its ``output`` block,
which only says where results go.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

import numpy as np

from .costs import COSTS, CostSpec, int_param
from .montecarlo import check_t_grid
from .oracles import _NOISE_KINDS, ORACLE_MODES, OracleSpec
from .optimizers import CLIP_KINDS, METHODS, STEP_KINDS, ClipSpec, RunConfig, ScheduleSpec
from .theory import SOTA_KINDS, RateSpec, decay_families, rate_csgd, rate_csgd_generalC, rate_sgd, sota_curves

TOOL_NAME = "ldplab"
TOOL_VERSION = "0.1.0"


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the JSON path."""


def _require_keys(block: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(block) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")


def _fields(classes: dict, supplied: str) -> dict:
    """kind -> field names of dataclasses by kind, less the field the config supplies."""
    return {kind: tuple(f.name for f in dataclasses.fields(c) if f.name != supplied) for kind, c in classes.items()}


# JSON path of each kind-tagged block -> (its tag, kind -> its keys), read
# from the modules that own the kinds
KIND_BLOCKS = {
    "cost": ("name", {name: params for name, (_, params) in COSTS.items()}),
    "oracle": ("mode", _fields(ORACLE_MODES, "cost")),
    "oracle.noise": ("kind", _fields(_NOISE_KINDS, "dim")),
    "method": ("kind", METHODS),
    "method.step": ("kind", STEP_KINDS),
    "method.clip": ("kind", CLIP_KINDS),
    "analysis.sota[]": ("kind", SOTA_KINDS),
}


def _kind_of(block: dict, path: str, tag: str, table: dict) -> str:
    """The kind a block's ``tag`` names, one of ``table``'s."""
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object")
    if tag not in block:
        raise ConfigError(f"{path}: missing required keys [{tag!r}]")
    kind = block[tag]
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}.{tag}: unknown {tag} {kind!r}; expected one of {tuple(table)}")
    return kind


def _kind_block(block: dict, path: str, build):
    """build(kind, {key: value}) of the block at ``path``, whose tag names a
    kind of its KIND_BLOCKS table and which holds exactly that kind's keys
    besides the tag.  build checks the values: its ValueError is a
    ConfigError at ``path``."""
    tag, table = KIND_BLOCKS[path]
    kind = _kind_of(block, path, tag, table)
    params = table[kind]
    missing = [k for k in params if k not in block]
    if missing:
        raise ConfigError(f"{path}: kind {kind!r} requires keys {missing}")
    unused = sorted(set(block) - {tag} - set(params))
    if unused:
        raise ConfigError(f"{path}: keys {unused} do not apply to kind {kind!r}")
    try:
        return build(kind, {k: block[k] for k in params})
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _build_oracle(block: dict, cost: CostSpec) -> OracleSpec:
    def noise(kind, params):
        if "dim" in _NOISE_KINDS[kind].__dataclass_fields__:
            params["dim"] = cost.dim
        return _NOISE_KINDS[kind](**params)

    def oracle(mode, params):
        if "noise" in params:
            params["noise"] = _kind_block(params["noise"], "oracle.noise", noise)
        return ORACLE_MODES[mode](cost=cost, **params)

    return _kind_block(block, "oracle", oracle)


def _build_method(kind: str, params: dict) -> tuple:
    """(ScheduleSpec, ClipSpec or None) of a method block's step and clip
    blocks; a clipped kind is the one that lists a clip block."""
    step = _kind_block(params["step"], "method.step", lambda k, p: ScheduleSpec(k, *p.values()))
    clip = None
    if "clip" in params:  # a clip kind lists its coefficient, then p: ClipSpec's field order
        clip = _kind_block(params["clip"], "method.clip", lambda k, p: ClipSpec(k, *p.values()))
    return step, clip


@dataclasses.dataclass(frozen=True, eq=False)
class Experiment:
    """A validated experiment: run configuration plus analysis/output plan."""

    raw: dict
    digest: str
    run_config: RunConfig
    n_runs: int
    t_grid: np.ndarray | None  # ensemble.t_grid, the default tail grid; None means 1..horizon_T
    candidates: tuple  # RateSpecs fitted by `report`
    law: RateSpec | None  # the paper's tail law of the method, overlaid by `tail`
    sota: tuple  # baseline RateSpecs overlaid by `tail`
    output_dir: str


def config_digest(doc: dict) -> str:
    """sha256 (16 hex digits) of the sorted compact JSON of doc without its output block."""
    content = {k: v for k, v in doc.items() if k != "output"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_analysis(ana: dict) -> tuple:
    """(candidate RateSpecs, baseline RateSpecs) of an analysis block."""
    _require_keys(ana, "analysis", (), ("candidates", "candidate_p", "sota"))
    names = ana.get("candidates", [])
    if not isinstance(names, list) or not all(isinstance(c, str) for c in names):
        raise ConfigError("analysis.candidates: expected a list of family names")
    if "candidate_p" in ana and "power-over-log" not in names:
        raise ConfigError("analysis.candidate_p: applies only when analysis.candidates lists 'power-over-log'")
    try:
        candidates = decay_families(names, p=ana.get("candidate_p"))
    except ValueError as e:
        raise ConfigError(f"analysis.candidates: {e}") from e
    entries = ana.get("sota", [])
    if not isinstance(entries, list):
        raise ConfigError("analysis.sota: expected a list of curve specs")
    sota = []
    for i, entry in enumerate(entries):
        path = f"analysis.sota[{i}]"
        _kind_of(entry, path, "kind", SOTA_KINDS)
        try:  # the keys and values a curve kind takes are theory's to check
            sota.append(sota_curves(**entry))
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from e
    return candidates, tuple(sota)


def _paper_law(rc: RunConfig) -> RateSpec | None:
    """The paper's closed-form tail law that applies to a run configuration, if any."""
    cert = rc.certified_constants()
    G = cert["G"]
    if rc.clip_schedule is None:
        return rate_sgd(M=cert["M"], G=G) if "M" in cert else None
    clip = rc.clip_schedule
    if clip.kind == "paper-eq5":
        return rate_csgd(G=G, p=clip.p)
    if clip.kind == "general-C":
        return rate_csgd_generalC(G=G, C=clip.G_or_C, p=clip.p)
    return None


def parse_config(doc: dict) -> Experiment:
    """Validate a config document and build the experiment objects."""
    _require_keys(doc, "$", ("cost", "oracle", "method", "ensemble"), ("analysis", "output"))

    cost = _kind_block(doc["cost"], "cost", lambda name, params: COSTS[name][0](**params))
    oracle = _build_oracle(doc["oracle"], cost)

    step, clip = _kind_block(doc["method"], "method", _build_method)

    ens = doc["ensemble"]
    _require_keys(
        ens,
        "ensemble",
        ("n_runs", "horizon_T", "seed", "init_x1", "epsilon_grid"),
        ("t_grid",),
    )
    try:
        n_runs = int_param("n_runs", ens["n_runs"])
        run_config = RunConfig(
            cost=cost,
            oracle=oracle,
            init_x1=ens["init_x1"],
            horizon_T=ens["horizon_T"],
            step_schedule=step,
            clip_schedule=clip,
            seed=ens["seed"],
            epsilon_grid=ens["epsilon_grid"],
        )
        law = _paper_law(run_config)
    except ValueError as e:
        raise ConfigError(f"ensemble/method: {e}") from e
    t_grid = None
    if "t_grid" in ens:
        try:
            t_grid = check_t_grid(ens["t_grid"], run_config.horizon_T)
        except ValueError as e:
            raise ConfigError(f"ensemble.t_grid: {e}") from e

    candidates, sota = _build_analysis(doc.get("analysis", {}))

    digest = config_digest(doc)
    output_dir = f"results/{digest}"
    if "output" in doc:
        out = doc["output"]
        _require_keys(out, "output", (), ("directory",))
        if "directory" in out:
            if not isinstance(out["directory"], str) or not out["directory"]:
                raise ConfigError("output.directory: expected a non-empty string")
            output_dir = out["directory"]

    return Experiment(
        raw=doc,
        digest=digest,
        run_config=run_config,
        n_runs=n_runs,
        t_grid=t_grid,
        candidates=candidates,
        law=law,
        sota=sota,
        output_dir=output_dir,
    )


def _non_finite(name: str):
    raise ValueError(f"{name} is not a finite number")


def load_config(path: str) -> dict:
    """Parse a JSON config file; syntax errors carry line/column anchors, and
    NaN, Infinity and -Infinity are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_non_finite)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e


# built-in, fully populated experiment configurations
_PRESETS = {
    # exactly solvable instance: quadratic-in-a-ball cost, +/- x1 noise,
    # alpha_t = 1/(2 sqrt(t+1)), constant threshold 2G (never binds)
    "appendix-f": {
        "cost": {"name": "huber", "threshold_G": 1.0, "dim": 2},
        "oracle": {"mode": "additive-noise", "noise": {"kind": "two-point", "v": [0.6, 0.0]}},
        "method": {
            "kind": "clipped",
            "step": {"kind": "sgd-sqrt", "a": 0.5},
            "clip": {"kind": "constant", "threshold": 2.0},
        },
        "ensemble": {
            "n_runs": 4096,
            "horizon_T": 16,
            "seed": 20260801,
            "init_x1": [0.6, 0.0],
            "epsilon_grid": [0.09, 0.18],
            "t_grid": list(range(1, 16)),
        },
        "analysis": {
            "candidates": ["sqrt-t", "t-over-log", "linear-t"],
            "sota": [{"kind": "liu-sgd", "B": 0.6}],
        },
        "output": {"directory": "results/appendix-f"},
    },
    "sgd-bounded": {
        "cost": {"name": "pseudo-huber", "scale": 1.0, "dim": 4},
        "oracle": {"mode": "additive-noise", "noise": {"kind": "sphere-bounded", "radius": 0.5}},
        "method": {"kind": "vanilla", "step": {"kind": "sgd-sqrt", "a": 1.0}},
        "ensemble": {
            "n_runs": 4096,
            "horizon_T": 400,
            "seed": 20260802,
            "init_x1": [1.5, -1.0, 0.8, -0.3],
            "epsilon_grid": [0.02, 0.05, 0.1],
        },
        "analysis": {
            "candidates": ["sqrt-t", "t-over-log", "linear-t"],
            "sota": [{"kind": "liu-sgd", "B": 0.5}],
        },
        "output": {"directory": "results/sgd-bounded"},
    },
    "csgd-pareto": {
        "cost": {"name": "pseudo-huber", "scale": 1.0, "dim": 4},
        "oracle": {
            "mode": "additive-noise",
            "noise": {
                "kind": "symmetrized-pareto",
                "x_m": 0.5,
                "tail_index": 2.0,
                "moment_order": 1.5,
            },
        },
        "method": {
            "kind": "clipped",
            "step": {"kind": "csgd-power", "p": 1.5},
            "clip": {"kind": "paper-eq5", "p": 1.5, "G": 2.0},
        },
        "ensemble": {
            "n_runs": 4096,
            "horizon_T": 400,
            "seed": 20260803,
            "init_x1": [1.5, -1.0, 0.8, -0.3],
            "epsilon_grid": [0.02, 0.05, 0.1],
        },
        "analysis": {
            "candidates": ["sqrt-t", "power-over-log", "t-over-log2"],
            "candidate_p": 1.5,
            "sota": [
                {"kind": "nguyen-csgd", "sigma": 1.26, "delta": 1.55, "L": 1.0, "p": 1.5}
            ],
        },
        "output": {"directory": "results/csgd-pareto"},
    },
}
PRESET_NAMES = tuple(_PRESETS)


def preset_config(name: str) -> dict:
    """A fresh copy of a built-in experiment configuration."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return copy.deepcopy(_PRESETS[name])
