"""Experiment configuration: schema, validation, the digest, and presets.

Configs are JSON documents with blocks ``cost``, ``oracle``, ``method``,
``ensemble`` and optional ``analysis`` / ``output``.  ``parse_config`` is the
only path from a document to the objects the lab uses.  Validation is strict:
unknown keys are errors, not warnings, because a silently ignored typo in an
epsilon or a moment order invalidates an experiment.  Every error message is
anchored to the JSON path of the offending entry.

The config digest covers the whole document except its ``output`` block,
which only says where results go.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, huber_cost, pseudo_huber_cost, synthetic_logistic_cost
from .oracles import AdditiveOracle, BatchSubsampleOracle, OracleSpec, make_noise
from .optimizers import ClipSpec, RunConfig, ScheduleSpec
from .theory import decay_family, sota_curves

TOOL_NAME = "ldplab"
TOOL_VERSION = "0.1.0"

PRESET_NAMES = ("appendix-f", "sgd-bounded", "csgd-pareto")


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


def _number(block: dict, path: str, key: str):
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {v!r}")
    return v


def _integer(block: dict, path: str, key: str) -> int:
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return v


def _vector(block: dict, path: str, key: str) -> list:
    v = block[key]
    if not isinstance(v, list) or not v or not all(
        isinstance(c, (int, float)) and not isinstance(c, bool) for c in v
    ):
        raise ConfigError(f"{path}.{key}: expected a non-empty list of numbers")
    return [float(c) for c in v]


def _build_cost(block: dict) -> CostSpec:
    _require_keys(block, "cost", ("name",), ("threshold_G", "scale", "dim", "m", "dataset_seed"))
    name = block["name"]
    try:
        if name == "huber":
            _require_keys(block, "cost", ("name", "threshold_G", "dim"))
            return huber_cost(_number(block, "cost", "threshold_G"), _integer(block, "cost", "dim"))
        if name == "pseudo-huber":
            _require_keys(block, "cost", ("name", "scale", "dim"))
            return pseudo_huber_cost(_number(block, "cost", "scale"), _integer(block, "cost", "dim"))
        if name == "batch-logistic":
            _require_keys(block, "cost", ("name", "m", "dim", "dataset_seed"))
            return synthetic_logistic_cost(
                _integer(block, "cost", "m"),
                _integer(block, "cost", "dim"),
                _integer(block, "cost", "dataset_seed"),
            )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"cost: {e}") from e
    raise ConfigError(f"cost.name: unknown cost {name!r}")


def _build_oracle(block: dict, cost: CostSpec) -> OracleSpec:
    _require_keys(block, "oracle", ("mode",), ("noise", "batch_size"))
    mode = block["mode"]
    if mode == "additive-noise":
        _require_keys(block, "oracle", ("mode", "noise"))
        noise_block = block["noise"]
        _require_keys(
            noise_block,
            "oracle.noise",
            ("kind",),
            ("radius", "v", "x_m", "tail_index", "moment_order", "scale"),
        )
        kind = noise_block["kind"]
        params = {k: v for k, v in noise_block.items() if k != "kind"}
        if "v" in params:
            params["v"] = np.asarray(_vector(noise_block, "oracle.noise", "v"))
        else:
            params["dim"] = cost.dim
        try:
            noise = make_noise(kind, **params)
            return AdditiveOracle(cost=cost, noise=noise)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"oracle.noise: {e}") from e
    if mode == "batch-subsample":
        _require_keys(block, "oracle", ("mode", "batch_size"))
        try:
            return BatchSubsampleOracle(cost=cost, batch_size=_integer(block, "oracle", "batch_size"))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"oracle: {e}") from e
    raise ConfigError(f"oracle.mode: unknown mode {mode!r}")


def _build_step(block: dict) -> ScheduleSpec:
    _require_keys(block, "method.step", ("kind",), ("a", "p", "c"))
    try:
        return ScheduleSpec(
            kind=block["kind"],
            a=float(_number(block, "method.step", "a")) if "a" in block else None,
            p=float(_number(block, "method.step", "p")) if "p" in block else None,
            c=float(_number(block, "method.step", "c")) if "c" in block else None,
        )
    except ValueError as e:
        raise ConfigError(f"method.step: {e}") from e


def _build_clip(block: dict) -> ClipSpec:
    _require_keys(block, "method.clip", ("kind",), ("p", "G", "C", "threshold"))
    kind = block.get("kind")
    coeff_key = {"paper-eq5": "G", "general-C": "C", "constant": "threshold"}.get(kind)
    if coeff_key is None:
        raise ConfigError(f"method.clip.kind: unknown kind {kind!r}")
    if coeff_key not in block:
        raise ConfigError(f"method.clip: kind {kind!r} requires key {coeff_key!r}")
    extra = {"G", "C", "threshold"} & set(block) - {coeff_key}
    if extra:
        raise ConfigError(f"method.clip: keys {sorted(extra)} do not apply to kind {kind!r}")
    try:
        return ClipSpec(
            kind=kind,
            G_or_C=float(_number(block, "method.clip", coeff_key)),
            p=float(_number(block, "method.clip", "p")) if "p" in block else None,
        )
    except ValueError as e:
        raise ConfigError(f"method.clip: {e}") from e


@dataclass(frozen=True, eq=False)
class Experiment:
    """A validated experiment: run configuration plus analysis/output plan."""

    raw: dict
    digest: str
    run_config: RunConfig
    n_runs: int
    t_grid: np.ndarray  # default tail grid: ensemble.t_grid, else 1..horizon_T
    candidates: tuple  # RateSpecs fitted by `report`
    sota: tuple  # SotaCurves overlaid by `tail`
    output_dir: str


def config_digest(doc: dict) -> str:
    """sha256 (16 hex digits) of the sorted compact JSON of doc without its output block."""
    content = {k: v for k, v in doc.items() if k != "output"}
    blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _build_analysis(ana: dict) -> tuple:
    """(candidate RateSpecs, SotaCurves) of an analysis block."""
    _require_keys(ana, "analysis", (), ("candidates", "candidate_p", "sota"))
    candidate_p = None
    if "candidate_p" in ana:
        candidate_p = float(_number(ana, "analysis", "candidate_p"))
        if not 1.0 < candidate_p <= 2.0:
            raise ConfigError("analysis.candidate_p: must lie in (1, 2]")
    names = ana.get("candidates", [])
    if not isinstance(names, list) or not all(isinstance(c, str) for c in names):
        raise ConfigError("analysis.candidates: expected a list of family names")
    try:
        candidates = tuple(decay_family(name, p=candidate_p) for name in names)
    except ValueError as e:
        raise ConfigError(f"analysis.candidates: {e}") from e
    entries = ana.get("sota", [])
    if not isinstance(entries, list):
        raise ConfigError("analysis.sota: expected a list of curve specs")
    sota = []
    for i, entry in enumerate(entries):
        path = f"analysis.sota[{i}]"
        _require_keys(entry, path, ("kind",), ("B", "sigma", "delta", "L", "C", "p"))
        try:
            sota.append(sota_curves(**entry))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}: {e}") from e
    return candidates, tuple(sota)


def parse_config(doc: dict) -> Experiment:
    """Validate a config document and build the experiment objects."""
    _require_keys(doc, "$", ("cost", "oracle", "method", "ensemble"), ("analysis", "output"))

    cost = _build_cost(doc["cost"])
    oracle = _build_oracle(doc["oracle"], cost)

    method = doc["method"]
    _require_keys(method, "method", ("kind", "step"), ("clip",))
    kind = method["kind"]
    if kind not in ("vanilla", "clipped"):
        raise ConfigError(f"method.kind: unknown method {kind!r}")
    step = _build_step(method["step"])
    clip = None
    if kind == "clipped":
        if "clip" not in method:
            raise ConfigError("method: clipped method requires a clip block")
        clip = _build_clip(method["clip"])
    elif "clip" in method:
        raise ConfigError("method: vanilla method must not carry a clip block")

    ens = doc["ensemble"]
    _require_keys(
        ens,
        "ensemble",
        ("n_runs", "horizon_T", "seed", "init_x1", "epsilon_grid"),
        ("t_grid",),
    )
    n_runs = _integer(ens, "ensemble", "n_runs")
    if n_runs < 1:
        raise ConfigError("ensemble.n_runs: must be >= 1")
    horizon = _integer(ens, "ensemble", "horizon_T")
    seed = _integer(ens, "ensemble", "seed")
    init_x1 = _vector(ens, "ensemble", "init_x1")
    epsilon_grid = _vector(ens, "ensemble", "epsilon_grid")
    t_grid = np.arange(1, horizon + 1, dtype=np.int64)
    if "t_grid" in ens:
        tg = ens["t_grid"]
        if not isinstance(tg, list) or not all(isinstance(t, int) and not isinstance(t, bool) for t in tg):
            raise ConfigError("ensemble.t_grid: expected a list of integers")
        t_grid = np.asarray(tg, dtype=np.int64)
        if t_grid.size == 0 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 1 or t_grid[-1] > horizon:
            raise ConfigError(f"ensemble.t_grid: must be strictly increasing within [1, {horizon}]")

    try:
        run_config = RunConfig(
            method=kind,
            cost=cost,
            oracle=oracle,
            init_x1=np.asarray(init_x1),
            horizon_T=horizon,
            step_schedule=step,
            clip_schedule=clip,
            seed=seed,
            epsilon_grid=np.asarray(epsilon_grid),
        )
    except ValueError as e:
        raise ConfigError(f"ensemble/method: {e}") from e

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
        sota=sota,
        output_dir=output_dir,
    )


def load_config(path: str) -> dict:
    """Parse a JSON config file; syntax errors carry line/column anchors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config: {e}") from e


def preset_config(name: str) -> dict:
    """Built-in, fully populated experiment configurations."""
    if name == "appendix-f":
        # exactly solvable instance: quadratic-in-a-ball cost, +/- x1 noise,
        # alpha_t = 1/(2 sqrt(t+1)), constant threshold 2G (never binds)
        return {
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
        }
    if name == "sgd-bounded":
        return {
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
        }
    if name == "csgd-pareto":
        return {
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
        }
    raise ConfigError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
