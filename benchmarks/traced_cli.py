"""Run one ldplab CLI command with outside-in spans around its layers.

usage: python3 benchmarks/traced_cli.py SPANS_JSON RUN_ID <ldplab arguments>

The wrappers are installed after ``import ldplab.cli`` and replace each
target function in its module and in every ldplab module that imported it
by name.  Forked ensemble workers inherit them.  The spans are written to
SPANS_JSON when the command returns, and a worker's to SPANS_JSON.w<pid>.
"""

from __future__ import annotations

from time import perf_counter

BOOT = perf_counter()  # end of interpreter start-up, on the system-wide monotonic clock

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from spans import Recorder, patch_everywhere  # noqa: E402


def _probe_key(args, kwargs, result):
    """(p, gamma, ||grad f(x)|| / gamma) of one clipping_bias_probe call."""
    import numpy as np

    oracle, x, gamma = args[:3]
    gradient = type(oracle.cost).gradient
    gradient = getattr(gradient, "__wrapped__", gradient)  # untraced
    grad_norm = float(np.linalg.norm(gradient(oracle.cost, np.asarray(x, dtype=np.float64))))
    p = float(oracle.moment_certificate()[0])
    return {"key": [round(p, 12), round(float(gamma), 12), round(grad_norm / float(gamma), 12)]}


def install(rec: Recorder) -> None:
    from ldplab import cli, config, costs, montecarlo, optimizers, oracles, rng, svgplot, theory

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ldplab"]

    def full(owner, attr, name, **kw):
        patch_everywhere(modules, owner, attr, rec.full(name, getattr(owner, attr), **kw))

    def leaf(module, base, attr, name, **kw):
        classes = {c for c in vars(module).values() if isinstance(c, type) and issubclass(c, base)}
        for cls in classes:
            if attr in vars(cls):
                setattr(cls, attr, rec.leaf(name, vars(cls)[attr], **kw))

    file_bytes = lambda a, k, r: {"bytes": os.path.getsize(a[0])}
    full(cli, "_write_csv", "cli.write_csv", attrs=file_bytes)
    full(cli, "_read_csv", "cli.read_csv", attrs=file_bytes)
    full(config, "parse_config", "config.parse")
    full(montecarlo, "run_ensemble", "montecarlo.run_ensemble")
    full(montecarlo, "_chunk_job", "montecarlo.chunk", flush_in_worker=True)
    full(
        optimizers,
        "simulate_runs",
        "optimizers.simulate_runs",
        attrs=lambda a, k, r: {"runs": int(r.n_runs), "steps": int(r.n_runs) * (r.horizon_T - 1)},
    )
    full(montecarlo, "tail_from_hitting_times", "montecarlo.tail")
    full(montecarlo, "fit_decay", "montecarlo.fit")
    full(
        montecarlo,
        "verify_lemma_suite",
        lambda a, k: f"montecarlo.suite.{a[0] if a else k['suite']}",
    )
    full(montecarlo, "appendix_f_enumeration", "montecarlo.enum")
    full(oracles, "clipping_bias_probe", "oracles.probe", attrs=_probe_key)
    full(theory, "fenchel_legendre", "theory.conjugate")
    full(svgplot, "line_chart", "svgplot.chart")

    leaf(rng, rng.StreamPool, "reset", "rng.reset")
    leaf(oracles, oracles.OracleSpec, "randomness_block", "oracles.draw", nbytes=lambda r: r.nbytes)
    leaf(oracles, oracles.OracleSpec, "gradients", "oracles.gradients")
    leaf(costs, costs.CostSpec, "gradient", "costs.gradient")


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder(run_id, worker_path=spans_path)
    cli = rec.full("cli.import", importlib.import_module)("ldplab.cli")
    install(rec)
    code = rec.full("cli.main", cli.main)(argv)
    rec.write(spans_path, {"command": argv[0], "boot": BOOT})
    return code


if __name__ == "__main__":
    sys.exit(main())
