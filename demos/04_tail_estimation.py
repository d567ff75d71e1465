#!/usr/bin/env python3
"""Ensemble tail estimation and decay-rate fitting, end to end.

Runs a large ensemble on the solvable instance, estimates P(F_t > eps) with
Wilson intervals from recorded hitting times, fits candidate decay families
to log p_hat vs -n_t, and renders a self-contained SVG chart.

The stuck-at-start event contributes exactly 2^(1-t) to this tail, and for
small t it dominates, so fitting that range recovers the linear-in-t family
with slope close to ln 2 = 0.6931.  At larger t, paths that left the start
but have not yet pushed the running minimum below eps take over and the
decay visibly flattens; the fit is therefore restricted to the range where
the floor dominates.
"""

import math
import os

import numpy as np

from ldplab import decay_family, estimate_tail, fit_decay, run_ensemble
from ldplab.config import parse_config, preset_config
from ldplab.svgplot import line_chart

N_RUNS = 2**18
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def main():
    doc = preset_config("appendix-f")
    doc["ensemble"]["horizon_T"] = 18
    exp = parse_config(doc)
    eps = 0.18

    print(f"== running N = {N_RUNS} trajectories (lean mode, hitting times only)")
    res = run_ensemble(exp.run_config, N_RUNS, workers=2)
    tail = estimate_tail(res, eps, np.arange(2, 18))
    print("   t     exceed      p_hat        Wilson 95%")
    for t, c, p, lo, hi in zip(tail.t_grid, tail.exceed_count, tail.p_hat, tail.ci_low, tail.ci_high):
        print(f"  {t:2d}   {c:8d}   {p:.6f}   [{lo:.6f}, {hi:.6f}]")

    print()
    print("== fitting candidate decay families on t = 3..11 (floor-dominated range)")
    fit_tail = estimate_tail(res, eps, np.arange(3, 12))
    candidates = [decay_family(k) for k in ("sqrt-t", "t-over-log", "linear-t")]
    fits = fit_decay(fit_tail, candidates)
    for f in sorted(fits, key=lambda f: -f.r_squared):
        print(
            f"  {f.candidate:>12s}: slope = {f.slope_hat:.4f}  R^2 = {f.r_squared:.6f}  "
            f"({f.points_used} points)"
        )
    best = max(fits, key=lambda f: f.r_squared)
    print(f"  best family: {best.candidate} (slope vs ln 2 = {math.log(2.0):.4f})")

    os.makedirs(OUT_DIR, exist_ok=True)
    floor = 2.0 ** (1 - tail.t_grid.astype(float))
    svg = line_chart(
        [
            {"x": tail.t_grid, "y": tail.p_hat, "label": f"empirical, eps={eps:g}"},
            {"x": tail.t_grid, "y": floor, "label": "stuck-event floor 2^(1-t)", "dash": "5,4"},
        ],
        band={"x": tail.t_grid, "lo": tail.ci_low, "hi": tail.ci_high, "label": "Wilson 95%"},
        title=f"P(F_t > {eps:g}) over {N_RUNS} runs",
        xlabel="t",
        ylabel="P(F_t > eps)",
    )
    path = os.path.join(OUT_DIR, "tail_demo.svg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"\nwrote {path}")


if __name__ == "__main__":
    main()
