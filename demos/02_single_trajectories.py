#!/usr/bin/env python3
"""Single optimizer trajectories and the statistics each run records.

A run with horizon T visits iterates x_1..x_T (T-1 updates).  Run i is row
i of a full-mode ensemble, ``simulate_runs(config, [i], record_full=True)``:
the true squared gradient norm at each iterate, its running minimum F_t and
running average A_t, the clipping events, and the first hitting time of
every configured threshold (T+1 if never within T).  Identical
(config, seed, run_index) triples replay bit-identically.
"""

import numpy as np

from ldplab import simulate_runs
from ldplab.config import parse_config, preset_config


def show(config_name, run_index=0, head=10):
    config = parse_config(preset_config(config_name)).run_config
    T = config.horizon_T
    run = simulate_runs(config, [run_index], record_full=True)
    gns, fmin, favg = run.grad_norm_sq[0], run.running_min[0], run.running_avg[0]
    print(f"== {config_name} (run {run_index}, T={T})")
    print("   t    ||grad||^2        F_t           A_t")
    for t in range(head):
        print(f"  {t + 1:2d}  {gns[t]:12.6f}  {fmin[t]:12.6f}  {favg[t]:12.6f}")
    print(f"  clip events: {run.clip_events[0]}   diverged: {bool(run.diverged[0])}")
    for j, eps in enumerate(config.epsilon_grid):
        t_hit = int(run.hit[0, j])
        where = f"t = {t_hit}" if t_hit <= T else "never within T"
        print(f"  first t with ||grad||^2 <= {eps:g}: {where}")
    print()


def main():
    for name in ("appendix-f", "sgd-bounded", "csgd-pareto"):
        show(name)

    print("== determinism: replaying a run reproduces it bit for bit")
    config = parse_config(preset_config("csgd-pareto")).run_config
    a, b, c = (simulate_runs(config, [i], record_full=True).grad_norm_sq[0] for i in (123, 123, 124))
    print(f"  identical grad sequences: {np.array_equal(a, b)}")
    print(f"  neighbouring run differs: {not np.array_equal(a, c)}")


if __name__ == "__main__":
    main()
