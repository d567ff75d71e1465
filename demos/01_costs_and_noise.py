#!/usr/bin/env python3
"""Test costs and noise models, and the certificates they carry.

Every cost exposes its smoothness constant L, gradient bound G and lower
bound in closed form, and every noise model carries either an almost-sure
norm bound M or an exact p-th moment bound sigma^p.  This script audits
both: gradients against central finite differences, and moment certificates
against brute-force Monte Carlo.
"""

import numpy as np

from ldplab import (
    GaussianNoise,
    HuberCost,
    PseudoHuberCost,
    SphereNoise,
    SymmetrizedParetoNoise,
    TwoPointNoise,
    finite_difference_gradient,
    run_generator,
    synthetic_logistic_cost,
)


def audit_cost(cost, n_points=200):
    rng = np.random.default_rng(1)
    worst_fd, worst_g, worst_f = 0.0, 0.0, np.inf
    for _ in range(n_points):
        x = 3.0 * rng.standard_normal(cost.dim)
        g = np.asarray(cost.gradient(x))
        fd = finite_difference_gradient(cost, x)
        worst_fd = max(worst_fd, np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
        worst_g = max(worst_g, np.linalg.norm(g))
        worst_f = min(worst_f, float(cost.value(x)))
    print(f"  {cost.name}: dim={cost.dim}  L={cost.smoothness_L:g}  G={cost.grad_bound_G:g}")
    print(f"    max rel FD error     : {worst_fd:.2e}   (analytic gradient vs central differences)")
    print(f"    max ||grad|| observed: {worst_g:.4f} <= G = {cost.grad_bound_G:g}")
    print(f"    min value observed   : {worst_f:.4f} >= f_star = {cost.lower_bound_fstar:g}")


def audit_noise(model, p, n=10**6):
    z = model.sample_block(run_generator(2, 0), n)
    mean_norm = np.linalg.norm(z.mean(axis=0))
    emp = np.mean(np.linalg.norm(z, axis=1) ** p)
    cert = model.moment_bound(p)
    print(f"  {model.kind}: ||sample mean|| = {mean_norm:.2e} (unbiased)")
    print(f"    E||z||^{p:g}: MC = {emp:.4f}  certificate = {cert:.4f}")


def main():
    print("== costs with certified constants")
    audit_cost(HuberCost(threshold_G=1.0, dim=2))
    audit_cost(PseudoHuberCost(scale=1.0, dim=4))
    audit_cost(synthetic_logistic_cost(m=32, dim=3, dataset_seed=7))

    print()
    print("== the piecewise cost is smooth across its ball boundary")
    cost = HuberCost(1.0, 3)
    u = np.array([2.0, -1.0, 2.0]) / 3.0
    inner, outer = cost.gradient(u * (1 - 1e-9)), cost.gradient(u * (1 + 1e-9))
    print(f"  gradient jump across ||x|| = G: {np.linalg.norm(inner - outer):.2e}")

    print()
    print("== noise models and exact moment certificates")
    audit_noise(SphereNoise(radius=2.0, dim=3), p=1.5)
    audit_noise(TwoPointNoise(v=np.array([0.6, 0.0])), p=2.0)
    audit_noise(SymmetrizedParetoNoise(x_m=1.0, tail_index=3.0, moment_order=1.5, dim=2), p=1.5)
    audit_noise(GaussianNoise(scale=0.8, dim=3), p=2.0)

    print()
    print("== heavy tails in one line")
    par = SymmetrizedParetoNoise(x_m=1.0, tail_index=1.7, moment_order=1.2, dim=1)
    r = np.linalg.norm(par.sample_block(run_generator(3, 0), 10**6), axis=1)
    print(f"  pareto tail index 1.7: max of 10^6 radii = {r.max():.1f}; "
          f"sample variance = {r.var():.1f} (2nd moment is infinite)")


if __name__ == "__main__":
    main()
