#!/usr/bin/env python3
"""Statistical audits of the concentration bounds the tail laws rest on.

Five suites, each comparing an empirical quantity against its asserted
bound with a 5-standard-error slack (hard almost-sure bounds get none):

  mgf-bounded   E[exp(||z||^2/M^2)] <= e for a.s. M-bounded noise
  mgf-inner     E[exp(<x,z>)] <= exp(3 M^2 ||x||^2 / 4) on a norm grid
  clip-bias     ||E[clipped g] - grad f|| <= 4 sigma^p gamma^(1-p)
  clip-subgauss log E[exp(s<u, theta>)] <= 3 gamma^2 s^2 for centred clips
  batch-bound   ||g - grad f|| <= 2 G_ell for the subsample oracle (hard)

This demo runs at 10^5 samples for speed; `ldplab verify all` and the
acceptance tests run the same suites at 10^6.  Each `verify_lemma_suite`
call is a one-suite `verify` request: it runs the command's code, with its
checks, and spreads a suite's jobs over the usable CPUs.
"""

from ldplab import verify_lemma_suite

N_SAMPLES = 10**5


def main():
    for suite in ("mgf-bounded", "mgf-inner", "clip-bias", "clip-subgauss", "batch-bound"):
        report = verify_lemma_suite(suite, n_samples=N_SAMPLES, seed=42)
        print(f"== {suite}: {'all pass' if report.passed else 'FAILURES'}")
        for c in report.checks[:6]:
            slack = f"{(c.empirical - c.bound) / c.se:+7.2f} SE" if c.se > 0 else "   hard"
            print(
                f"  [{'ok' if c.passed else 'XX'}] {c.label:48s} "
                f"emp={c.empirical:10.4g}  bound={c.bound:10.4g}  {slack}"
            )
        if len(report.checks) > 6:
            print(f"  ... and {len(report.checks) - 6} more checks")
        print()


if __name__ == "__main__":
    main()
