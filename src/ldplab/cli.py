"""Command-line orchestration: simulate, tail, fit, verify, rates, compare-sota, report.

Exit codes: 0 success, 2 configuration/usage error (any argument the
library rejects), 3 IO error, 4 insufficient data, 5 verification failure.

All CSV output is UTF-8 with a header row, '.' decimal separator and LF line
endings; the first line is a '#' comment carrying the tool version, the
config digest and the certified oracle constants, so every file is
self-describing.  Outputs are deterministic: re-running a command with the
same config and seed reproduces files byte for byte at any --workers value.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .config import (
    PRESET_NAMES,
    TOOL_NAME,
    TOOL_VERSION,
    ConfigError,
    Experiment,
    load_config,
    parse_config,
    preset_config,
)
from .montecarlo import (
    LEMMA_SUITES,
    InsufficientDataError,
    TailEstimate,
    appendix_f_enumeration,
    fit_decay,
    run_ensemble,
    tail_from_hitting_times,
    verify_lemma_suite,
    wilson_interval,
)
from .optimizers import RunConfig
from .svgplot import line_chart
from .theory import (
    RateSpec,
    decay_family,
    lower_bound_exact_prob,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    sota_curves,
    transform_consistency,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INSUFFICIENT = 4
EXIT_VERIFY = 5

_VERIFY_SUITES = LEMMA_SUITES + ("appendix-f-enum", "rates")


# ---------------------------------------------------------------------------
# formatting and file helpers
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _provenance_comment(digest: str, certified: dict) -> str:
    parts = [f"tool={TOOL_NAME}", f"version={TOOL_VERSION}", f"digest={digest}"]
    for k in sorted(certified):
        parts.append(f"{k}={_fmt_cell(certified[k])}")
    return "# " + " ".join(parts)


def _write_csv(path: str, comment: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])


def _read_csv(path: str):
    """Returns (comment key/value dict, header list, rows as string lists)."""
    meta = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for record in csv.reader(line for line in fh if not line.startswith("#")):
            if not record:
                continue
            if header is None:
                header = record
            else:
                rows.append(record)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            for token in line[1:].split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    meta[k] = v
    if header is None:
        raise OSError(f"{path}: no CSV header found")
    return meta, header, rows


def _resolve_out(flag_value: str | None, config_dir: str) -> str:
    """--out wins; else the config directory, rooted at $LDPLAB_OUT if set."""
    if flag_value:
        return flag_value
    root = os.environ.get("LDPLAB_OUT")
    if root and not os.path.isabs(config_dir):
        return os.path.join(root, config_dir)
    return config_dir


def _parse_t_grid(spec: str, expand_range) -> np.ndarray:
    """A --t-grid value: 'lo:hi' through expand_range(lo, hi), or a comma list."""
    try:
        if ":" not in spec:
            return np.asarray(sorted({int(tok) for tok in spec.split(",")}), dtype=np.int64)
        lo, hi = (int(tok) for tok in spec.split(":", 1))
    except ValueError as e:
        raise ConfigError(f"--t-grid: cannot parse {spec!r}: {e}") from e
    return expand_range(lo, hi)


def _read_manifest(meta_path: str) -> dict:
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise OSError(f"{meta_path}: corrupt run manifest: {e}") from e


_HIT_PREFIX = "hit_"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _load_experiment(args) -> Experiment:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    doc = preset_config(args.preset) if args.preset else load_config(args.config)
    if args.seed is not None:
        if "ensemble" in doc and isinstance(doc["ensemble"], dict):
            doc["ensemble"]["seed"] = args.seed
    return parse_config(doc)


def _cmd_simulate(args) -> int:
    exp = _load_experiment(args)
    outdir = _resolve_out(args.out, exp.output_dir)
    meta_path = os.path.join(outdir, "meta.json")
    if os.path.exists(meta_path) and not args.force:
        old = _read_manifest(meta_path)
        if old.get("config_digest") != exp.digest:
            print(
                f"error: {outdir} holds results for digest {old.get('config_digest')}, "
                f"not {exp.digest}; pass --force to overwrite",
                file=sys.stderr,
            )
            return EXIT_IO
    os.makedirs(outdir, exist_ok=True)

    result = run_ensemble(exp.run_config, exp.n_runs, workers=args.workers)
    arrays = result.arrays
    T = exp.run_config.horizon_T
    eps_grid = exp.run_config.epsilon_grid
    certified = exp.run_config.certified_constants()

    header = ["run_index", "diverged", "clip_events"] + [
        f"{_HIT_PREFIX}{repr(float(e))}" for e in eps_grid
    ]
    hit_out = np.where(arrays.hit <= T, arrays.hit, -1)  # -1 encodes "never within T"

    def rows():
        for i in range(arrays.n_runs):
            yield [
                int(arrays.run_indices[i]),
                bool(arrays.diverged[i]),
                int(arrays.clip_events[i]),
            ] + [int(h) for h in hit_out[i]]

    _write_csv(
        os.path.join(outdir, "trajsummary.csv"),
        _provenance_comment(exp.digest, certified),
        header,
        rows(),
    )
    meta = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "config_digest": exp.digest,
        "config": exp.raw,
        "certified": {k: float(v) for k, v in certified.items()},
        "n_runs": exp.n_runs,
        "horizon_T": T,
        "diverged_runs": result.diverged_count,
    }
    with open(meta_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(
        f"simulated {exp.n_runs} runs (T={T}, digest={exp.digest}, "
        f"diverged={result.diverged_count}) -> {outdir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def _load_results(results_dir: str):
    """(manifest, re-parsed Experiment, trajsummary header, rows) of a results directory."""
    meta_path = os.path.join(results_dir, "meta.json")
    meta = _read_manifest(meta_path)
    config = meta.get("config") if isinstance(meta, dict) else None
    if not isinstance(config, dict):
        raise OSError(f"{meta_path}: corrupt run manifest: no config object")
    # analysis never uses the output block (nor does the digest), so an
    # output key this version no longer accepts must not block it
    exp = parse_config({k: v for k, v in config.items() if k != "output"})
    comment, header, rows = _read_csv(os.path.join(results_dir, "trajsummary.csv"))
    return meta, exp, header, rows


def _hit_column(header: list, rows: list, epsilon: float, horizon: int) -> np.ndarray:
    eps_cols = {}
    for j, name in enumerate(header):
        if name.startswith(_HIT_PREFIX):
            eps_cols[float(name[len(_HIT_PREFIX):])] = j
    matches = [e for e in eps_cols if math.isclose(e, epsilon, rel_tol=1e-12)]
    if not matches:
        raise ConfigError(
            f"epsilon={epsilon!r} was not recorded; available: {sorted(eps_cols)}"
        )
    j = eps_cols[matches[0]]
    hit = np.asarray([int(r[j]) for r in rows], dtype=np.int64)
    hit[hit < 0] = horizon + 1
    return hit


def _theory_rate_for(rc: RunConfig) -> RateSpec | None:
    """The closed-form tail law that applies to a run configuration, if any."""
    cert = rc.certified_constants()
    G = cert["G"]
    if rc.method == "vanilla":
        return rate_sgd(M=cert["M"], G=G) if "M" in cert else None
    clip = rc.clip_schedule
    if clip.kind == "paper-eq5":
        return rate_csgd(G=G, p=clip.p)
    if clip.kind == "general-C":
        return rate_csgd_generalC(G=G, C=clip.G_or_C, p=clip.p)
    return None


def _anchored_curve(nt_fn, slope: float, t_grid: np.ndarray, p_anchor: float, t_anchor: int):
    """exp(slope * n_t), scaled to pass through the anchor point."""
    ts = t_grid[t_grid >= 3].astype(np.float64)
    if ts.size == 0 or t_anchor < 3:
        return None
    nt = np.asarray(nt_fn(ts), dtype=np.float64)
    nt0 = float(nt_fn(float(t_anchor)))
    return ts, p_anchor * np.exp(slope * (nt - nt0))


def _write_tail(path: str, meta: dict, header: list, rows: list, epsilon: float, t_grid) -> TailEstimate:
    """Estimate one epsilon's tail from a results directory and write it as a tail CSV."""
    T = int(meta["horizon_T"])
    hit = _hit_column(header, rows, epsilon, T)
    tail = tail_from_hitting_times(hit, T, epsilon, t_grid, int(meta.get("diverged_runs", 0)))
    _write_csv(
        path,
        _provenance_comment(meta["config_digest"], meta.get("certified", {})),
        ["t", "epsilon", "N", "exceed", "p_hat", "ci_low", "ci_high"],
        (
            [int(t), tail.epsilon, tail.n_runs, int(c), p, lo, hi]
            for t, c, p, lo, hi in zip(
                tail.t_grid, tail.exceed_count, tail.p_hat, tail.ci_low, tail.ci_high
            )
        ),
    )
    return tail


def _cmd_tail(args) -> int:
    meta, exp, header, rows = _load_results(args.results_dir)
    digest = meta["config_digest"]
    if args.t_grid is None:
        t_grid = exp.t_grid
    else:
        t_grid = _parse_t_grid(args.t_grid, lambda lo, hi: np.arange(lo, hi + 1, dtype=np.int64))
    out_csv = os.path.join(args.results_dir, "tail.csv")
    tail = _write_tail(out_csv, meta, header, rows, args.epsilon, t_grid)
    print(f"wrote {out_csv}")

    if not args.no_svg:
        series = [
            {
                "x": tail.t_grid,
                "y": tail.p_hat,
                "label": f"empirical, eps={args.epsilon:g}",
                "color": "#1f77b4",
            }
        ]
        positive = (tail.p_hat > 0) & (tail.t_grid >= 3)
        if np.any(positive):
            anchor_idx = int(np.flatnonzero(positive)[0])
            t_anchor = int(tail.t_grid[anchor_idx])
            p_anchor = float(tail.p_hat[anchor_idx])
            overlays = []
            rate = _theory_rate_for(exp.run_config)
            if rate is not None:
                overlays.append(
                    (f"{rate.name} bound shape", rate.decay_rate_nt, -rate.rate_function_I(args.epsilon))
                )
            for curve in exp.sota:
                overlays.append((f"{curve.name} shape", curve.decay_rate_nt, curve.asymptotic_slope(args.epsilon)))
            for k, (label, nt_fn, slope) in enumerate(overlays):
                anchored = _anchored_curve(nt_fn, slope, tail.t_grid, p_anchor, t_anchor)
                if anchored is not None:
                    ts, ys = anchored
                    series.append(
                        {"x": ts, "y": ys, "label": label, "dash": "5,4",
                         "color": ["#d62728", "#2ca02c", "#9467bd", "#ff7f0e"][k % 4]}
                    )
        svg = line_chart(
            series,
            band={"x": tail.t_grid, "lo": tail.ci_low, "hi": tail.ci_high, "label": "Wilson 95%"},
            title=f"tail P(F_t > {args.epsilon:g}), N={tail.n_runs}",
            xlabel="t",
            ylabel="P(F_t > eps)",
            logy=True,
            comment=f"tool={TOOL_NAME} version={TOOL_VERSION} digest={digest}",
        )
        out_svg = os.path.join(args.results_dir, "tail.svg")
        with open(out_svg, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
        print(f"wrote {out_svg}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _tail_from_csv(path: str) -> tuple[str, TailEstimate]:
    """(digest from the provenance comment, estimate rebuilt from the counts) of a tail CSV."""
    comment, header, rows = _read_csv(path)
    cols = {name: i for i, name in enumerate(header)}
    for needed in ("t", "epsilon", "N", "exceed", "p_hat"):
        if needed not in cols:
            raise ConfigError(f"{path}: missing column {needed!r}")
    t = np.asarray([int(r[cols["t"]]) for r in rows], dtype=np.int64)
    exceed = np.asarray([int(r[cols["exceed"]]) for r in rows], dtype=np.int64)
    n = int(rows[0][cols["N"]])
    epsilon = float(rows[0][cols["epsilon"]])
    # rebuild the estimate from counts so intervals are always consistent
    p_hat = exceed / n
    lo, hi = wilson_interval(exceed, n)
    return comment.get("digest", "unknown"), TailEstimate(
        n_runs=n,
        epsilon=epsilon,
        t_grid=t,
        exceed_count=exceed,
        p_hat=p_hat,
        ci_low=lo,
        ci_high=hi,
        diverged_count=0,
    )


def _cmd_fit(args) -> int:
    digest, tail = _tail_from_csv(args.tail_csv)
    names = args.candidates.split(",") if args.candidates else ["sqrt-t", "t-over-log", "linear-t"]
    fits = fit_decay(tail, [decay_family(name, p=args.p) for name in names])
    out_csv = os.path.join(os.path.dirname(os.path.abspath(args.tail_csv)), "fit.csv")
    _write_csv(
        out_csv,
        _provenance_comment(digest, {}),
        ["candidate", "slope_hat", "intercept", "r_squared", "points_used"],
        ([f.candidate, f.slope_hat, f.intercept, f.r_squared, f.points_used] for f in fits),
    )
    for f in sorted(fits, key=lambda f: -f.r_squared):
        print(
            f"{f.candidate:>16}: slope={f.slope_hat:.6g} intercept={f.intercept:.4g} "
            f"R^2={f.r_squared:.6f} ({f.points_used} points)"
        )
    print(f"wrote {out_csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_rates_rows():
    """Closed-form rate functions vs the numerical convex conjugate."""
    cases = [
        ("sgd (M=1, G=1)", rate_sgd(1.0, 1.0)),
        ("sgd (M=2, G=0.5)", rate_sgd(2.0, 0.5)),
        ("csgd p=1.5 (G=1)", rate_csgd(1.0, 1.5)),
        ("csgd p=2 (G=1)", rate_csgd(1.0, 2.0)),
        ("csgd general C=3 p=1.5 (G=1)", rate_csgd_generalC(1.0, 3.0, 1.5)),
        ("csgd general C=3 p=2 (G=1)", rate_csgd_generalC(1.0, 3.0, 2.0)),
    ]
    rows = []
    for label, rate in cases:
        err = transform_consistency(rate)
        rows.append((label, err, 1e-3, err <= 1e-3))
    return rows


def _cmd_verify(args) -> int:
    wanted = args.suites or ["all"]
    if wanted == ["all"]:
        wanted = list(_VERIFY_SUITES)
    for s in wanted:
        if s not in _VERIFY_SUITES:
            raise ConfigError(f"unknown suite {s!r}; expected {_VERIFY_SUITES} or 'all'")

    all_pass = True
    csv_rows = []
    for suite in wanted:
        print(f"== {suite}")
        if suite in LEMMA_SUITES:
            report = verify_lemma_suite(suite, n_samples=args.samples, seed=args.seed)
            for c in report.checks:
                status = "PASS" if c.passed else "FAIL"
                slack = f"{(c.empirical - c.bound) / c.se:+.2f} SE" if c.se > 0 else "hard"
                print(
                    f"  [{status}] {c.label}: empirical={c.empirical:.6g} "
                    f"bound={c.bound:.6g} ({slack})"
                )
                csv_rows.append([suite, c.label, c.empirical, c.bound, c.se, c.passed])
            all_pass &= report.passed
        elif suite == "appendix-f-enum":
            probs = appendix_f_enumeration(args.enum_t_max)
            from fractions import Fraction

            for t in sorted(probs):
                closed = lower_bound_exact_prob(t)
                equal = probs[t] == Fraction(closed)
                all_pass &= equal
                print(
                    f"  [{'PASS' if equal else 'FAIL'}] t={t}: exact={probs[t]} "
                    f"closed_form={closed!r} equal={equal}"
                )
                csv_rows.append([suite, f"t={t}", float(probs[t]), closed, 0.0, equal])
        elif suite == "rates":
            for label, err, tol, ok in _verify_rates_rows():
                all_pass &= ok
                print(
                    f"  [{'PASS' if ok else 'FAIL'}] {label}: max rel err={err:.3g} "
                    f"(tolerance {tol:g})"
                )
                csv_rows.append([suite, label, err, tol, 0.0, ok])

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_csv = os.path.join(args.out, "verify.csv")
        _write_csv(
            out_csv,
            _provenance_comment("verification", {}),
            ["suite", "check", "empirical", "bound", "se", "passed"],
            csv_rows,
        )
        print(f"wrote {out_csv}")
    print("verification: " + ("ALL PASS" if all_pass else "FAILURES PRESENT"))
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# rates / compare-sota
# ---------------------------------------------------------------------------


def _log_t_grid(lo: int, hi: int) -> np.ndarray:
    """61 log-spaced integer steps from lo to hi, deduplicated, keeping t >= 3."""
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(hi), 61)).astype(np.int64))
    return grid[grid >= 3]


def _write_curves(args, source: str, curves) -> None:
    """One (t, n_t, family, slope) row per curve and grid point; curves are (spec, slope) pairs."""
    t_grid = _parse_t_grid(args.t_grid, _log_t_grid) if args.t_grid else _log_t_grid(10, 10**6)
    rows = []
    for spec, slope in curves:
        label = spec.name + "".join(f" {k}={v:g}" for k, v in sorted(spec.params.items()))
        for t in t_grid:
            rows.append([int(t), float(spec.decay_rate_nt(float(t))), label, slope])
    _write_csv(args.out, _provenance_comment(source, {}), ["t", "n_t", "family", "slope"], rows)


def _cmd_rates(args) -> int:
    rates = []
    if args.M is not None:
        rates.append(rate_sgd(args.M, args.G))
    if args.p is not None:
        rates.append(rate_csgd(args.G, args.p))
        if args.C is not None:
            rates.append(rate_csgd_generalC(args.G, args.C, args.p))
    if not rates:
        raise ConfigError("rates: provide --M (bounded-noise law) and/or --p (clipped law)")
    _write_curves(args, "rates", [(r, -float(r.rate_function_I(args.epsilon))) for r in rates])
    print(f"wrote {args.out} ({len(rates)} families, epsilon={args.epsilon:g})")
    return EXIT_OK


def _cmd_compare_sota(args) -> int:
    curves = []
    if args.B is not None:
        curves.append(sota_curves("liu-sgd", B=args.B))
    if args.sigma is not None:
        if args.delta is None or args.L is None or args.p is None:
            raise ConfigError("nguyen-csgd curve requires --sigma --delta --L --p")
        curves.append(sota_curves("nguyen-csgd", sigma=args.sigma, delta=args.delta, L=args.L, p=args.p))
    if args.C is not None:
        if args.L is None:
            raise ConfigError("armacki-nsgd curve requires --C --L")
        curves.append(sota_curves("armacki-nsgd", C=args.C, L=args.L))
    if not curves:
        raise ConfigError("compare-sota: provide --B, --sigma/--delta/--L/--p, and/or --C/--L")
    _write_curves(args, "compare-sota", [(c, float(c.asymptotic_slope(args.epsilon))) for c in curves])
    print(f"wrote {args.out} ({len(curves)} curves, epsilon={args.epsilon:g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    meta, exp, header, rows = _load_results(args.results_dir)
    lines = [
        f"{TOOL_NAME} {TOOL_VERSION} report",
        f"results: {os.path.abspath(args.results_dir)}",
        f"config digest: {meta['config_digest']}",
        f"runs: {meta['n_runs']}  horizon T: {meta['horizon_T']}  diverged: {meta.get('diverged_runs', 0)}",
        "",
    ]
    for j, eps in enumerate(exp.run_config.epsilon_grid.tolist()):
        path = os.path.join(args.results_dir, f"tail_eps{j}.csv")
        tail = _write_tail(path, meta, header, rows, eps, exp.t_grid)
        lines.append(f"epsilon = {eps:g}:")
        shown = list(zip(tail.t_grid, tail.p_hat))[:12]
        lines.extend(f"  t={int(t):>5d}  p_hat={p:.6g}" for t, p in shown)
        if exp.candidates:
            try:
                fits = fit_decay(tail, exp.candidates)
            except InsufficientDataError as e:
                lines.append(f"  fit: skipped ({e})")
            else:
                best = max(fits, key=lambda f: f.r_squared)
                for f in fits:
                    marker = " <-- best" if f is best else ""
                    lines.append(
                        f"  fit {f.candidate}: slope={f.slope_hat:.6g} "
                        f"R^2={f.r_squared:.6f}{marker}"
                    )
        lines.append("")
    report_path = os.path.join(args.results_dir, "report.txt")
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {report_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Monte Carlo laboratory for the tail decay of SGD-type methods",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an ensemble and persist hitting-time summaries")
    p_sim.add_argument("--config", help="path to a JSON experiment config")
    p_sim.add_argument("--preset", choices=PRESET_NAMES, help="built-in experiment config")
    p_sim.add_argument("--seed", type=int, help="override the config's master seed")
    p_sim.add_argument("--workers", type=int, default=1, help="parallel worker cap (results are worker-invariant)")
    p_sim.add_argument("--out", help="output directory (overrides config)")
    p_sim.add_argument("--force", action="store_true", help="overwrite results with a differing digest")
    p_sim.set_defaults(func=_cmd_simulate)

    p_tail = sub.add_parser("tail", help="estimate P(F_t > eps) from a results directory")
    p_tail.add_argument("results_dir")
    p_tail.add_argument("--epsilon", type=float, required=True)
    p_tail.add_argument("--t-grid", dest="t_grid", help="e.g. '2:12' or '2,4,8'")
    p_tail.add_argument("--no-svg", action="store_true")
    p_tail.set_defaults(func=_cmd_tail)

    p_fit = sub.add_parser("fit", help="fit candidate decay rates to a tail CSV")
    p_fit.add_argument("tail_csv")
    p_fit.add_argument("--candidates", help="comma list: sqrt-t,t-over-log,power-over-log,t-over-log2,linear-t")
    p_fit.add_argument("--p", type=float, help="moment order for the power-over-log family")
    p_fit.set_defaults(func=_cmd_fit)

    p_ver = sub.add_parser("verify", help="run verification suites; exit 0 iff all pass")
    p_ver.add_argument("suites", nargs="*", help=f"suites from {_VERIFY_SUITES} or 'all'")
    p_ver.add_argument("--samples", type=int, default=10**6)
    p_ver.add_argument("--seed", type=int, default=20260801)
    p_ver.add_argument("--enum-t-max", dest="enum_t_max", type=int, default=20)
    p_ver.add_argument("--out", help="directory for verify.csv")
    p_ver.set_defaults(func=_cmd_verify)

    p_rates = sub.add_parser("rates", help="export closed-form decay curves as CSV")
    p_rates.add_argument("--epsilon", type=float, required=True)
    p_rates.add_argument("--M", type=float, help="a.s. noise bound (bounded-noise law)")
    p_rates.add_argument("--G", type=float, default=1.0)
    p_rates.add_argument("--p", type=float, help="moment order (clipped law)")
    p_rates.add_argument("--C", type=float, help="general clipping coefficient")
    p_rates.add_argument("--t-grid", dest="t_grid", help="'lo:hi' (log-spaced) or comma list")
    p_rates.add_argument("--out", default="rates.csv")
    p_rates.set_defaults(func=_cmd_rates)

    p_sota = sub.add_parser("compare-sota", help="export published comparison curves as CSV")
    p_sota.add_argument("--epsilon", type=float, required=True)
    p_sota.add_argument("--B", type=float, help="sub-Gaussian scale (vanilla baseline)")
    p_sota.add_argument("--sigma", type=float, help="noise scale (clipped baseline)")
    p_sota.add_argument("--delta", type=float, help="initial optimality gap")
    p_sota.add_argument("--L", type=float, help="smoothness constant")
    p_sota.add_argument("--C", type=float, help="constant clipping threshold (nonlinear baseline)")
    p_sota.add_argument("--p", type=float, help="moment order")
    p_sota.add_argument("--t-grid", dest="t_grid")
    p_sota.add_argument("--out", default="sota.csv")
    p_sota.set_defaults(func=_cmd_compare_sota)

    p_rep = sub.add_parser("report", help="tail + fit summary for every recorded epsilon")
    p_rep.add_argument("results_dir")
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientDataError as e:
        print(f"insufficient data: {e}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except ValueError as e:  # ConfigError, PreconditionViolation and rejected arguments
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
