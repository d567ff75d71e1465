"""Command-line orchestration: simulate, tail, fit, verify, rates, compare-sota, report.

Exit codes: 0 success, 2 configuration/usage error (any argument the
library rejects, a request too large for memory, and a worker process
killed, as the out-of-memory killer does), 3 IO error, 4 insufficient data,
5 verification failure, 128 + n when stopped by signal n (SIGINT, SIGTERM
or SIGHUP), after removing any temporary file.

All CSV output is UTF-8 with a header row, '.' decimal separator and LF line
endings; the first line is a '#' comment carrying the tool version, the
config digest and the certified oracle constants, so every file is
self-describing.  Outputs are deterministic: re-running a command with the
same config and seed reproduces files byte for byte at any --workers value.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import signal
import sys
import warnings

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
from .costs import moment_order_param, positive_param
from .montecarlo import (
    LEMMA_SUITES,
    STOP_SIGNALS,
    VERIFY_ENUM_T_MAX,
    VERIFY_SAMPLES,
    VERIFY_SEED,
    InsufficientDataError,
    TailEstimate,
    WorkerDiedError,
    check_t_grid,
    ensemble_chunks,
    epsilon_index,
    fit_decay,
    predraw_bytes,
    tail_from_counts,
    tail_from_first_hits,
    verify_reports,
)
from .optimizers import MAX_HORIZON, EnsembleArrays
from .theory import (
    DECAY_FAMILIES,
    DECAY_T_MIN,
    SOTA_KINDS,
    RateSpec,
    decay_families,
    rate_csgd,
    rate_csgd_generalC,
    rate_sgd,
    sota_curves,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INSUFFICIENT = 4
EXIT_VERIFY = 5


# ---------------------------------------------------------------------------
# formatting and file helpers
# ---------------------------------------------------------------------------


def _provenance_comment(digest: str, certified: dict) -> str:
    parts = [f"tool={TOOL_NAME}", f"version={TOOL_VERSION}", f"digest={digest}"]
    parts += [f"{k}={float(certified[k])!r}" for k in sorted(certified)]
    return " ".join(parts)


@contextlib.contextmanager
def _atomic_write(path: str):
    """A text file handle on ``path + '.tmp'``; the temp file replaces ``path``
    when the block succeeds and is removed when it fails, so an interrupted
    write never leaves a partial ``path``."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@contextlib.contextmanager
def _output_dir(path: str):
    """Make the directory ``path``, and any parent it lacks, for the block to
    write in.  When the block fails, each directory made here is removed
    again if it is still empty, so a failed command leaves none behind."""
    made = []
    missing = os.path.abspath(path)
    while not os.path.lexists(missing):
        made.append(missing)
        missing = os.path.dirname(missing)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for directory in made:  # deepest first
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _write_head(fh, comment: str, header: list):
    """Write a provenance comment (as a '# ' line) and a header row; returns
    the csv.writer that wrote the header."""
    fh.write("# " + comment + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    return writer


def _lines(formats, cells: tuple) -> str:
    """CSV lines of len(formats) cells each, cell k of a line written by
    formats[k]: the rows of ``cells``, flat in row order, through one
    %-format."""
    return (",".join(formats) + "\n") * (len(cells) // len(formats)) % cells


def _write_csv(path: str, comment: str, header: list, rows) -> None:
    """Write a provenance comment, a header and one row per item of ``rows``,
    each cell as csv.writer writes it; the file is replaced atomically."""
    with _atomic_write(path) as fh:
        _write_head(fh, comment, header).writerows(rows)


def _read_comments(fh) -> tuple[dict, str]:
    """(key/value dict of the '#' comment lines at the head of an open text
    file, the first line after them)."""
    meta = {}
    line = fh.readline()
    while line.startswith("#"):
        for token in line[1:].split():
            if "=" in token:
                k, v = token.split("=", 1)
                meta[k] = v
        line = fh.readline()
    return meta, line


def _read_csv(path: str, dtype=np.int64):
    """(comment key/value dict, header list, body as a 2-D ``dtype`` array).

    The body is parsed in one pass by np.loadtxt straight into ``dtype``; a
    ragged row, a row whose length is not the header's, or a cell that is not
    a ``dtype`` number (one beyond an integer dtype's range included) raises
    ValueError.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        meta, line = _read_comments(fh)
        header = next(csv.reader([line]), None)
        if not header:
            raise OSError(f"{path}: no CSV header found")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body: callers check row counts
            body = np.loadtxt(fh, dtype=dtype, delimiter=",", ndmin=2)
    if body.size and body.shape[1] != len(header):
        raise ValueError(f"rows have {body.shape[1]} columns, the header {len(header)}")
    return meta, header, body


def _resolve_out(flag_value: str | None, config_dir: str) -> str:
    """--out wins; else the config directory, rooted at $LDPLAB_OUT if set."""
    if flag_value:
        return flag_value
    root = os.environ.get("LDPLAB_OUT")
    if root and not os.path.isabs(config_dir):
        return os.path.join(root, config_dir)
    return config_dir


def _parse_t_grid(spec: str, horizon: int, expand_range) -> np.ndarray:
    """A --t-grid value: 'lo:hi' through expand_range(lo, hi), or a comma list
    taken in the order given; the list, or lo and hi, must pass check_t_grid
    up to horizon, checked first."""
    try:
        if ":" not in spec:
            return check_t_grid([int(tok) for tok in spec.split(",")], horizon)
        lo, hi = (int(tok) for tok in spec.split(":", 1))
        check_t_grid([lo] if lo == hi else [lo, hi], horizon)
    except ValueError as e:
        raise ConfigError(f"--t-grid {spec!r}: {e}") from e
    return expand_range(lo, hi)


def _read_manifest(meta_path: str) -> dict:
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:  # a manifest that is not UTF-8 JSON
        raise OSError(f"{meta_path}: corrupt run manifest: {e}") from e
    if not isinstance(meta, dict):
        raise OSError(f"{meta_path}: corrupt run manifest: not an object")
    return meta


def _summary_header(epsilon_grid) -> list:
    """The header of trajsummary.csv, the one simulate writes."""
    return ["run_index", "diverged", "clip_events"] + [f"hit_{float(e)!r}" for e in epsilon_grid]


def _steps_header(epsilon_grid) -> list:
    """The header of steps.csv: the one simulate writes and a read expects."""
    return ["t", "diverged", "clipped"] + [f"first_hit_{float(e)!r}" for e in epsilon_grid]


def _summary_rows(arrays: EnsembleArrays) -> str:
    """trajsummary.csv's rows for the runs of ``arrays``, formatted by
    ``_lines`` over the whole chunk; the same bytes csv.writer gives for the
    same cells.  A hitting time after horizon_T is written as -1."""
    T = arrays.horizon_T
    hit = np.where(arrays.hit <= T, arrays.hit, -1)  # -1 encodes "never within T"
    cells = np.column_stack([arrays.run_indices, arrays.diverged, arrays.clip_events, hit]).astype(np.int64)
    return _lines(["%d"] * cells.shape[1], tuple(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _manifest(exp: Experiment, diverged_runs: int) -> dict:
    """The meta.json that simulate writes for an experiment and the number
    of its runs that diverged."""
    return {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "config_digest": exp.digest,
        "config": exp.raw,
        "certified": {k: float(v) for k, v in exp.run_config.certified_constants().items()},
        "n_runs": exp.n_runs,
        "horizon_T": exp.run_config.horizon_T,
        "diverged_runs": diverged_runs,
    }


def _load_experiment(args) -> Experiment:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("exactly one of --config or --preset is required")
    doc = preset_config(args.preset) if args.preset else load_config(args.config)
    # a document that is not an object is parse_config's error to report
    if args.seed is not None and isinstance(doc, dict) and isinstance(doc.get("ensemble"), dict):
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

    rc = exp.run_config
    T = rc.horizon_T
    comment = _provenance_comment(exp.digest, rc.certified_constants())
    chunks = ensemble_chunks(rc, exp.n_runs, workers=args.workers)  # checks --workers before any work
    table = np.zeros((T, 2 + rc.epsilon_grid.size), dtype=np.int64)
    # each file replaces its old one whole: the summary, then the step table,
    # then the manifest.  A summary or table whose digest is not the
    # manifest's is rejected on load, so an interrupted write never mixes old
    # and new, and a failed summary leaves no directory made for it.  The
    # summary is written one chunk at a time as the chunks finish, and a
    # failed write cancels the chunks not yet started.
    with _output_dir(outdir), contextlib.closing(chunks), _atomic_write(os.path.join(outdir, "trajsummary.csv")) as fh:
        _write_head(fh, comment, _summary_header(rc.epsilon_grid))
        n_chunks = largest = 0
        for part in chunks:
            fh.write(_summary_rows(part))
            table += part.step_table()
            n_chunks, largest = n_chunks + 1, max(largest, part.n_runs)
    steps = np.column_stack([np.arange(1, T + 1), table]).tolist()
    _write_csv(os.path.join(outdir, "steps.csv"), comment, _steps_header(rc.epsilon_grid), steps)
    diverged, clipped = (int(n) for n in table[:, :2].sum(axis=0))
    with _atomic_write(meta_path) as fh:
        json.dump(_manifest(exp, diverged), fh, sort_keys=True, indent=2)
        fh.write("\n")
    clip_steps = np.flatnonzero(table[:, 1])
    last_clip_t = int(clip_steps[-1]) + 1 if clip_steps.size else "none"
    print(
        f"simulated {exp.n_runs} runs (T={T}, digest={exp.digest}, diverged={diverged}, "
        f"clipped={clipped}, last_clip_t={last_clip_t}, chunks={n_chunks}, "
        f"predraw_mib_per_chunk={predraw_bytes(rc, largest) / 2**20:.1f}) -> {outdir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


def _load_results(results_dir: str) -> tuple[dict, Experiment, np.ndarray]:
    """(manifest, re-parsed Experiment, per-step table) of a results directory;
    the table is ``EnsembleArrays.step_table``'s, read from steps.csv.

    Of trajsummary.csv only the provenance line is read: a summary whose
    digest is not the manifest's is corrupt, the mark of a simulate
    interrupted between its renames.  steps.csv is corrupt when a cell is not
    an int64, its header is not the config's, its t column is not
    1..horizon_T, a count is negative or above n_runs, the diverged column
    and one epsilon's first-hit column together sum above n_runs, a larger
    epsilon has fewer hits than a smaller one by some t, an update
    at t = horizon_T or under a config without a clip schedule is clipped,
    or its digest is not the manifest's.  A manifest whose config does not
    parse, or with any field besides its config that is not, in canonical
    JSON, the one simulate writes for that config and table (its
    diverged_runs the table's diverged sum), is corrupt too.  Each is an
    OSError.
    """
    meta_path = os.path.join(results_dir, "meta.json")
    meta = _read_manifest(meta_path)
    config = meta.get("config")
    if not isinstance(config, dict):
        raise OSError(f"{meta_path}: corrupt run manifest: no config object")
    # analysis never uses the output block (nor does the digest), so an
    # output key this version no longer accepts must not block it
    try:
        exp = parse_config({k: v for k, v in config.items() if k != "output"})
    except ConfigError as e:
        raise OSError(f"{meta_path}: corrupt run manifest: config: {e}") from e
    rc = exp.run_config
    T, n_runs, digest = rc.horizon_T, exp.n_runs, meta.get("config_digest")

    summary_path = os.path.join(results_dir, "trajsummary.csv")
    try:
        with open(summary_path, "r", encoding="utf-8", newline="") as fh:
            found = _read_comments(fh)[0].get("digest")
        if found != digest:
            raise ValueError(f"digest {found} is not the manifest's {digest}")
    except ValueError as e:
        raise OSError(f"{summary_path}: corrupt trajsummary: {e}") from e

    steps_path = os.path.join(results_dir, "steps.csv")
    try:
        comment, header, body = _read_csv(steps_path)
        if header != _steps_header(rc.epsilon_grid):
            raise ValueError(f"header {header} is not {_steps_header(rc.epsilon_grid)}")
        if body.shape[0] != T or not np.array_equal(body[:, 0], np.arange(1, T + 1)):
            raise ValueError(f"the t column is not 1..{T}")
        table = body[:, 1:]
        if np.any(table < 0):
            raise ValueError("a count is negative")
        if np.any(table > n_runs):
            raise ValueError(f"a count is above n_runs = {n_runs}")
        # a run diverges at most once and, unless it diverged, first hits
        # each epsilon at most once; counts of at most n_runs each keep the
        # int64 sums exact
        diverged, first_hits = table[:, 0], table[:, 2:]
        if np.any(diverged.sum() + first_hits.sum(axis=0) > n_runs):
            raise ValueError(f"the diverged runs and one epsilon's first hits sum above n_runs = {n_runs}")
        if np.any(np.diff(np.cumsum(first_hits, axis=0), axis=1) < 0):
            raise ValueError("a larger epsilon has fewer hits than a smaller one by some t")
        if table[-1, 1] != 0:
            raise ValueError(f"an update is clipped at t = {T}, which has none")
        if rc.clip_schedule is None and np.any(table[:, 1] != 0):
            raise ValueError("a clipped count is not 0, and the config clips nothing")
        if comment.get("digest") != digest:
            raise ValueError(f"digest {comment.get('digest')} is not the manifest's {digest}")
    except ValueError as e:
        raise OSError(f"{steps_path}: corrupt step table: {e}") from e

    expected = _manifest(exp, int(table[:, 0].sum()))
    for key in sorted((meta.keys() | expected.keys()) - {"config"}):
        found, want = (json.dumps(d[key], sort_keys=True) if key in d else "absent" for d in (meta, expected))
        if found != want:
            raise OSError(f"{meta_path}: corrupt run manifest: {key} is {found}, not {want}")
    return meta, exp, table


def _anchored_curve(law: RateSpec, epsilon: float, t_grid: np.ndarray, p_anchor: float, t_anchor: int):
    """exp(-I(epsilon) n_t) of a law at the steps t >= 3, scaled to pass
    through the anchor point; None when I(epsilon) is infinite."""
    ts = t_grid[t_grid >= DECAY_T_MIN].astype(np.float64)
    slope = -law.rate_function_I(epsilon)
    if not np.isfinite(slope):
        return None
    nt = np.asarray(law.decay_rate_nt(ts), dtype=np.float64)
    nt0 = float(law.decay_rate_nt(float(t_anchor)))
    return ts, p_anchor * np.exp(slope * (nt - nt0))


# a tail CSV's columns; the first four are what fit rebuilds an estimate from
_TAIL_COLUMNS = ["t", "epsilon", "N", "exceed", "p_hat", "ci_low", "ci_high"]


def _tail_lines(tail: TailEstimate) -> str:
    """The rows of a tail CSV, _TAIL_COLUMNS at each step of the estimate.
    p_hat and its interval are elementwise functions of the count at a fixed
    N, so what follows t is formatted once per distinct count, and the rows
    are ``_lines`` of (t, that text) pairs."""
    counts, first, inverse = np.unique(tail.exceed_count, return_index=True, return_inverse=True)
    after_t = "%r,%d," % (float(tail.epsilon), tail.n_runs) + "%d,%r,%r,%r"
    estimates = (a[first].tolist() for a in (tail.p_hat, tail.ci_low, tail.ci_high))
    texts = [after_t % row for row in zip(counts.tolist(), *estimates)]
    rows = zip(tail.t_grid.tolist(), map(texts.__getitem__, inverse.tolist()))
    return _lines(("%d", "%s"), tuple(itertools.chain.from_iterable(rows)))


def _write_tail(path: str, meta: dict, exp: Experiment, table: np.ndarray, epsilon: float, t_grid) -> TailEstimate:
    """Estimate one recorded epsilon's tail from a results directory's step
    table, as estimate_tail does from the runs, and write it as a tail CSV."""
    j = epsilon_index(exp.run_config.epsilon_grid, epsilon)
    tail = tail_from_first_hits(table[:, 2 + j], exp.n_runs, float(exp.run_config.epsilon_grid[j]), t_grid)
    with _atomic_write(path) as fh:
        _write_head(fh, _provenance_comment(meta["config_digest"], meta["certified"]), _TAIL_COLUMNS)
        fh.write(_tail_lines(tail))
    return tail


def _cmd_tail(args) -> int:
    meta, exp, table = _load_results(args.results_dir)
    digest = meta["config_digest"]
    if args.t_grid is None:
        t_grid = exp.t_grid
    else:
        t_grid = _parse_t_grid(
            args.t_grid, exp.run_config.horizon_T, lambda lo, hi: np.arange(lo, hi + 1, dtype=np.int64)
        )
    out_csv = os.path.join(args.results_dir, "tail.csv")
    tail = _write_tail(out_csv, meta, exp, table, args.epsilon, t_grid)
    print(f"wrote {out_csv}")

    if not args.no_svg:
        from .svgplot import PALETTE, line_chart  # only a chart needs it

        series = [
            {
                "x": tail.t_grid,
                "y": tail.p_hat,
                "label": f"empirical, eps={args.epsilon:g}",
                "color": PALETTE[0],
            }
        ]
        positive = (tail.p_hat > 0) & (tail.t_grid >= DECAY_T_MIN)
        if np.any(positive):
            anchor_idx = int(np.flatnonzero(positive)[0])
            t_anchor = int(tail.t_grid[anchor_idx])
            p_anchor = float(tail.p_hat[anchor_idx])
            overlays = [(f"{law.name} shape", law) for law in exp.sota]
            if exp.law is not None:
                overlays.insert(0, (f"{exp.law.name} bound shape", exp.law))
            for k, (label, law) in enumerate(overlays):
                anchored = _anchored_curve(law, args.epsilon, tail.t_grid, p_anchor, t_anchor)
                if anchored is not None:
                    ts, ys = anchored
                    series.append(
                        {"x": ts, "y": ys, "label": label, "dash": "5,4",
                         "color": PALETTE[1 + k % 4]}
                    )
        svg = line_chart(
            series,
            band={"x": tail.t_grid, "lo": tail.ci_low, "hi": tail.ci_high, "label": "Wilson 95%"},
            title=f"tail P(F_t > {args.epsilon:g}), N={tail.n_runs}",
            xlabel="t",
            ylabel="P(F_t > eps)",
            comment=_provenance_comment(digest, {}),
        )
        out_svg = os.path.join(args.results_dir, "tail.svg")
        with _atomic_write(out_svg) as fh:
            fh.write(svg)
        print(f"wrote {out_svg}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _tail_from_csv(path: str) -> tuple[str, TailEstimate]:
    """(digest from the provenance comment, estimate rebuilt from the counts) of
    a tail CSV.  Every row must carry the first row's N and epsilon, and
    tail_from_counts must accept the steps and counts; anything else is a
    ConfigError naming the file."""
    try:
        comment, header, body = _read_csv(path, dtype=str)
        cols = {name: i for i, name in enumerate(header)}
        for needed in _TAIL_COLUMNS[:4]:
            if needed not in cols:
                raise ValueError(f"missing column {needed!r}")
        if body.shape[0] == 0:
            raise ValueError("no tail rows")

        def column(name, dtype=np.int64):
            try:
                return body[:, cols[name]].astype(dtype)
            except OverflowError:  # numpy converts each cell with int(); one is beyond int64
                cell = next(c for c in body[:, cols[name]] if not -(2**63) <= int(c) < 2**63)
                raise ValueError(f"column {name!r}: {cell} does not fit in int64") from None

        one = {}  # the value every row holds
        for name, dtype in (("N", np.int64), ("epsilon", np.float64)):
            values = np.unique(column(name, dtype)).tolist()
            if len(values) > 1:
                raise ValueError(f"rows differ in {name}: {values[0]!r}, {values[1]!r}")
            one[name] = values[0]
        # rebuild the estimate from counts so intervals are always consistent
        tail = tail_from_counts(column("t"), column("exceed"), one["N"], one["epsilon"])
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e
    return comment.get("digest", "unknown"), tail


def _cmd_fit(args) -> int:
    names = ["sqrt-t", "t-over-log", "linear-t"] if args.candidates is None else args.candidates.split(",")
    if args.p is not None and "power-over-log" not in names:
        raise ConfigError("fit: --p applies only when --candidates lists 'power-over-log'")
    p = None if args.p is None else moment_order_param("--p", args.p)
    try:
        candidates = decay_families(names, p=p)
    except ValueError as e:
        raise ConfigError(f"--candidates: {e}") from e
    digest, tail = _tail_from_csv(args.tail_csv)
    fits = fit_decay(tail, candidates)
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


def _cmd_verify(args) -> int:
    # the whole request is checked by this call, so a bad one prints no header and writes nothing
    reports = verify_reports(args.suites, args.samples, args.seed, args.enum_t_max)
    all_pass = True
    csv_rows = []
    # --out is made before any job runs, so a path that cannot be a directory fails at once
    with (
        _output_dir(args.out) if args.out else contextlib.nullcontext(),
        contextlib.closing(reports),
    ):
        for suite, report in reports:
            print(f"== {suite}")
            for c in report.checks:
                status = "PASS" if c.passed else "FAIL"
                slack = f"{(c.empirical - c.bound) / c.se:+.2f} SE" if c.se > 0 else "hard"
                print(
                    f"  [{status}] {c.label}: empirical={c.empirical:.6g} "
                    f"bound={c.bound:.6g} ({slack})"
                )
                csv_rows.append([suite, c.label, c.empirical, c.bound, c.se, int(c.passed)])
                all_pass &= c.passed

        if args.out:
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
    """61 log-spaced integer steps from lo to hi, deduplicated."""
    return np.unique(np.round(np.logspace(np.log10(lo), np.log10(hi), 61)).astype(np.int64))


def _write_curves(args, source: str, curves) -> None:
    """One (t, n_t, family, slope) row per curve and grid step t >= 3, where the
    decay sequences are meant; a curve's slope is -I(epsilon) at --epsilon,
    which must be a finite positive number."""
    positive_param("--epsilon", args.epsilon)
    t_grid = _parse_t_grid(args.t_grid, MAX_HORIZON, _log_t_grid) if args.t_grid else _log_t_grid(10, 10**6)
    t_grid = t_grid[t_grid >= DECAY_T_MIN]
    if t_grid.size == 0:
        raise ConfigError(f"--t-grid: {args.t_grid} has no step t >= {DECAY_T_MIN}")
    rows = []
    for spec in curves:
        label = spec.name + "".join(f" {k}={v:g}" for k, v in sorted(spec.params.items()))
        slope = -spec.rate_function_I(args.epsilon)
        if not np.isfinite(slope):
            raise ConfigError(f"--epsilon {args.epsilon!r}: I(epsilon) of the {spec.name} law overflows")
        for t in t_grid:
            rows.append([int(t), float(spec.decay_rate_nt(float(t))), label, slope])
    _write_csv(args.out, _provenance_comment(source, {}), ["t", "n_t", "family", "slope"], rows)


def _cmd_rates(args) -> int:
    if args.C is not None and args.p is None:
        raise ConfigError("rates: --C sets the general-C clipped law, which also needs --p")
    rates = []
    if args.M is not None:
        rates.append(rate_sgd(args.M, args.G))
    if args.p is not None:
        rates.append(rate_csgd(args.G, args.p))
        if args.C is not None:
            rates.append(rate_csgd_generalC(args.G, args.C, args.p))
    if not rates:
        raise ConfigError("rates: provide --M (bounded-noise law) and/or --p (clipped law)")
    _write_curves(args, "rates", rates)
    print(f"wrote {args.out} ({len(rates)} families, epsilon={args.epsilon:g})")
    return EXIT_OK


def _cmd_compare_sota(args) -> int:
    curves, used = [], set()  # used: the flags some curve took
    for kind, params in SOTA_KINDS.items():
        if getattr(args, next(iter(params))) is None:  # a kind is drawn when its first flag is given
            continue
        if any(getattr(args, k) is None for k in params):
            raise ConfigError(f"{kind} curve requires " + " ".join(f"--{k}" for k in params))
        curves.append(sota_curves(kind, **{k: getattr(args, k) for k in params}))
        used.update(params)
    if not curves:
        flags = ["/".join(f"--{k}" for k in params) for params in SOTA_KINDS.values()]
        raise ConfigError(f"compare-sota: provide {', '.join(flags[:-1])}, and/or {flags[-1]}")
    unused = dict.fromkeys(
        f"--{k}" for params in SOTA_KINDS.values() for k in params if getattr(args, k) is not None and k not in used
    )
    if unused:
        raise ConfigError(f"compare-sota: {' '.join(unused)} completes no curve")
    _write_curves(args, "compare-sota", curves)
    print(f"wrote {args.out} ({len(curves)} curves, epsilon={args.epsilon:g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _cmd_report(args) -> int:
    meta, exp, table = _load_results(args.results_dir)
    lines = [
        f"{TOOL_NAME} {TOOL_VERSION} report",
        f"results: {os.path.abspath(args.results_dir)}",
        f"config digest: {meta['config_digest']}",
        f"runs: {exp.n_runs}  horizon T: {exp.run_config.horizon_T}  diverged: {int(table[:, 0].sum())}",
        "",
    ]
    for j, eps in enumerate(exp.run_config.epsilon_grid.tolist()):
        path = os.path.join(args.results_dir, f"tail_eps{j}.csv")
        tail = _write_tail(path, meta, exp, table, eps, exp.t_grid)
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
    with _atomic_write(report_path) as fh:
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
    p_fit.add_argument("--candidates", help=f"comma list of {', '.join(DECAY_FAMILIES)}")
    p_fit.add_argument("--p", type=float, help="moment order for the power-over-log family")
    p_fit.set_defaults(func=_cmd_fit)

    p_ver = sub.add_parser("verify", help="run verification suites; exit 0 iff all pass")
    p_ver.add_argument(
        "suites", nargs="*", help=f"one or more of {', '.join(LEMMA_SUITES)}; or 'all' (the default)"
    )
    p_ver.add_argument("--samples", type=int, default=VERIFY_SAMPLES)
    p_ver.add_argument("--seed", type=int, default=VERIFY_SEED)
    p_ver.add_argument("--enum-t-max", dest="enum_t_max", type=int, default=VERIFY_ENUM_T_MAX)
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


class _Interrupted(KeyboardInterrupt):
    """A stop signal, raised in the main thread wherever it was; args[0] is its number."""


def _interrupt(signum, frame):
    raise _Interrupted(signum)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    request = " ".join(sys.argv[1:] if argv is None else argv)
    previous = {}  # the handlers to restore; a signal ignored from the start (nohup) stays ignored
    for sig in STOP_SIGNALS:  # each unwinds like Ctrl-C: temporary files are removed, workers stopped
        if signal.getsignal(sig) not in (signal.SIG_IGN, None):
            previous[sig] = signal.signal(sig, _interrupt)
    try:
        return args.func(args)
    except _Interrupted as e:
        print(f"interrupted by {signal.Signals(e.args[0]).name}", file=sys.stderr)
        return 128 + e.args[0]
    except MemoryError as e:
        print(f"error: not enough memory for {request!r}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerDiedError:  # the out-of-memory killer, or a signal to a worker alone
        print(f"error: a worker process of {request!r} was killed", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as e:
        print(f"insufficient data: {e}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except ValueError as e:  # ConfigError, PreconditionViolation and rejected arguments
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
