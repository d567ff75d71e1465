"""Correctness gate for the outputs of one pipeline iteration.

At the reference seed every output file must match, byte for byte, the
sha256 recorded in ``reference.json``.  The references were recorded at
``--workers 1`` and the benchmark runs at ``--workers 2``, so a match also
shows worker invariance.  At any other seed the gate checks invariants that
hold whatever the seed: row counts, a non-increasing tail, Wilson intervals
that contain ``p_hat``, the appendix-f lower bound ``2^(1-t)`` and an
all-pass verification.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import os
import re

# which files each command writes into the results directory
COMMAND_FILES = {
    "simulate": ("meta.json", "trajsummary.csv"),
    "tail": ("tail.csv", "tail.svg"),
    "report": ("tail_eps*.csv", "report.txt"),
    "verify": ("verify.csv",),
}

# report.txt names the absolute results directory, which differs per run
_RESULTS_LINE = re.compile(rb"^results: .*$", re.MULTILINE)

# slack of the appendix-f lower-bound check, in Wilson half-widths; the same
# 3-half-width margin as acceptance criterion 2, so that a seed whose true
# tail sits exactly on 2^(1-t) does not fail one time in forty
BOUND_SLACK_HALF_WIDTHS = 3.0


def command_files(results_dir: str, command: str) -> list[str]:
    """Names of the files a command wrote, sorted."""
    names = set()
    for pattern in COMMAND_FILES[command]:
        names.update(os.path.basename(p) for p in glob.glob(os.path.join(results_dir, pattern)))
    return sorted(names)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.txt":
        data = _RESULTS_LINE.sub(b"results: <results>", data)
    return hashlib.sha256(data).hexdigest()


def csv_records(path: str) -> tuple[list[str], list[list[str]]]:
    """(header, data rows) of a CSV with '#' comment lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#")) if r]
    return rows[0], rows[1:]


def count_rows(path: str) -> int:
    """Data rows of a CSV: lines minus comment and header lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.count(b"\n")
    comments = sum(1 for line in data.split(b"\n", 8) if line.startswith(b"#"))
    return lines - comments - 1


def tail_problems(path: str, appendix_f: bool) -> list[str]:
    """Invariants of a tail CSV (t, epsilon, N, exceed, p_hat, ci_low, ci_high)."""
    header, rows = csv_records(path)
    col = {name: i for i, name in enumerate(header)}
    name = os.path.basename(path)
    problems = []
    prev = None
    for r in rows:
        t = int(r[col["t"]])
        p, lo, hi = (float(r[col[k]]) for k in ("p_hat", "ci_low", "ci_high"))
        if prev is not None and p > prev:
            problems.append(f"{name}: p_hat increases at t={t}")
        prev = p
        if not lo <= p <= hi:
            problems.append(f"{name}: Wilson interval [{lo}, {hi}] misses p_hat={p} at t={t}")
        if appendix_f:
            target = 2.0 ** (1 - t)
            if p < target - BOUND_SLACK_HALF_WIDTHS * (hi - lo) / 2.0:
                problems.append(f"{name}: p_hat={p} below 2^(1-t)={target} at t={t}")
    return problems


def check_command(
    command: str,
    results_dir: str,
    reference: dict,
    compare_digests: bool,
    appendix_f: bool,
    stdout: str,
) -> list[str]:
    """Problems found in the outputs of one command; empty means correct."""
    names = command_files(results_dir, command)
    expected = sorted(n for n, owner in reference["owner"].items() if owner == command)
    problems = []
    if names != expected:
        problems.append(f"{command}: wrote {names}, expected {expected}")
    for name in names:
        path = os.path.join(results_dir, name)
        if compare_digests and file_digest(path) != reference["digests"].get(name):
            problems.append(f"{name}: sha256 differs from the reference")
        want_rows = reference["rows"].get(name)
        if name.endswith(".csv") and want_rows is not None and count_rows(path) != want_rows:
            problems.append(f"{name}: {count_rows(path)} rows, expected {want_rows}")
        if name == "tail.csv" or name.startswith("tail_eps"):
            problems.extend(tail_problems(path, appendix_f))
        if name == "verify.csv":
            header, rows = csv_records(path)
            failed = [r for r in rows if r[header.index("passed")] != "1"]
            problems.extend(f"verify.csv: check failed: {r[0]} {r[1]}" for r in failed)
    if command == "verify" and "verification: ALL PASS" not in stdout:
        problems.append("verify: did not report ALL PASS")
    return problems


def reference_entry(results_dir: str) -> dict:
    """Digests, row counts and owning command of every output file."""
    entry = {"digests": {}, "rows": {}, "owner": {}}
    for command in COMMAND_FILES:
        for name in command_files(results_dir, command):
            path = os.path.join(results_dir, name)
            entry["digests"][name] = file_digest(path)
            entry["rows"][name] = count_rows(path) if name.endswith(".csv") else None
            entry["owner"][name] = command
    return entry
