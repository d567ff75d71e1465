"""Outside-in span recorder and the per-layer arithmetic built on it.

The recorder wraps public functions of ``ldplab`` from the benchmark's own
files; nothing under ``src/`` knows it exists.  Two kinds of span exist:

* a *full* span keeps one record (id, parent id, name, start, end, run id,
  attributes) per call.  It is used for calls that happen a few hundred
  times per command at most;
* a *leaf* span is aggregated on the fly into (count, total seconds,
  bytes) per (parent full span, enclosing leaf, name).  It is used for the
  per-run and per-step calls, of which an ensemble makes millions, so that
  tracing keeps bounded memory.  A leaf may enclose other leaves but never a
  full span.

Span names are ``<layer>.<what>``, the layer being the ``ldplab`` module the
wrapped function belongs to.  A span's *self time* is its duration minus the
part of it covered by descendant spans of other layers; spans of the same
layer are transparent, so ``cli.main`` minus its children still contains the
CSV reading and writing that ``cli.read_csv``/``cli.write_csv`` time.

Spans stay in memory and are written once, when the traced command ends.
Forked ensemble workers cannot run code at exit, so the chunk span flushes a
worker's spans to a side file after each chunk it runs.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import re
from time import perf_counter

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# recording (runs inside the traced ldplab process and its forked workers)
# ---------------------------------------------------------------------------


class Recorder:
    """In-memory span store for one process (and, after fork, its workers)."""

    def __init__(self, run_id: str, worker_path: str | None = None):
        self.run_id = run_id
        self.worker_path = worker_path
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.leaves: dict = {}  # (parent id, enclosing leaf, name) -> [count, seconds, bytes]
        self._full_top = None  # id of the innermost open full span
        self._leaf_top = None  # name of the innermost open leaf span
        self._serial = 0

    def _new_id(self) -> str:
        self._serial += 1
        return f"{os.getpid()}-{self._serial}"

    def full(self, name, fn, attrs=None, flush_in_worker: bool = False):
        """Wrap fn so each call records a full span.

        ``attrs(args, kwargs, result)`` may return a dict kept with the span;
        ``name`` may be a callable of (args, kwargs) giving the span name.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            in_worker = flush_in_worker and os.getpid() != self.pid
            if in_worker:  # drop the records a forked worker inherited
                self.spans, self.leaves = [], {}
            span_name = name(args, kwargs) if callable(name) else name
            parent, sid = self._full_top, self._new_id()
            self._full_top = sid
            result, done = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = perf_counter()
                self._full_top = parent
                self.spans.append(
                    {
                        "id": sid,
                        "parent": parent,
                        "name": span_name,
                        "start": t0,
                        "end": t1,
                        "run": self.run_id,
                        "attrs": attrs(args, kwargs, result) if attrs and done else {},
                    }
                )
                if in_worker:
                    self.flush_worker()

        return wrapped

    def leaf(self, name: str, fn, nbytes=None):
        """Wrap fn so its calls are aggregated into a leaf span.

        ``nbytes(result)``, if given, adds the result's size to the leaf.
        """

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            enclosing = self._leaf_top
            self._leaf_top = name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._leaf_top = enclosing
                key = (self._full_top, enclosing, name)
                acc = self.leaves.get(key)
                if acc is None:
                    acc = self.leaves[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += dt
            if nbytes is not None:
                acc[2] += nbytes(result)
            return result

        return wrapped

    def payload(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "leaves": [
                {"parent": p, "enclosing": e, "name": n, "count": c, "seconds": s, "bytes": b}
                for (p, e, n), (c, s, b) in self.leaves.items()
            ],
        }

    def flush_worker(self) -> None:
        with open(f"{self.worker_path}.w{os.getpid()}", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.payload()) + "\n")
        self.spans, self.leaves = [], {}

    def write(self, path: str, extra: dict) -> None:
        doc = self.payload()
        doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def patch_everywhere(modules, owner, attr: str, wrapper) -> None:
    """Replace owner.attr by wrapper, and every module-level alias of it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# loading and arithmetic (runs in the benchmark driver)
# ---------------------------------------------------------------------------


def load_trace(path: str) -> dict:
    """One command's trace: the main process file plus its workers' files."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for worker_file in sorted(glob.glob(glob.escape(path) + ".w*")):
        with open(worker_file, "r", encoding="utf-8") as fh:
            for line in fh:
                part = json.loads(line)
                doc["spans"].extend(part["spans"])
                doc["leaves"].extend(part["leaves"])
    return doc


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Trace:
    """Index over the spans and leaves of one or more traced commands."""

    def __init__(self, spans, leaves):
        self.spans = list(spans)
        self.leaves = list(leaves)
        self.children: dict = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)
        self.leaves_under: dict = {}
        for lf in self.leaves:
            self.leaves_under.setdefault(lf["parent"], []).append(lf)

    def named(self, name: str):
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, span: dict) -> float:
        """Duration minus the part covered by descendants of other layers."""
        own = layer_of(span["name"])
        intervals = []
        leaf_seconds = 0.0
        pending = [span]
        while pending:
            s = pending.pop()
            for lf in self.leaves_under.get(s["id"], ()):
                if lf["enclosing"] is None and layer_of(lf["name"]) != own:
                    leaf_seconds += lf["seconds"]
            for child in self.children.get(s["id"], ()):
                if layer_of(child["name"]) == own:
                    pending.append(child)
                else:
                    intervals.append((child["start"], child["end"]))
        return (span["end"] - span["start"]) - union_length(intervals) - leaf_seconds

    def leaf_count(self, name: str) -> int:
        return sum(lf["count"] for lf in self.leaves if lf["name"] == name)

    def leaf_total(self, name: str) -> float:
        return sum(lf["seconds"] for lf in self.leaves if lf["name"] == name)

    def leaf_self(self, name: str) -> float:
        """Total of a leaf minus the leaves of other layers nested in it."""
        nested = sum(
            lf["seconds"]
            for lf in self.leaves
            if lf["enclosing"] == name and layer_of(lf["name"]) != layer_of(name)
        )
        return self.leaf_total(name) - nested

    def leaf_bytes_under(self, span: dict, name: str) -> int:
        """Bytes of the named leaf recorded under span and its descendants."""
        total = 0
        pending = [span]
        while pending:
            s = pending.pop()
            total += sum(lf["bytes"] for lf in self.leaves_under.get(s["id"], ()) if lf["name"] == name)
            pending.extend(self.children.get(s["id"], ()))
        return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(commands, workers: int) -> dict:
    """Per-layer metrics of one traced pipeline.

    ``commands`` maps a command name (simulate, tail, report, verify) to its
    loaded trace.  Returns {metric name: (value, unit)}.
    """
    per_cmd = {cmd: Trace(doc["spans"], doc["leaves"]) for cmd, doc in commands.items()}
    every = Trace(
        [s for doc in commands.values() for s in doc["spans"]],
        [lf for doc in commands.values() for lf in doc["leaves"]],
    )
    m = {}
    for cmd in ("simulate", "tail", "report"):
        tr = per_cmd.get(cmd)
        m[f"cli.{cmd}_self_s"] = (sum(tr.self_time(s) for s in tr.named("cli.main")) if tr else 0.0, "s")
    writes, reads = every.named("cli.write_csv"), every.named("cli.read_csv")
    sim = per_cmd.get("simulate")
    m["cli.summary_bytes"] = (
        sum(s["attrs"].get("bytes", 0) for s in sim.named("cli.write_csv")) if sim else 0,
        "bytes",
    )
    m["cli.write_mb_per_s"] = (
        _ratio(sum(s["attrs"].get("bytes", 0) for s in writes) / 1e6, sum(s["end"] - s["start"] for s in writes)),
        "MB/s",
    )
    m["cli.read_mb_per_s"] = (
        _ratio(sum(s["attrs"].get("bytes", 0) for s in reads) / 1e6, sum(s["end"] - s["start"] for s in reads)),
        "MB/s",
    )
    imports = [s["end"] - s["start"] for s in every.named("cli.import")]
    m["cli.import_s"] = (sorted(imports)[len(imports) // 2] if imports else 0.0, "s")
    m["config.parse_s"] = (every.total("config.parse"), "s")

    ens = every.total("montecarlo.run_ensemble")
    chunks = every.named("montecarlo.chunk")
    busy = sum(s["end"] - s["start"] for s in chunks)
    m["montecarlo.run_ensemble_s"] = (ens, "s")
    m["montecarlo.chunks"] = (len(chunks), "count")
    m["montecarlo.chunk_busy_s"] = (busy, "s")
    m["montecarlo.reduce_s"] = (sum(every.self_time(s) for s in every.named("montecarlo.run_ensemble")), "s")
    m["montecarlo.parallel_eff"] = (_ratio(busy, workers * ens), "ratio")
    m["montecarlo.tail_s"] = (every.total("montecarlo.tail"), "s")
    m["montecarlo.fit_s"] = (every.total("montecarlo.fit"), "s")
    for suite in LEMMA_SUITES:
        m[f"montecarlo.suite_s.{suite}"] = (every.total(f"montecarlo.suite.{suite}"), "s")
    m["montecarlo.enum_s"] = (every.total("montecarlo.enum"), "s")

    sims = every.named("optimizers.simulate_runs")
    sim_s = sum(s["end"] - s["start"] for s in sims)
    steps = sum(s["attrs"].get("steps", 0) for s in sims)
    m["optimizers.simulate_runs_s"] = (sim_s, "s")
    m["optimizers.recursion_self_s"] = (sum(every.self_time(s) for s in sims), "s")
    m["optimizers.run_steps"] = (steps, "count")
    m["optimizers.run_steps_per_s"] = (_ratio(steps, sim_s), "1/s")
    m["optimizers.predraw_bytes_per_chunk"] = (
        max((every.leaf_bytes_under(s, "oracles.draw") for s in sims), default=0),
        "bytes",
    )
    m["rng.resets"] = (every.leaf_count("rng.reset"), "count")
    m["rng.reset_s"] = (every.leaf_total("rng.reset"), "s")

    probes = every.named("oracles.probe")
    m["oracles.draws"] = (every.leaf_count("oracles.draw"), "count")
    m["oracles.draw_s"] = (every.leaf_total("oracles.draw"), "s")
    m["oracles.gradients_s"] = (every.leaf_self("oracles.gradients"), "s")
    m["oracles.probes"] = (len(probes), "count")
    m["oracles.probe_s"] = (every.total("oracles.probe"), "s")
    m["oracles.probe_unique_frac"] = (
        _ratio(len({tuple(s["attrs"]["key"]) for s in probes}), len(probes)),
        "ratio",
    )
    m["costs.gradient_calls"] = (every.leaf_count("costs.gradient"), "count")
    m["costs.gradient_s"] = (every.leaf_total("costs.gradient"), "s")
    m["theory.conjugate_calls"] = (len(every.named("theory.conjugate")), "count")
    m["theory.conjugate_s"] = (every.total("theory.conjugate"), "s")
    m["svgplot.chart_s"] = (every.total("svgplot.chart"), "s")
    return m


# the five statistical suites of ldplab.montecarlo.LEMMA_SUITES, spelled out
# because BENCHMARK.json fixes the metric names whatever ldplab calls them
LEMMA_SUITES = ("mgf-bounded", "mgf-inner", "clip-bias", "clip-subgauss", "batch-bound")
