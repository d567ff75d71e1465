"""End-to-end benchmark of the ldplab command line.

usage: python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ldplab is imported from ``src/``.  Each
workload is a closed loop with one client: it runs ``simulate``, ``tail``,
``report`` and ``verify`` one after another as subprocesses, and starts the
next iteration only after the previous one has finished, until S seconds
have passed.  Then every command sampled for less than MIN_COMMAND_S
seconds in total runs again on the last iteration's outputs.  ``simulate``
runs with ``--workers 2``.  Every iteration writes into a fresh directory
under ``.bench_work/``, which is deleted afterwards, and every output of
every command passes the correctness gate in ``gate.py``.

With ``--trace 0`` the end-to-end metrics are reported, each the median over
the run's samples: ``setup_s`` (import plus config parsing in a fresh
process, probed twice before and once after the loop), the wall time of each
command, and ``pipeline_s`` and ``peak_rss_mb`` of each whole iteration.
With ``--trace 1`` every iteration runs twice, untraced and then through
``traced_cli.py``, and the per-layer metrics of ``spans.layer_metrics`` are
reported together with the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter

import gate
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKERS = 2  # nproc of the machine the benchmark was defined on
# set-up probes before and after the closed loop; the machine's speed drifts
# over tens of seconds, so probing at both ends samples more of the run
SETUP_PROBES = (2, 1)
# every command is sampled for at least this long in a run: after the loop,
# commands with less (the import-dominated ones) run again on the last
# iteration's outputs, which evens out short-term drift in machine speed
MIN_COMMAND_S = 5.0
REFERENCE_SEED = 0  # the seed whose outputs must match reference.json byte for byte
DEADLINE_S = 170.0  # no iteration starts that could end after this

CLI_MAIN = "import sys; from ldplab.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    preset: str
    n_runs: int
    horizon_T: int | None  # None keeps the preset's horizon
    tail_epsilon: float
    verify: tuple


# Every workload runs the same four commands, so that every end-to-end metric
# exists on every workload; each workload loads one part heavily and keeps
# the others light, so that a change to one layer has a workload where it
# should show and one where it should not.  BENCHMARK.json says why each
# workload was chosen.
WORKLOADS = {
    "appendix-f-wide": Workload(
        preset="appendix-f",
        n_runs=1 << 20,
        horizon_T=None,
        tail_epsilon=0.09,
        verify=("appendix-f-enum",),
    ),
    "csgd-pareto-long": Workload(
        preset="csgd-pareto",
        n_runs=4096,
        horizon_T=4000,
        tail_epsilon=0.05,
        verify=("rates",),
    ),
    "verify-all": Workload(
        preset="appendix-f",
        n_runs=4096,
        horizon_T=None,
        tail_epsilon=0.09,
        verify=("all", "--samples", "200000"),
    ),
}

COMMANDS = ("simulate", "tail", "report", "verify")

# end-to-end metrics and their units, as BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "tail_s": "s",
    "report_s": "s",
    "verify_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}
# per-layer metrics computed here rather than in spans.layer_metrics
TRACE_METRICS = ("trace.overhead_frac", "trace.unaccounted_frac")


@dataclass
class Child:
    started: float  # perf_counter just before the spawn
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    output: str


@dataclass
class Iteration:
    """One pass of the four commands; its directory lives until discard()."""

    dir: str
    commands: dict = field(default_factory=dict)  # name -> Child
    traces: dict = field(default_factory=dict)  # name -> loaded trace
    complete: bool = False  # all four commands ran and passed the gate
    entry: dict | None = None  # reference entry, when there is no reference yet

    @property
    def results(self) -> str:
        return os.path.join(self.dir, "results")

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands.values())


def run_child(argv, env, log_path, timeout_s) -> Child:
    """Run one subprocess; wall time and peak RSS of it and its descendants."""
    with open(log_path, "wb") as log:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(max(timeout_s, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
        output = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return Child(t0, wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, output)


class Bench:
    """One benchmark run: a workload, a seed, the inputs made from it and its samples."""

    def __init__(self, name: str, seed: int, run_dir: str, workers: int = WORKERS):
        from ldplab.config import preset_config

        self.name = name
        self.w = WORKLOADS[name]
        self.seed = seed
        self.workers = workers
        self.run_dir = run_dir
        self.started = perf_counter()
        doc = preset_config(self.w.preset)
        doc.pop("output", None)  # every command gets an explicit --out
        ens = doc["ensemble"]
        ens["n_runs"] = self.w.n_runs
        if self.w.horizon_T is not None:
            ens["horizon_T"] = self.w.horizon_T
        self.preset_seed = ens["seed"]
        ens["seed"] = self.preset_seed + seed
        self.config_path = os.path.join(run_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        self.env = {k: v for k, v in os.environ.items() if k not in ("LDPLAB_OUT", "PYTHONPATH")}
        self.env["PYTHONPATH"] = SRC
        try:
            with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
                self.reference = json.load(fh).get(name)
        except FileNotFoundError:
            self.reference = None  # record_reference.py is recording it
        self.serial = 0
        self.samples = {command: [] for command in COMMANDS}  # untraced runs only
        self.attempted = 0
        self.problems: list[str] = []  # one entry per failed operation

    def remaining_s(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def argv(self, command: str, results: str) -> list[str]:
        if command == "simulate":
            return ["simulate", "--config", self.config_path, "--workers", str(self.workers), "--out", results]
        if command == "tail":
            return ["tail", results, "--epsilon", repr(self.w.tail_epsilon)]
        if command == "report":
            return ["report", results]
        return ["verify", *self.w.verify, "--seed", str(self.preset_seed + self.seed), "--out", results]

    def _spawn(self, argv, log_path) -> Child:
        child = run_child(argv, self.env, log_path, self.remaining_s())
        self.attempted += 1
        if child.code != 0:
            self.problems.append(f"exit code {child.code}: {' '.join(argv[-8:])}: {child.output[-400:]}")
        return child

    def setup_probe(self) -> Child:
        self.serial += 1
        log = os.path.join(self.run_dir, f"setup{self.serial}.log")
        return self._spawn([sys.executable, os.path.join(HERE, "setup_probe.py"), self.config_path], log)

    def run_command(self, it: Iteration, command: str, traced: bool) -> tuple[Child, bool]:
        """Run one command on the iteration's results; the child and whether it passed the gate."""
        self.serial += 1
        args = self.argv(command, it.results)
        span_path = os.path.join(it.dir, f"{self.serial}-{command}.spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_path, f"{self.serial}-{command}", *args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        child = self._spawn(argv, os.path.join(it.dir, f"{self.serial}-{command}.log"))
        if child.code != 0:
            return child, False
        if not traced:
            self.samples[command].append(child)
        if self.reference is not None:
            problems = gate.check_command(
                command,
                it.results,
                self.reference,
                compare_digests=self.seed == REFERENCE_SEED,
                appendix_f=self.w.preset == "appendix-f",
                stdout=child.output,
            )
            if problems:
                self.problems.append("; ".join(problems[:5]))
                return child, False
        if traced:
            it.traces[command] = spans.load_trace(span_path)
        return child, True

    def iteration(self, traced: bool) -> Iteration:
        """One pass of the four commands in a fresh directory, gated."""
        it = Iteration(tempfile.mkdtemp(prefix=f"it{self.serial}-", dir=self.run_dir))
        for command in COMMANDS:
            it.commands[command], ok = self.run_command(it, command, traced)
            if not ok:
                return it
        it.complete = True
        if self.reference is None:
            it.entry = gate.reference_entry(it.results)
        return it

    def top_up(self, it: Iteration) -> None:
        """Re-run, on the iteration's outputs, each command sampled for less than MIN_COMMAND_S."""
        while it.complete:
            short = [c for c in COMMANDS if sum(x.wall_s for x in self.samples[c]) < MIN_COMMAND_S]
            if not short or self.remaining_s() < 2 * max(self.samples[c][-1].wall_s for c in short):
                return
            for command in short:
                if not self.run_command(it, command, traced=False)[1]:
                    return

    @staticmethod
    def discard(it: Iteration) -> None:
        shutil.rmtree(it.dir, ignore_errors=True)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def command_accounting(it: Iteration) -> dict:
    """Where each traced command's wall time went.

    perf_counter is the system-wide monotonic clock, so the child's
    timestamps compare with the spawn time taken here.  ``start_s`` is
    interpreter start-up before the tracer's first line, ``exit_s`` the span
    write and interpreter teardown after ``cli.main`` returned.
    """
    out = {}
    for command, doc in it.traces.items():
        tr = spans.Trace(doc["spans"], doc["leaves"])
        imp, main = tr.named("cli.import")[0], tr.named("cli.main")[0]
        child = it.commands[command]
        out[command] = {
            "wall_s": child.wall_s,
            "start_s": doc["boot"] - child.started,
            "import_s": imp["end"] - imp["start"],
            "main_s": main["end"] - main["start"],
            "cli_self_s": tr.self_time(main),
            "exit_s": child.started + child.wall_s - main["end"],
            "unaccounted_frac": (child.wall_s - (main["end"] - imp["start"])) / child.wall_s,
        }
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def machine_metadata(bench: Bench, probe_output: str) -> dict:
    import numpy
    import scipy

    mem_kb = None
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            mem_kb = int(next(line.split()[1] for line in fh if line.startswith("MemTotal:")))
    except (OSError, StopIteration, ValueError):
        pass
    threads = probe_output.strip().rpartition("threads=")[2]
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(threads) - 1 if threads.isdigit() else None,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": bench.name,
        "seed": bench.seed,
        "ensemble_seed": bench.preset_seed + bench.seed,
        "verify_seed": bench.preset_seed + bench.seed,
        "workers": bench.workers,
    }


def measure(bench: Bench, seconds: float, trace: bool):
    """Closed loop; returns (metrics, human lines, setup probes)."""
    before, after = (1, 0) if trace else SETUP_PROBES  # one probe reads the BLAS thread count
    probes = [bench.setup_probe() for _ in range(before)]
    plain, traced = [], []
    t0 = perf_counter()
    while True:
        last = perf_counter()
        plain.append(bench.iteration(traced=False))
        if trace:
            traced.append(bench.iteration(traced=True))
            bench.discard(traced[-1])
        done = perf_counter() - t0 >= seconds or perf_counter() - last > bench.remaining_s()
        if done and not trace:
            bench.top_up(plain[-1])
        bench.discard(plain[-1])
        if done:
            break
    probes += [bench.setup_probe() for _ in range(after)]

    lines = [f"FAILED {p}" for p in bench.problems]
    metrics = {}
    if not trace:
        whole = [it for it in plain if it.complete]
        samples = {"setup_s": [p.wall_s for p in probes]}
        for command in COMMANDS:
            samples[f"{command}_s"] = [c.wall_s for c in bench.samples[command]]
        samples["pipeline_s"] = [it.wall_s for it in whole]
        samples["peak_rss_mb"] = [max(c.rss_mb for c in it.commands.values()) for it in whole]
        for name, values in samples.items():
            unit = END_TO_END[name]
            q1, q3 = quartiles(values)
            metrics[name] = (median(values), unit)
            lines.append(f"{name:>12} = {median(values):.4f} {unit}  (median of {len(values)}; q1 {q1:.4f}, q3 {q3:.4f})")
        cpu = {c: median([x.cpu_s for x in bench.samples[c]]) for c in COMMANDS}
        lines.append("cpu seconds (user+sys, workers included): " + ", ".join(f"{c} {v:.3f}" for c, v in cpu.items()))
    else:
        complete = [it for it in traced if it.complete]
        per_it = [spans.layer_metrics(it.traces, bench.workers) for it in complete]
        for name, (_, unit) in spans.layer_metrics({}, bench.workers).items():
            metrics[name] = (median([m[name][0] for m in per_it]), unit)
        overhead = [(t.wall_s - p.wall_s) / p.wall_s for p, t in zip(plain, traced) if p.complete and t.complete]
        metrics["trace.overhead_frac"] = (median(overhead), "ratio")
        accounting = [command_accounting(it) for it in complete]
        metrics["trace.unaccounted_frac"] = (
            median([max(a["unaccounted_frac"] for a in acc.values()) for acc in accounting]),
            "ratio",
        )
        for acc in accounting:
            for command, a in acc.items():
                lines.append(
                    f"accounting {command}: wall {a['wall_s']:.3f} s = start {a['start_s']:.3f} "
                    f"+ import {a['import_s']:.3f} + cli.main {a['main_s']:.3f} "
                    f"(cli self {a['cli_self_s']:.3f}) + exit {a['exit_s']:.3f}; "
                    f"outside import and cli.main: {100 * a['unaccounted_frac']:.2f}%"
                )
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:>40} = {value:.6g} {unit}  (median of {len(per_it)} traced iterations)")
        lines.extend(_unexercised(metrics))
    failed = len(bench.problems)
    lines.append(f"failed_share = {failed}/{bench.attempted} = {failed / bench.attempted:.4f}")
    return metrics, lines, probes


def _unexercised(metrics) -> list[str]:
    """Name the zero-valued per-layer metrics this workload does not exercise."""
    zero = [n for n, (v, _) in metrics.items() if v == 0 and not n.startswith("trace.")]
    return [f"not exercised by this workload (reported as 0): {', '.join(zero)}"] if zero else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ldplab", "cli.py")):
        print(f"error: no ldplab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        if bench.reference is None:
            print(f"error: {REFERENCE_PATH} has no entry for {args.workload}", file=sys.stderr)
            return 2
        metrics, lines, probes = measure(bench, args.seconds, bool(args.trace))
        meta = machine_metadata(bench, probes[0].output)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for line in lines:
        print(line)
    print("machine " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": len(bench.problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
