"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 benchmarks/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                    [--record KEY]

Run from the root of a checkout.  For every workload and seed it runs
``benchmarks/run.py`` once with BENCHMARK.json's ``run_seconds``, one run at
a time.  For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) /
median next to the metric's bound, and the sample count.  ``--record KEY``
also stores the summary, the machine metadata and the raw values under KEY
in ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(HERE, "baseline.json")


def parse_seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values: dict = {}
        machine = None
        failed = attempted = 0
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            machine = machine or json.loads(next(l for l in lines if l.startswith("machine "))[8:])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if args.trace == 0
            ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {name: dict(summarise(v), values=v) for name, v in values.items()}
        report[workload] = {"metrics": summary, "failed": failed, "attempted": attempted, "machine": machine}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound:.2f}" + (" OVER" if s["spread"] > bound / 3 else "")
            print(
                f"  {workload:>17} {name:>40}: median {s['median']:.5g} q1 {s['q1']:.5g} "
                f"q3 {s['q3']:.5g} spread {100 * s['spread']:.2f}%{flag} n={s['n']}"
            )
        print(f"  {workload:>17} failed_share = {failed}/{attempted}", flush=True)

    if args.record:
        try:
            with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        doc.setdefault(args.record, {}).update(report)
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
