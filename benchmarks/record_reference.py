"""Record reference.json: digest and row count of every output at the reference seed.

usage: python3 benchmarks/record_reference.py [WORKLOAD ...]

Run from the root of a checkout.  The references are recorded with
``simulate --workers 1``; the benchmark runs with ``--workers 2``, so its
byte-identity gate also checks worker invariance.  Re-record only when a
change is meant to alter output bytes, and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile

import run


def main() -> int:
    names = sys.argv[1:] or list(run.WORKLOADS)
    sys.path.insert(0, run.SRC)
    try:
        with open(run.REFERENCE_PATH, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for name in names:
        run_dir = tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK_ROOT)
        try:
            bench = run.Bench(name, run.REFERENCE_SEED, run_dir, workers=1)
            bench.reference = None
            it = bench.iteration(traced=False)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if bench.problems or it.entry is None:
            print(f"{name}: not recorded: {bench.problems}", file=sys.stderr)
            return 1
        doc[name] = it.entry
        print(f"{name}: recorded {len(it.entry['digests'])} files in {it.wall_s:.1f} s")
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
