"""Set-up probe: import the ldplab CLI and parse one config in a fresh process.

usage: python3 benchmarks/setup_probe.py CONFIG_JSON

This is the cost every ldplab command pays before it does any work.  The
probe prints the process's thread count after the imports; all threads but
the main one belong to the BLAS pool numpy started.
"""

import sys

import ldplab.cli  # noqa: F401  (the import is what is measured)
from ldplab.config import load_config, parse_config

parse_config(load_config(sys.argv[1]))

try:
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        threads = next(line.split()[1] for line in fh if line.startswith("Threads:"))
except (OSError, StopIteration):
    threads = "unknown"
print(f"threads={threads}")
