import glob
import os
import re
import runpy

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demos")
DEMOS = sorted(glob.glob(os.path.join(DEMO_DIR, "*.py")))
# 04 writes into demos/out and 06 takes seconds: those two are import-only
RUN_MAIN = (
    "01_costs_and_noise.py",
    "02_single_trajectories.py",
    "03_exact_lower_bound.py",
    "05_rate_functions.py",
)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    # a run name other than "__main__" executes the imports and definitions only
    runpy.run_path(path, run_name="demo_import")


@pytest.mark.parametrize("name", RUN_MAIN)
def test_demo_main_runs(name, capsys):
    runpy.run_path(os.path.join(DEMO_DIR, name), run_name="demo_import")["main"]()
    assert capsys.readouterr().out


def test_readme_library_quickstart_runs():
    # the block is executed as written, so it cannot drift from the library
    with open(os.path.join(DEMO_DIR, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, "README.md quickstart", "exec"), names)
    assert names["tail"].n_runs == 2**16 and len(names["fits"]) == 2
