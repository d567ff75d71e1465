import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(path):
    # a run name other than "__main__" executes the imports and definitions only
    runpy.run_path(path, run_name="demo_import")
