import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = [
    "04_branch_continuation.py",
    "05_epsilon_homotopy.py",
    "06_physical_fields_and_bounds.py",
    "07_irrotational_cross_check.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    # the demos drive the continuation and reconstruction APIs end to end
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
