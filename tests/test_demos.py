import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(os.path.basename(p)
               for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    # every demo drives the library end to end
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
