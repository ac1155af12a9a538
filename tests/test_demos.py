import os
import subprocess
import sys

import pytest

import centrex

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("demo", ["01_classify_extensions.py",
                                  "02_certify_loop_pair.py",
                                  "03_period_integral.py"])
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(os.path.abspath(centrex.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
