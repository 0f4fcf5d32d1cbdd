"""Every demo script runs to completion: each in a child process with the
package on PYTHONPATH, from a scratch working directory."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(tmp_path, script):
    out = subprocess.run([sys.executable, os.path.join(DEMOS, script)], cwd=tmp_path,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert out.returncode == 0, out.stderr
