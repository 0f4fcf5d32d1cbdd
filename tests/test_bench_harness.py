"""The benchmark harness wraps library functions by name; its self-test
fails when one of them is renamed or deleted, so run it with the suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    res = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
