"""The benchmark harness wraps library functions by name; its self-test
fails when one of them is renamed or deleted, so run it with the suite.
The report digests of its workloads are pinned here as well."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    res = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr


# The report digest of one op of each workload, as run.py computes it: the
# child runs under PYTHONHASHSEED equal to the seed, as run.py starts its
# workers. A change that is meant to alter a report updates its pin.
BENCH_DIGESTS = {
    1: {"raag-window": "9859d92346000845220cc81f0a0f79a8ad4d621ede6fa341ebc150968d5cbd4a",
        "hagen-probe": "c2bcc6b4812b0a62d39f2d5221660f5370f8d9df7591e407346eb2e3e0c42564",
        "bs12-detect": "6196205139b98c177a94a61d819d776c7fad956fa8705db80456ff5b01c0994c"},
    2: {"raag-window": "0127645f5cd9b31fed633f70d09390e1832ef2b2adcf57ddda4302028888d2b7",
        "hagen-probe": "c2bcc6b4812b0a62d39f2d5221660f5370f8d9df7591e407346eb2e3e0c42564",
        "bs12-detect": "fc1fd3e9c2a17697243e8ef172941473979d9a3657840ec544d40b2cff9c8550"},
}

_DIGEST_CHILD = """
import hashlib, json, sys
sys.path.insert(0, "bench")
import worker
worker.load()
seed = int(sys.argv[1])
print(json.dumps({name: hashlib.sha256(worker.serialize.dumps(
    cls(seed).op()[2]).encode()).hexdigest() for name, cls in worker.WORKLOADS.items()}))
"""


@pytest.mark.parametrize("seed", sorted(BENCH_DIGESTS))
def test_bench_digests_unchanged(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    res = subprocess.run([sys.executable, "-c", _DIGEST_CHILD, str(seed)], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1]) == BENCH_DIGESTS[seed]
