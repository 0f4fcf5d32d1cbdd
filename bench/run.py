"""hhspace benchmark: one workload per call, each in fresh processes.

    python3 bench/run.py --workload raag-window --seed 1 --seconds 30 --trace 0

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics (setup_s, op_s, build_s, check_s, peak_rss_mb; the timings are
corrected for the shared CPU's speed, see meter.py); with --trace 1 it
holds the per-layer metrics of a traced run. Lines before it give the
sample counts, the raw wall medians, fail_ratio, the report digest, the
hash seed and the sizes.
See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4          # extra processes that only set up, for setup_s
TIMEOUT_S = 150


def _worker(args, env, extra=()):
    """Start worker.py, wait for it, and return (start instant, its JSON)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    # perf_counter is the system-wide CLOCK_MONOTONIC on Linux, so the
    # worker's readings of it compare with this one.
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench: worker exited with status %d" % proc.returncode)
    return start, json.loads(lines[-1])


def _setup(start, res):
    """Set-up of a worker started at `start`: its wall time, and the same
    corrected for the CPU's speed from where the worker's meter started
    (see meter.py); the interpreter's start before that stays wall time."""
    return (res["ready"] - start,
            res["metered"] - start + res["setup_tail"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="raag-window, hagen-probe or bs12-detect")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # The hash seed follows the run's seed: reports that depend on set
    # order (ROADMAP item 4) then show up as digests that change by seed.
    hash_seed = args.seed % 2 ** 32
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))

    if args.trace:
        res = _worker(args, env)[1]
    else:
        setups = [_setup(*_worker(args, env, ["--setup-only"]))
                  for _ in range(SETUP_PROBES)]
        start, res = _worker(args, env)
        setups.append(_setup(start, res))   # (wall s, speed-corrected s)

    attempted, failed = res["attempted"], res["failed"]
    print("workload %s seed %d hash_seed %d trace %d"
          % (args.workload, args.seed, hash_seed, args.trace))
    print("digest %s" % res["digest"])
    print("sizes %s" % " ".join("%s=%s" % kv for kv in
                                sorted({**(res["sizes"] or {}),
                                        **res.get("sizes_traced", {})}.items())))
    print("fail_ratio %.4f (%d failed of %d ops)"
          % (failed / attempted, failed, attempted))
    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(c for _, c in setups),
                               "unit": "s"}, **metrics}
        res["wall"] = {"setup_s": statistics.median(w for w, _ in setups),
                       **res["wall"]}
        print("samples: setup_s %d, op_s %d, speed %d"
              % (len(setups), res["samples"], res["speed_samples"]))
        print("wall medians, not speed-corrected: %s" % ", ".join(
            "%s %.6f s" % kv for kv in res["wall"].items()))
    for k, v in metrics.items():
        print("%-34s %14.6f %s" % (k, v["value"], v["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
