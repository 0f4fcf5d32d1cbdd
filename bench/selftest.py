"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, the speed
correction on synthetic snippet samples, that patching records spans and
that restoring puts every wrapped function back, and that every metric
and workload name is well formed and matches BENCHMARK.json.
"""

import json
import os
import re
import sys
import types

import worker
import layers
import meter
import tracer

worker.load()       # imports hhspace from this checkout's src/

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _synthetic(spans):
    """A recorder holding the given (name, start, end, parent) spans."""
    rec = tracer.Recorder()
    for name, start, end, parent in spans:
        nid = rec.name_id(name)
        rec.name.append(nid)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.op.append(0)
        rec.reentry.append(0)
    return rec


def test_self_time_arithmetic():
    assert tracer.self_time(0, 100, []) == 100
    # children overlapping each other and running past the parent's end
    assert tracer.self_time(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert tracer.self_time(0, 100, [(20, 50), (10, 30)]) == 60
    assert tracer.self_time(0, 100, [(0, 100)]) == 0
    rec = _synthetic([
        ("outer", 0, 100, -1),
        ("inner", 10, 30, 0),
        ("leaf", 15, 25, 1),      # a grandchild: counts against inner only
        ("inner", 40, 70, 0),
        ("outer", 200, 260, -1),
        ("leaf", 210, 220, 4),
    ])
    assert rec.self_ns("outer") == (100 - 20 - 30) + (60 - 10)
    assert rec.self_ns("inner") == (20 - 10) + 30
    assert rec.self_ns("leaf") == 20
    assert rec.self_ns("absent") == 0
    totals = rec.outermost()
    assert totals["outer"] == (160.0, 2)
    assert totals["inner"] == (50.0, 2)


def test_live_spans_and_reentry():
    pkg = types.ModuleType("benchpkg")
    core = types.ModuleType("benchpkg.core")
    user = types.ModuleType("benchpkg.user")

    def kernel(n):
        return n if n <= 0 else core.kernel(n - 1) + 1

    class Box:
        def size(self):
            return core.kernel(2)

    core.kernel, core.Box = kernel, Box
    user.kernel = kernel          # as bound by `from .core import kernel`
    Box.__module__ = "benchpkg.core"
    mods = {"benchpkg": pkg, "benchpkg.core": core, "benchpkg.user": user}
    sys.modules.update(mods)
    try:
        targets = [tracer.Target("benchpkg.core", "kernel", "k"),
                   tracer.Target("benchpkg.core", "Box.size", "box",
                                 lambda self: lambda res: {"sizes": res})]
        rec = tracer.Recorder()
        patches = tracer.patch(rec, targets, "benchpkg")
        assert user.kernel is core.kernel and user.kernel is not kernel
        assert tracer.unrestored("benchpkg") == [
            "benchpkg.core.Box.size", "benchpkg.core.kernel", "benchpkg.user.kernel"]
        user.kernel(1)                 # inactive: records nothing
        assert len(rec.name) == 0
        rec.active = True
        assert Box().size() == 2
        rec.active = False
        patches.restore()
        assert core.kernel is kernel and user.kernel is kernel
        assert vars(Box)["size"].__qualname__.endswith("Box.size")
        assert tracer.unrestored("benchpkg") == []
        # Box.size -> kernel(2) -> kernel(1) -> kernel(0): the recursion
        # re-enters "k", so only its outermost span counts
        assert [rec.names[n] for n in rec.name] == ["box", "k", "k", "k"]
        assert list(rec.parent) == [-1, 0, 1, 2]
        assert list(rec.reentry) == [0, 0, 1, 1]
        totals = rec.outermost()
        assert totals["k"][1] == 1 and totals["box"][1] == 1
        assert rec.counters == {"sizes": 2}
    finally:
        for name in mods:
            del sys.modules[name]


def test_hhspace_targets_restored():
    def resolve(t):
        mod = sys.modules[t.module]
        owner, _, attr = t.qualname.rpartition(".")
        return vars(getattr(mod, owner) if owner else mod)[attr]

    before = [resolve(t) for t in layers.TARGETS]
    rec = tracer.Recorder()
    patches = tracer.patch(rec, layers.TARGETS, "hhspace")
    assert all(resolve(t) is not b for t, b in zip(layers.TARGETS, before))
    patches.restore()
    assert [resolve(t) for t in layers.TARGETS] == before
    assert tracer.unrestored("hhspace") == []


def test_meter_cost():
    m = meter.Meter()             # never entered: wall time, uncorrected
    assert m.cost([(1.0, 2.0), (3.0, 3.5)]) == (1.5, 1.5)
    # snippets ending at 1.2 and 1.6 took 2 and 4 REF_S: the CPU ran at a
    # third of the reference speed, and their own time is not counted
    m.at.extend([1.2, 1.6, 5.0])
    m.took.extend([2 * meter.REF_S, 4 * meter.REF_S, 9.0])
    wall, corrected = m.cost([(1.0, 2.0)])
    assert wall == 1.0
    assert abs(corrected - (1.0 - 6 * meter.REF_S) / 3) < 1e-12
    # an interval holding no snippet takes the fallback interval's speed
    wall, corrected = m.cost([(2.0, 2.5)], fallback=(1.0, 2.5))
    assert wall == 0.5 and abs(corrected - 0.5 / 3) < 1e-12


def test_metric_names():
    spans = {t.span for t in layers.TARGETS}
    names = [m for m, _, _, _ in layers.METRICS]
    assert len(names) == len(set(names))
    for name, unit, kind, key in layers.METRICS:
        assert NAME.match(name), name
        assert kind in ("time", "calls", "self", "count"), name
        assert kind == "count" or key in spans, name
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[section]:
            assert NAME.match(entry["name"]), entry["name"]
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == names + ["trace.overhead_s"]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "op_s", "build_s", "check_s", "peak_rss_mb"}


def main():
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("ok   %s" % name)
            except AssertionError as exc:
                failed += 1
                print("FAIL %s %s" % (name, exc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
