"""One workload in one fresh process: set up, run ops, check them, report.

Started by run.py; prints human-readable lines and, as its last line, a
JSON object for run.py. With --setup-only it stops when it is ready for
its first op and reports only that instant.

Load shape: a closed loop with one client. One op at a time, the next
starting when the previous one ends; every op is timed, the first
included, because a command-line user pays that cost on every call.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import string
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


import meter

clock = meter.clock


def load():
    """Import hhspace from this checkout's src/ and nowhere else, and bind
    the modules the workloads use. Part of set-up, so not done on import."""
    global cli, embedding, fixtures, graphproduct, serialize, treecombine
    if not os.path.isfile(os.path.join(SRC, "hhspace", "__init__.py")):
        sys.exit("bench: no hhspace sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import hhspace
    if os.path.dirname(os.path.dirname(os.path.abspath(hhspace.__file__))) != SRC:
        sys.exit("bench: hhspace imported from %s, not %s" % (hhspace.__file__, SRC))
    from hhspace import (cli, embedding, fixtures, graphproduct, serialize,
                         treecombine)


class RaagWindow:
    """build() of the path on three vertices with ("z", 1) bases and window
    radius 2, then audit_combined. The seed picks the generator names."""

    name = "raag-window"

    def __init__(self, seed):
        a, b, c = random.Random(seed).sample(string.ascii_lowercase, 3)
        self.spec = graphproduct.ProductSpec(
            (a, b, c), frozenset([frozenset((a, b)), frozenset((b, c))]),
            {v: ("z", 1) for v in (a, b, c)}, window_radius=2)

    def op(self):
        t0 = clock()
        res = graphproduct.build(self.spec)
        t1 = clock()
        rep = treecombine.audit_combined(res.combined)
        t2 = clock()
        doc = {"radius": self.spec.window_radius, "cert": res.cert.as_dict(),
               "audit_ok": rep.ok, "audit": rep.as_dict()}
        return [(t0, t1)], [(t1, t2)], doc, (res, rep)

    def check(self, out):
        res, rep = out
        model = res.combined.model
        sizes = {"X": len(model.space), "S": len(model.elements)}
        problems = []
        if not res.cert.ok:
            problems.append("certification chain fails")
        if not rep.ok:
            problems.append("combined audit fails")
        if sizes != {"X": 638, "S": 19}:
            problems.append("sizes %r, expected X=638 S=19" % (sizes,))
        return problems, sizes


class HagenProbe:
    """fixtures.hagen(r), verify_embedding and probe_embedding for
    r = 2..12. The seed shuffles the radius order."""

    name = "hagen-probe"

    def __init__(self, seed):
        self.radii = list(range(2, 13))
        random.Random(seed).shuffle(self.radii)

    def op(self):
        build, check = [], []
        rows = []
        for r in self.radii:
            t0 = clock()
            emb = fixtures.hagen(r)
            t1 = clock()
            ver = embedding.verify_embedding(emb)
            pr = embedding.probe_embedding(emb)
            t2 = clock()
            build.append((t0, t1))
            check.append((t1, t2))
            rows.append((r, emb, ver, pr))
        rows.sort(key=lambda row: row[0])
        doc = {"family": [{"radius": r, "verify_ok": ver.ok, "probe": pr.as_dict()}
                          for r, _, ver, pr in rows]}
        return build, check, doc, rows

    def check(self, rows):
        problems = []
        prev = None
        for r, emb, ver, pr in rows:
            if not ver.ok:
                problems.append("r=%d: embedding fails verification" % r)
            space, f = emb.target.space, emb.space_map
            if any(space.dset(f(m), f(m + 1)) != 2 * m + 2 for m in range(r)):
                problems.append("r=%d: segment lengths are not 2m+2" % r)
            row = (pr.lipschitz[0], pr.qi[0], pr.outside_diam_proper)
            if prev is not None and not all(a < b for a, b in zip(prev, row)):
                problems.append("r=%d: (lipschitz, qi, outside_proper) = %r "
                                "does not grow from %r" % (r, row, prev))
            prev = row
        sizes = {"X": sum(len(emb.target.space) for _, emb, _, _ in rows),
                 "S": sum(len(emb.target.elements) for _, emb, _, _ in rows)}
        return problems, sizes


class Bs12Detect:
    """tree_from_json of the bs_window(2, 7) tree document, then
    build_combined, which must raise ComparisonNotUniform. The seed
    relabels the tree vertices, keeping their order, so the favorite
    vertex of the class and every measured constant stay the same."""

    name = "bs12-detect"
    offenders_K = [3.5, 7.5, 15.5, 31.5, 63.5, 127.5]

    def __init__(self, seed):
        doc = serialize.tree_to_json(fixtures.bs_window(2, 7))
        old = doc["vertices"]
        picks = random.Random(seed).sample(range(10 ** 6), len(old))
        new = sorted("t%06d" % k for k in picks)
        rename = dict(zip(old, new))
        doc["vertices"] = [rename[v] for v in old]
        doc["edges"] = [[rename[a], rename[b]] for a, b in doc["edges"]]
        doc["vertex_models"] = [[rename[v], m] for v, m in doc["vertex_models"]]
        doc["edge_models"] = [[[rename[a], rename[b]], m]
                              for (a, b), m in doc["edge_models"]]
        doc["edge_maps"] = [[[rename[a], rename[b]], rename[end], maps]
                            for (a, b), end, maps in doc["edge_maps"]]
        self.text = json.dumps(doc)

    def op(self):
        t0 = clock()
        tree = serialize.tree_from_json(json.loads(self.text))
        t1 = clock()
        try:
            treecombine.build_combined(tree)
            exc = None
        except treecombine.ComparisonNotUniform as e:
            exc = e
        t2 = clock()
        doc = cli._failure_doc(exc) if exc is not None else {"error": None}
        return [(t0, t1)], [(t1, t2)], doc, (tree, exc)

    def check(self, out):
        tree, exc = out
        models = tree.vertex_models.values()
        sizes = {"X": sum(len(m.space) for m in models),
                 "S": sum(len(m.elements) for m in models)}
        if exc is None:
            return ["build_combined did not raise ComparisonNotUniform"], sizes
        K = [o[3] for o in exc.offenders]
        if K != self.offenders_K:
            return ["offender constants %r, expected %r" % (K, self.offenders_K)], sizes
        return [], sizes


WORKLOADS = {w.name: w for w in (RaagWindow, HagenProbe, Bs12Detect)}


PHASES = ("op_s", "build_s", "check_s")


class Run:
    """Runs ops, checks each outside its timed region, keeps the samples:
    speed-corrected times under the phase names (see meter.py) and raw
    wall times under "wall." plus the phase name."""

    def __init__(self, workload, meter):
        self.workload = workload
        self.meter = meter
        self.attempted = self.failed = 0
        self.samples = {k: [] for p in PHASES for k in (p, "wall." + p)}
        self.digest = None
        self.sizes = None

    def one(self, rec=None):
        self.attempted += 1
        try:
            if rec is not None:
                rec.op_id, rec.active = self.attempted, True
            try:
                t0 = clock()
                build, check, doc, out = self.workload.op()
                payload = serialize.dumps(doc)
                t1 = clock()
            finally:
                if rec is not None:
                    rec.active = False
            problems, self.sizes = self.workload.check(out)
            del out, doc
            digest = hashlib.sha256(payload.encode()).hexdigest()
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems.append("report digest %s differs from the first op's %s"
                                % (digest, self.digest))
        except Exception as exc:    # an op that raises counts as failed
            problems = ["%s: %s" % (type(exc).__name__, exc)]
        gc.collect()
        if problems:
            self.failed += 1
            for p in problems:
                print("op %d failed: %s" % (self.attempted, p), file=sys.stderr)
            return
        whole = (t0, t1)
        for key, spans in (("op_s", [whole]), ("build_s", build), ("check_s", check)):
            wall, corrected = self.meter.cost(spans, fallback=whole)
            self.samples[key].append(corrected)
            self.samples["wall." + key].append(wall)

    def until(self, deadline, rec=None):
        """Ops one after another, at least one, while the next is expected
        to end by the deadline (taking it to last as long as the last)."""
        while True:
            start = clock()
            self.one(rec)
            now = clock()
            if now + (now - start) > deadline:
                return

    def median(self, key):
        vals = self.samples[key]
        return statistics.median(vals) if vals else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.trace:
        load()
        workload = WORKLOADS[args.workload](args.seed)
        ready = clock()
        result, run, metrics = traced(args, workload, ready)
    else:
        with meter.Meter() as mtr:
            # Set-up is corrected from here on; the interpreter's start
            # before this line stays wall time (run.py adds it).
            metered = clock()
            load()
            workload = WORKLOADS[args.workload](args.seed)
            ready = clock()
            result = {"ready": ready, "metered": metered,
                      "setup_tail": mtr.cost([(metered, ready)])[1]}
            if args.setup_only:
                print(json.dumps(result))
                return 0
            run = Run(workload, mtr)
            run.until(ready + args.seconds)
        metrics = {k: (run.median(k), "s") for k in PHASES}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        result["wall"] = {k: run.median("wall." + k) for k in PHASES}
        result["speed_samples"] = len(mtr.took)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result.update(attempted=run.attempted, failed=run.failed,
                  samples=len(run.samples["op_s"]), digest=run.digest,
                  sizes=run.sizes)
    print(json.dumps(result))
    return 0


def traced(args, workload, ready):
    """Half the time untraced, as the base for the tracing overhead, half
    traced. The meter is off: a meter never entered takes no samples, so
    every time here is wall time."""
    # Imported here, not at the top: they import NumPy, which untraced
    # runs should import inside the metered set-up, through hhspace.
    import layers
    import tracer
    run = Run(workload, meter.Meter())
    run.until(ready + args.seconds / 2)
    untraced = run.median("op_s")
    run.samples["op_s"] = []
    rec = tracer.Recorder()
    patches = tracer.patch(rec, layers.TARGETS, "hhspace")
    try:
        traced_from = run.attempted
        run.until(ready + args.seconds, rec)
    finally:
        patches.restore()
    left = tracer.unrestored("hhspace")
    if left:
        sys.exit("bench: wrappers left in place: %s" % ", ".join(left))
    metrics = layers.per_op(rec, run.attempted - traced_from)
    metrics["trace.overhead_s"] = (run.median("op_s") - untraced, "s")
    result = {"ready": ready, "sizes_traced": {k: metrics[k][0] for k in (
        "spaces.distinct_sets", "model.pairs_scanned", "spaces.bfs_vertices")}}
    return result, run, metrics


if __name__ == "__main__":
    sys.exit(main())
