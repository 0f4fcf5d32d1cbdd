"""In-memory spans around library calls, patched in from outside.

The traced run wraps library functions with `patch` and takes them back out
with `Patches.restore`. Every wrapped call records one span: its name, start
and end (ns), parent span, op id, and whether it re-enters an open span of
the same name. Spans are kept as parallel integer columns, so a traced op
with half a million kernel calls costs about 15 MB, and they stay in
memory until the run ends.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import namedtuple

import numpy as np

# module: dotted module name; qualname: "func" or "Class.method";
# span: the span name the call is recorded under (several functions may
# share one); count: optional hook called with the call's arguments before
# the call, returning None or a function of the result that returns
# {counter: amount}.
Target = namedtuple("Target", "module qualname span count", defaults=(None,))


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.reentry = array("b")
        self.counters = {}
        self.active = False
        self.op_id = -1
        self._stack = []
        self._open = []       # per name id: spans of that name now open

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.reentry.append(1 if self._open[nid] else 0)
        self.end.append(0)
        self._open[nid] += 1
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._open[self.name[i]] -= 1

    def add(self, counts):
        for key, val in counts.items():
            self.counters[key] = self.counters.get(key, 0) + val

    def outermost(self):
        """{span name: (total ns, calls)} over spans that do not re-enter an
        open span of the same name, so a kernel calling a kernel of the same
        span name is counted once."""
        names = np.frombuffer(self.name, dtype=np.int32)
        keep = np.frombuffer(self.reentry, dtype=np.int8) == 0
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        k = len(self.names)
        ns = np.bincount(names[keep], weights=dur[keep], minlength=k)
        calls = np.bincount(names[keep], minlength=k)
        return {n: (float(ns[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def self_ns(self, span):
        """Total self time (ns) of the spans named `span`."""
        if span not in self._ids:
            return 0.0
        nid = self._ids[span]
        kids = {i: [] for i, n in enumerate(self.name) if n == nid}
        for j, p in enumerate(self.parent):
            if p in kids:
                kids[p].append((self.start[j], self.end[j]))
        return float(sum(self_time(self.start[i], self.end[i], iv)
                         for i, iv in kids.items()))


def self_time(start, end, children):
    """Duration of [start, end) minus the part of it covered by the child
    intervals (clipped to the span, overlaps counted once)."""
    covered, reach = 0, start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def _traced(rec, nid, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        after = count(*args, **kwargs) if count else None
        i = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            rec.add(after(result))
        return result
    traced.traced_span = rec.names[nid]
    return traced


class Patches:
    def __init__(self):
        self.saved = []     # (owner, attribute, original)

    def restore(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []


def _modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def patch(rec, targets, package):
    """Wrap every target. A method is replaced on its class; a module-level
    function is replaced under every name that binds it in any loaded
    module of the package, since `from .x import f` copies the binding."""
    patches = Patches()
    try:
        for t in targets:
            mod = importlib.import_module(t.module)
            owner_name, _, attr = t.qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = vars(owner)[attr]
            wrapper = _traced(rec, rec.name_id(t.span), orig, t.count)
            if owner_name:
                patches.saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in _modules(package):
                for name, val in list(vars(m).items()):
                    if val is orig:
                        patches.saved.append((m, name, orig))
                        setattr(m, name, wrapper)
    except BaseException:
        patches.restore()
        raise
    return patches


def unrestored(package):
    """Names in the package's modules and classes still bound to a wrapper."""
    out = []
    for m in _modules(package):
        owners = [(m.__name__, m)] + [
            ("%s.%s" % (m.__name__, c.__name__), c) for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__]
        for prefix, owner in owners:
            out.extend("%s.%s" % (prefix, name) for name, val in vars(owner).items()
                       if hasattr(val, "traced_span"))
    return sorted(set(out))
