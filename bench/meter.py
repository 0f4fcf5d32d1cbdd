"""Wall time corrected for the speed the shared CPU ran at.

The benchmark runs on a few virtual CPUs of a shared host. There the same
op runs up to twice as slow for seconds to minutes at a time, because
other tenants load the same physical cores and caches, and neither the
process's CPU time nor the kernel's steal counter shows it. Medians of
raw wall time then drift by more than the benchmark's bounds between runs
of the same code.

`Meter` samples that speed while ops run: a SIGALRM timer runs a fixed
snippet every PERIOD_S in the main thread, so on the CPU the op runs on,
and records when it ended and how long it took. The snippet is Python
object work (tuples, dict lookups, attribute stores, small sets), where
hhspace spends most of its time. In trials on the benchmark's host it
tracked the ops' slowdowns better than a snippet of small NumPy
operations, of random reads from a 64 MB array or of lookups in a large
dict, alone or mixed with it. `cost` turns a list of wall intervals into
their wall time minus the snippets' own time, scaled by REF_S over the
mean snippet time inside them: the time the intervals would have taken on
a CPU that runs the snippet in REF_S. The program under test is not
involved in the snippet, so a change to it moves the corrected time as it
moves the wall time.
"""

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

clock = time.perf_counter

PERIOD_S = 0.005
# A round figure near the snippet's median time inside ops on the machine
# the bounds were set on (2-vCPU Xeon KVM guest), so that corrected times
# come out near typical wall times there. It only scales them.
REF_S = 70e-6

_TABLE = {(i, 3 * i): i for i in range(64)}


class _Slot:
    __slots__ = ("a", "b")


def snippet():
    """Fixed work whose duration tracks the CPU's current speed."""
    slot, acc = _Slot(), 0
    for i in range(120):
        key = (i & 63, 3 * (i & 63))
        acc += _TABLE.get(key, 0)
        slot.a, slot.b = acc, key
        acc += len({key, i})
    return acc


class Meter:
    """Use as a context manager around the ops it should correct."""

    def __init__(self):
        self.at = array("d")      # when each snippet ended (perf_counter)
        self.took = array("d")    # how long it took
        self._saved = None

    def _sample(self, signum, frame):
        t = clock()
        snippet()
        end = clock()
        self.at.append(end)
        self.took.append(end - t)

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _inside(self, lo, hi):
        return bisect_left(self.at, lo), bisect_right(self.at, hi)

    def cost(self, spans, fallback=None):
        """(wall s, corrected s) of the (start, end) intervals. Intervals
        holding no snippet take their speed from the interval `fallback`
        (start, end); with no snippet in either, as when the meter never
        ran, the corrected time is the wall time."""
        wall = sum(hi - lo for lo, hi in spans)
        took = []
        for lo, hi in spans:
            i, j = self._inside(lo, hi)
            took.extend(self.took[i:j])
        net = wall - sum(took)
        if not took and fallback is not None:
            i, j = self._inside(*fallback)
            took = self.took[i:j]
        if not took:
            return wall, net
        return wall, net * REF_S * len(took) / sum(took)
