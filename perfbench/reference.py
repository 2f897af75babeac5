"""A fixed reference load: how fast the host runs Python right now.

On a shared machine the CPU time of the same seeded simulation drifts by
up to 2x over minutes, as neighbours come and go.  The benchmark samples
this load while it times a build or a run and rescales the CPU seconds
to a host on which one sample costs :data:`REFERENCE_CPU_S`; a drift
that slows the load and the simulator alike then cancels.

A sample stores into 30000 objects scattered over an array of 131072
(5 MiB), past the core's own 2 MiB cache, so it slows when a neighbour
fills the shared cache, as the simulator does.  It allocates nothing,
so its cost does not depend on how the simulator has left the heap: a
version that built a tuple per store got 20% slower over five minutes
of LinkBench repeats whose own CPU did not move.  It imports nothing
from ``repro``, so no change to the simulator changes its cost.
"""

import functools
import gc
import math
import random
import signal
import statistics
import time

#: objects in the array the stores are scattered over
OBJECTS = 1 << 17
#: stores per sample
STEPS = 30000
#: CPU seconds one sample is taken to cost on the reference host: about
#: the median inside a LinkBench run on a 2-vCPU Xeon VM, Python 3.11
REFERENCE_CPU_S = 0.0047
#: wall seconds between samples while a pass runs
INTERVAL_S = 0.1


class _Slot:
    __slots__ = ("value",)

    def __init__(self):
        self.value = None


@functools.cache
def _load():
    """The stores a sample makes, in order, and the table they write.

    Built by the first sample, so that a pass run before it has the
    process's memory to itself.  A sample allocates nothing, so its
    cost does not depend on how the simulator has left the heap.
    """
    slots = [_Slot() for _ in range(OBJECTS)]
    rng = random.Random(1)
    order = [(slots[rng.randrange(OBJECTS)], slots[rng.randrange(OBJECTS)],
              step % 4096) for step in range(STEPS)]
    return order, dict.fromkeys(range(4096))


def sample_cpu_s():
    """CPU seconds of one sample: :data:`STEPS` stores into objects of the
    array, picked in the same pseudo-random order every time, each also
    stored in a dict."""
    order, table = _load()
    collecting = gc.isenabled()
    gc.disable()
    begin = time.process_time()
    for slot, other, key in order:
        slot.value = other
        table[key] = slot
    spent = time.process_time() - begin
    if collecting:
        gc.enable()
    return spent


class Sampler:
    """Times the CPU of a ``with`` block and samples the reference load
    every ``interval`` seconds of wall time inside it, from a ``SIGALRM``
    handler, so the samples cover the same seconds as the block.  One
    more sample is taken just before and one just after; with
    ``interval=0`` those two are all (for a block under cProfile, which
    would profile the handler).

    The handler touches no simulator state: a sampled run is simulated
    exactly like a plain one.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.cpu_s = None
        self._begin = None

    def __enter__(self):
        self.samples.append(sample_cpu_s())
        if self.interval:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval,
                             self.interval)
        self._begin = time.process_time()
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.process_time() - self._begin
        if self.interval:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        #: CPU seconds of the block without the samples taken inside it
        self.cpu_s = elapsed - math.fsum(self.samples[1:])
        self.samples.append(sample_cpu_s())

    def _tick(self, _signum, _frame):
        self.samples.append(sample_cpu_s())

    def reference_cpu_s(self):
        """:attr:`cpu_s` rescaled to the reference host."""
        return self.cpu_s * REFERENCE_CPU_S / statistics.median(self.samples)
