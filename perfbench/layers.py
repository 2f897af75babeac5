"""Layer bookkeeping for the benchmark: which package is which layer.

A *layer* is one sub-package of ``src/repro`` named in the simulator's
own profiler map, ``repro.sim.profiler.PACKAGE_LAYERS``; the benchmark
keeps no second copy.  Every module under ``src/repro`` belongs to
exactly one layer or to the *harness* (the experiment drivers and
failure harnesses, which a user of the simulator does not run).
:func:`check_layer_map` fails the benchmark when a new package appears
that the profiler's map does not name, so new code cannot land silently
in ``other``.

This module also holds the two host-cost instruments of the traced run:

* :class:`KernelCounts` counts process spawns and timeouts at
  ``Simulator.process`` / ``Simulator.timeout``, split by the layer of
  the calling code, and kernel event objects allocated
  (``Event.__init__``, which every event class runs).
* :func:`self_time_by_layer` groups a cProfile run's self time by
  layer.  Time in C builtins and in the standard library is charged to
  the layer that called it.
"""

import collections
import contextlib
import os
import sys

from repro.sim.profiler import PACKAGE_LAYERS

#: packages of ``repro`` that are harness code: experiment drivers and
#: failure harnesses.  Modules directly under ``repro`` are harness too.
HARNESS = ("bench", "failures")

#: the layers: every other package the simulator's own profiler names
LAYERS = tuple(package for package in PACKAGE_LAYERS
               if package not in HARNESS)

_MARKER = "%srepro%s" % (os.sep, os.sep)
_HERE = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(filename):
    """A layer, ``harness`` or None (stdlib, builtins, unmapped)."""
    if filename.startswith(_HERE + os.sep):
        return "harness"
    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    head = filename[index + len(_MARKER):].split(os.sep, 1)[0]
    if head in LAYERS:
        return head
    if head in HARNESS or head.endswith(".py"):
        return "harness"
    return None


def check_layer_map(package_dir):
    """Raise ``ValueError`` unless every module under ``package_dir``
    (``src/repro``) maps to one layer or the harness, and every layer
    has a module."""
    found = collections.Counter()
    unmapped = []
    for root, dirs, files in os.walk(package_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            layer = layer_of_file(os.path.abspath(path))
            if layer is None:
                unmapped.append(os.path.relpath(path, package_dir))
            else:
                found[layer] += 1
    if unmapped:
        raise ValueError("modules in no layer (add their package to "
                         "repro.sim.profiler.PACKAGE_LAYERS): %s"
                         % ", ".join(unmapped))
    missing = [layer for layer in LAYERS if not found[layer]]
    if missing:
        raise ValueError("layers with no modules: %s" % ", ".join(missing))


class KernelCounts:
    """Exact kernel cost counters for one simulator.

    ``spawns`` and ``timeouts`` are keyed by the calling layer; ``events``
    is every kernel event object constructed while :meth:`counting` is
    active.  Counting never touches the clock, the heap or any random
    stream, so a counted run is simulated identically to a plain one.
    """

    def __init__(self):
        self.spawns = collections.Counter()
        self.timeouts = collections.Counter()
        self.events = 0

    def attach(self, sim):
        """Count spawns and timeouts requested of ``sim``."""
        process, timeout = sim.process, sim.timeout
        spawns, timeouts = self.spawns, self.timeouts

        def counted_process(generator):
            spawns[_caller_layer()] += 1
            return process(generator)

        def counted_timeout(delay, value=None):
            timeouts[_caller_layer()] += 1
            return timeout(delay, value)

        sim.process = counted_process
        sim.timeout = counted_timeout

    @contextlib.contextmanager
    def counting(self):
        """Count kernel event objects constructed inside the block."""
        from repro.sim import engine

        original = engine.Event.__init__

        def counted_init(event, sim):
            self.events += 1
            original(event, sim)

        engine.Event.__init__ = counted_init
        try:
            yield self
        finally:
            engine.Event.__init__ = original

    def reset(self):
        """Forget what was counted so far (the world's set-up)."""
        self.spawns.clear()
        self.timeouts.clear()
        self.events = 0

    def totals(self):
        return {"spawns": sum(self.spawns.values()),
                "timeouts": sum(self.timeouts.values()),
                "events": self.events,
                "spawns_by_layer": dict(sorted(self.spawns.items())),
                "timeouts_by_layer": dict(sorted(self.timeouts.items()))}


def _caller_layer():
    # frame 0 is this function, 1 the counting wrapper, 2 the caller
    return layer_of_file(sys._getframe(2).f_code.co_filename) or "other"


def self_time_by_layer(stats):
    """``{layer: seconds}`` of cProfile self time.

    ``stats`` is ``pstats.Stats(profile).stats``.  A function outside
    ``repro`` and the benchmark (a C builtin or a standard-library
    function) has its self time split over its callers in proportion to
    the time each caller spent in it, recursively, until the time lands
    in a layer.  Time that never does is ``other``.
    """
    totals = collections.Counter()

    def charge(func, seconds, depth):
        layer = layer_of_file(func[0])
        if layer is not None:
            totals[layer] += seconds
            return
        callers = stats[func][4] if func in stats else {}
        weights = {caller: timing[3] for caller, timing in callers.items()}
        weight = sum(weights.values())
        if depth > 32 or weight <= 0.0:
            totals["other"] += seconds
            return
        for caller, share in weights.items():
            charge(caller, seconds * share / weight, depth + 1)

    for func, (_cc, _nc, self_seconds, _ct, _callers) in stats.items():
        if self_seconds > 0.0:
            charge(func, self_seconds, 0)
    return dict(totals)
