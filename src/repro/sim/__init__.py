"""Discrete-event simulation kernel used by every layer of the stack."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)
from .profiler import SimProfiler
from .resources import Mutex, Resource, Store
from .rng import ScrambledZipfGenerator, UniformGenerator, ZipfGenerator, make_rng
from .stats import (
    CounterSet,
    LatencyRecorder,
    ThroughputMeter,
    render_latency_histogram,
)
from . import units

__all__ = [
    "AllOf",
    "AnyOf",
    "CounterSet",
    "Event",
    "Interrupted",
    "LatencyRecorder",
    "Mutex",
    "Process",
    "Resource",
    "ScrambledZipfGenerator",
    "SimProfiler",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "ThroughputMeter",
    "Timeout",
    "UniformGenerator",
    "ZipfGenerator",
    "make_rng",
    "render_latency_histogram",
    "units",
]
