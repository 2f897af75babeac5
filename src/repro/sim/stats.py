"""Measurement helpers: latency distributions and throughput meters.

The paper reports mean / P25 / P50 / P75 / P99 / max latencies per
operation type (Table 3) and throughput in IOPS, TPS, tpmC and OPS.
These classes collect exactly those summaries from simulation runs.
"""

from bisect import bisect_right

from ..telemetry.histogram import nearest_rank


class LatencyRecorder:
    """Collects individual latency samples and summarises them.

    Percentiles use the nearest-rank method, which is what the LinkBench
    reporting script the paper relies on uses.
    """

    def __init__(self, name=""):
        self.name = name
        self._samples = []
        self._sorted = None  # cache, rebuilt lazily after new samples

    def record(self, latency):
        if latency < 0:
            raise ValueError("negative latency: %r" % latency)
        self._samples.append(latency)
        self._sorted = None

    def extend(self, latencies):
        for latency in latencies:
            self.record(latency)

    def sorted_samples(self):
        """All samples in ascending order (cached between records)."""
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def __len__(self):
        return len(self._samples)

    @property
    def count(self):
        return len(self._samples)

    @property
    def mean(self):
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def max(self):
        return max(self._samples) if self._samples else 0.0

    @property
    def min(self):
        return min(self._samples) if self._samples else 0.0

    def percentile(self, fraction):
        """Nearest-rank percentile; ``fraction`` in (0, 1]."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]: %r" % fraction)
        return nearest_rank(self.sorted_samples(), fraction)

    def summary(self):
        """Dict with the paper's Table 3 columns (seconds)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p25": self.percentile(0.25),
            "p50": self.percentile(0.50),
            "p75": self.percentile(0.75),
            "p99": self.percentile(0.99),
            "max": self.max,
        }

    def merged_with(self, other):
        merged = LatencyRecorder(self.name)
        merged._samples = self._samples + other._samples
        return merged


def render_latency_histogram(recorder, buckets=12, width=40):
    """ASCII latency histogram (log-spaced) for a LatencyRecorder."""
    samples = recorder.sorted_samples()
    if not samples:
        return "(no samples)"
    low = max(samples[0], 1e-7)
    high = samples[-1]
    if high <= low:
        high = low * 10
    edges = [low * (high / low) ** (i / buckets)
             for i in range(buckets + 1)]
    # Samples are sorted: bucket i gets everything in (edges[i],
    # edges[i+1]], plus bucket boundaries — one bisect per edge instead
    # of a linear edge scan per sample.  Values past the last edge land
    # in the final bucket, matching the old first-match semantics.
    bounds = [0] + [bisect_right(samples, edge) for edge in edges[1:-1]] \
        + [len(samples)]
    counts = [bounds[i + 1] - bounds[i] for i in range(buckets)]
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        bar = "#" * (width * count // peak if peak else 0)
        lines.append("%9.3fms-%9.3fms |%-*s %d"
                     % (edges[index] * 1e3, edges[index + 1] * 1e3,
                        width, bar, count))
    return "\n".join(lines)


class ThroughputMeter:
    """Counts completed operations over a simulated-time window."""

    def __init__(self, name=""):
        self.name = name
        self.completed = 0
        self._window_start = None
        self._window_end = None

    def start_window(self, now):
        """Begin measuring (call after warm-up)."""
        self._window_start = now
        self.completed = 0

    def record(self, now, amount=1):
        if self._window_start is None:
            return
        self.completed += amount
        self._window_end = now

    @property
    def elapsed(self):
        if self._window_start is None or self._window_end is None:
            return 0.0
        return self._window_end - self._window_start

    def per_second(self):
        """Operations per simulated second over the measured window."""
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed

    def per_minute(self):
        return self.per_second() * 60.0


class CounterSet:
    """A bag of named integer counters (cache hits, GC runs, bytes...)."""

    def __init__(self):
        self._counts = {}

    def add(self, name, amount=1):
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name):
        return self._counts.get(name, 0)

    def as_dict(self):
        return dict(self._counts)

    def ratio(self, numerator, denominator):
        """``numerator / denominator`` counters, 0.0 when undefined."""
        bottom = self.get(denominator)
        if not bottom:
            return 0.0
        return self.get(numerator) / bottom
