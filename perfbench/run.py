"""The repository benchmark: host cost and simulated results of the stack.

Run from the repository root::

    python3 perfbench/run.py --workload linkbench-durable --seed 7 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the traced run that breaks them down by layer.  Progress and a
readable summary go to stderr; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every check passed.

Every run includes a *verification run* of the seeded workload, untimed:
each DuraSSD records its acks, the kernel counters are on, and after the
last op the power is cut, the devices reboot and ``check_device`` must
find every acked write intact.  Every other pass over the same seed must
reproduce its simulated results and work counts exactly, and the traced
run's counted pass its kernel counts too.

Host CPU seconds are rescaled to a reference host by sampling a fixed
load while each pass runs (``reference.py``), because the speed of a
shared machine drifts by up to 2x over minutes.  See
``perfbench/README.md`` for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

import argparse
import contextlib
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "repro")

#: measured repeats per run, whatever ``--seconds`` says
MIN_REPEATS = 3
#: extra world builds timed for ``setup_s`` before each repeat.  They are
#: spread over the run, like the repeats, because the host's speed drifts
#: over seconds.
SETUP_SAMPLES = 5
#: pairs of a plain and a telemetry-armed pass in a traced run, whatever
#: ``--seconds`` says
MIN_TRACE_PAIRS = 2

#: simulated results and work counts that every run of one seed must
#: reproduce exactly
SIM_KEYS = ("attempted", "completed", "failed", "executed", "events",
            "sim_seconds", "sim_ops_per_s", "sim_write_mean_ms",
            "sim_write_tail_mean_ms", "sim_read_tail_mean_ms",
            "sim_write_p50_ms", "sim_write_p99_ms", "sim_read_p99_ms",
            "counters")


def metric_units(trace):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` lists for a
    ``--trace 0`` (end-to-end) or ``--trace 1`` (per-layer) run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        metrics = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def log(message, *args):
    print(message % args if args else message, file=sys.stderr, flush=True)


class Checks:
    """Failed checks and the op tally of one benchmark run."""

    def __init__(self):
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def count(self, record):
        self.attempted += record["attempted"]
        self.failed += record["failed"] + max(
            0, record["attempted"] - record["completed"])
        if record["failed"] or record["completed"] != record["attempted"]:
            self.fail("%d of %d ops completed, %d failed"
                      % (record["completed"], record["attempted"],
                         record["failed"]))

    def same(self, what, expected, found, keys=SIM_KEYS):
        for key in keys:
            if found.get(key) != expected[key]:
                self.fail("%s: %s is %r, the verification run had %r"
                          % (what, key, found.get(key), expected[key]))

    def fail(self, problem):
        log("CHECK FAILED: %s", problem)
        self.problems.append(problem)


@contextlib.contextmanager
def own_heap():
    """Collect the garbage and freeze every live object for the block.

    The cyclic collector then scans only what the block allocates, so
    the CPU time of a build or a run does not depend on what earlier
    passes left alive.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def build(workload, seed, telemetry=None, kernel=None):
    """Build one world."""
    from repro.sim import Simulator

    sim = Simulator(telemetry)
    if kernel is not None:
        kernel.attach(sim)
    return workload(sim, seed)


def time_setup(workload, seed):
    """CPU seconds of one world build; the world is dropped at once."""
    with own_heap():
        begin = time.process_time()
        world = build(workload, seed)
        spent = time.process_time() - begin
        del world
    return spent


def run_once(workload, seed, telemetry=None, kernel=None, profile=None,
             verify=False, timed=False):
    """Build and run one world; returns ``(world, record)``.

    Counts in the record (events, kernel counts, per-layer counters)
    cover the run phase only, not the set-up.  With ``verify`` the
    devices record acks, for the caller's power cut.  With ``timed`` a
    :class:`reference.Sampler` times the run phase: ``cpu_s`` is its CPU
    and ``ref_cpu_s`` that CPU at reference speed.  Callers drop the
    world before the next pass, so that one world is alive at a time.
    """
    from reference import INTERVAL_S, Sampler

    with own_heap():
        world = build(workload, seed, telemetry, kernel)
        if verify:
            world.record_acks()
        if kernel is not None:
            kernel.reset()
        sim = world.sim
        start, events, before = sim.now, sim.processed_events, world.totals()
        if not timed:
            sampler = contextlib.nullcontext()
        else:
            # under cProfile the handler would be profiled too: sample
            # only before and after the run
            sampler = Sampler(0 if profile is not None else INTERVAL_S)
        with sampler:
            if profile is not None:
                profile.enable()
            record = world.run()
            if profile is not None:
                profile.disable()
    if timed:
        record["cpu_s"] = sampler.cpu_s
        record["ref_cpu_s"] = sampler.reference_cpu_s()
    record["sim_seconds"] = sim.now - start
    record["events"] = sim.processed_events - events
    after = world.totals()
    record["counters"] = world.counters(
        {key: after[key] - before[key] for key in after}, record["executed"])
    return world, record


def verification_run(workload, seed, checks):
    """The untimed reference run with kernel counts and a power cut."""
    from layers import KernelCounts

    kernel = KernelCounts()
    with kernel.counting():
        world, record = run_once(workload, seed, kernel=kernel, verify=True)
    checks.count(record)
    begin = time.process_time()
    for problem in world.durability_violations():
        checks.fail("durability: " + problem)
    log("%s seed %d: verification run %d ops, %.0f sim ops/s, write p50 "
        "%.4f ms, write p99 %.4f ms, read p99 %.4f ms; power cut and "
        "check_device in %.2fs", workload.name, seed, record["completed"],
        record["sim_ops_per_s"], record["sim_write_p50_ms"],
        record["sim_write_p99_ms"], record["sim_read_p99_ms"],
        time.process_time() - begin)
    return record, kernel.totals()


def measure_end_to_end(workload, seed, seconds, checks):
    """Timed repeats; returns ``(host metrics, records of every pass)``.

    Runs before the verification run.  An untimed warm-up pass comes
    first: the interpreter's caches fill, and the peak RSS read after it
    is that of one plain world, before the reference load's array
    exists.  Every timed run, and the builds before it, are rescaled to
    the reference host (``reference.py``).
    """
    from reference import sample_cpu_s

    warmup = run_once(workload, seed)[1]
    checks.count(warmup)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sample_cpu_s()  # builds the load's array outside any timed pass
    setups = []
    repeats = []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS \
            or time.perf_counter() - start < seconds:
        builds = [time_setup(workload, seed) for _ in range(SETUP_SAMPLES)]
        record = run_once(workload, seed, timed=True)[1]
        checks.count(record)
        repeats.append(record)
        # A build is too short to sample; it is rescaled like the run
        # right after it.
        speed = record["ref_cpu_s"] / record["cpu_s"]
        setups.extend(build_s * speed for build_s in builds)
        log("  repeat %d: %.3fs CPU, %.3fs at reference speed, %.0f ops "
            "per reference CPU-s; setup %.2f ms, %.2f ms at reference "
            "speed", len(repeats), record["cpu_s"], record["ref_cpu_s"],
            record["executed"] / record["ref_cpu_s"],
            1e3 * statistics.median(builds),
            1e3 * statistics.median(builds) * speed)
    metrics = {
        "ops_per_cpu_s": statistics.median(
            r["executed"] / r["ref_cpu_s"] for r in repeats),
        "real_time_factor": statistics.median(
            r["sim_seconds"] / r["ref_cpu_s"] for r in repeats),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_kib / 1024.0,
    }
    return metrics, [warmup] + repeats


def measure_per_layer(workload, seed, seconds, reference, kernel_ref,
                      checks):
    from layers import LAYERS, KernelCounts, self_time_by_layer
    from reference import sample_cpu_s
    from repro.telemetry import Telemetry
    from repro.telemetry.attribution import CATEGORIES, attribute_requests

    ops = reference["executed"]
    metrics = {}
    passes = []
    sample_cpu_s()  # builds the load's array outside any timed pass

    # Plain and armed passes alternate, so that a drift in the host's
    # speed moves both sides of each ratio alike.
    plain_ref_cpu = []
    armed_ratios = []
    start = time.perf_counter()
    while len(armed_ratios) < MIN_TRACE_PAIRS \
            or time.perf_counter() - start < seconds:
        plain = run_once(workload, seed, timed=True)[1]
        checks.same("plain pass", reference, plain)
        world, armed = run_once(workload, seed, timed=True,
                                telemetry=Telemetry(enabled=True))
        checks.same("telemetry pass", reference, armed)
        passes += [plain, armed]
        plain_ref_cpu.append(plain["ref_cpu_s"])
        if not armed_ratios:
            _index, requests = attribute_requests(
                world.sim.telemetry.events, name_prefix=workload.span_prefix)
            if len(requests) != ops:
                checks.fail("%d request spans for %d ops"
                            % (len(requests), ops))
            for category in CATEGORIES:
                metrics["blame.%s_ms" % category] = 1e3 * sum(
                    request.blame[category] for request in requests) / ops
            del requests, _index
        del world
        armed_ratios.append(armed["ref_cpu_s"] / plain["ref_cpu_s"])
    metrics["telemetry.armed_cpu_ratio"] = statistics.median(armed_ratios)

    kernel = KernelCounts()
    with kernel.counting():
        counted = run_once(workload, seed, kernel=kernel)[1]
    checks.same("counted pass", reference, counted)
    checks.same("kernel counts", kernel_ref, kernel.totals(), kernel_ref)
    passes.append(counted)
    metrics["sim.events_per_op"] = reference["events"] / ops
    metrics["sim.spawns_per_op"] = kernel_ref["spawns"] / ops
    metrics["sim.timeouts_per_op"] = kernel_ref["timeouts"] / ops
    metrics["sim.allocs_per_op"] = kernel_ref["events"] / ops
    for layer in LAYERS:
        metrics["sim.spawns_from_%s_per_op" % layer] = \
            kernel_ref["spawns_by_layer"].get(layer, 0) / ops
        metrics["sim.timeouts_from_%s_per_op" % layer] = \
            kernel_ref["timeouts_by_layer"].get(layer, 0) / ops

    profile = cProfile.Profile()
    profiled = run_once(workload, seed, profile=profile, timed=True)[1]
    checks.same("cProfile pass", reference, profiled)
    passes.append(profiled)
    self_time = self_time_by_layer(pstats.Stats(profile).stats)
    traced = sum(self_time.values())
    covered = sum(self_time.get(layer, 0.0) for layer in LAYERS)
    metrics["trace.layer_coverage"] = covered / traced
    metrics["trace.cprofile_cpu_ratio"] = \
        profiled["ref_cpu_s"] / statistics.median(plain_ref_cpu)
    if covered / traced < 0.95:
        checks.fail("layers cover only %.1f%% of traced CPU"
                    % (100.0 * covered / traced))
    # Shares of traced self time, scaled to the untraced CPU per op at
    # reference speed, as ``ops_per_cpu_s`` counts it.
    us_per_op = statistics.median(plain_ref_cpu) * 1e6 / ops
    for layer in LAYERS + ("harness",):
        metrics["%s.cpu_us_per_op" % layer] = \
            self_time.get(layer, 0.0) / traced * us_per_op
    log("  self time by layer (%% of %.2fs traced): %s", traced, ", ".join(
        "%s %.1f" % (layer, 100.0 * seconds / traced) for layer, seconds
        in sorted(self_time.items(), key=lambda item: -item[1])))

    for record in passes:
        checks.count(record)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(PACKAGE):
        log("error: %s is missing; run from a checkout of the repository",
            os.path.relpath(PACKAGE))
        return 2
    sys.path.insert(0, os.path.dirname(PACKAGE))
    from layers import check_layer_map

    try:
        check_layer_map(PACKAGE)
    except ValueError as error:
        log("error: %s", error)
        return 2
    from cells import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log("error: unknown workload %r (one of %s)", args.workload,
            ", ".join(WORKLOADS))
        return 2

    checks = Checks()
    units = metric_units(args.trace)
    if args.trace:
        reference, kernel_ref = verification_run(workload, args.seed, checks)
        # a layer this workload does not use does no work: 0
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(reference["counters"])
        metrics.update(measure_per_layer(workload, args.seed, args.seconds,
                                         reference, kernel_ref, checks))
    else:
        metrics, records = measure_end_to_end(workload, args.seed,
                                              args.seconds, checks)
        reference, _kernel = verification_run(workload, args.seed, checks)
        for number, record in enumerate(records):
            checks.same("pass %d" % number, reference, record)
        for key in units:
            if key.startswith("sim_"):
                metrics[key] = reference[key]
    unknown = set(metrics) ^ set(units)
    if unknown:
        checks.fail("metrics and units differ: %s" % sorted(unknown))
    log("%s seed %d: error rate %d/%d", workload.name, args.seed,
        checks.failed, checks.attempted)
    for key in units:
        log("  %-36s %14.6g %s", key, metrics[key], units[key])
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
    }))
    return 0 if not checks.problems else 1


if __name__ == "__main__":
    sys.exit(main())
