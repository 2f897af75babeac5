"""Command-line entry point: regenerate any of the paper's artifacts.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro all            # every table and figure, in order
    REPRO_QUICK=1 python -m repro figure5

    python -m repro trace table1 --out trace.json   # telemetry trace
    python -m repro table1 --telemetry              # trace the real run

    python -m repro torture innodb durassd          # crash-point sweep
    python -m repro torture --smoke                 # CI torture gate

    python -m repro chaos --seeds 20                # gray-failure sweeps
    python -m repro chaos --smoke                   # CI chaos gate
    python -m repro chaos --corruption bit-rot --mirror 2
    python -m repro table1 --gray-faults mild       # benches on a sick device

    python -m repro integrity                       # corruption vs defenses
    python -m repro integrity --smoke               # CI integrity gate

    python -m repro failover                        # rebuild MTTR vs pace
    python -m repro failover --smoke                # CI failover gate
    python -m repro chaos --death mid-death --mirror 2 --spares 1
    python -m repro chaos --list-profiles           # every fault profile

    python -m repro scaling                         # stripe-width sweep
    python -m repro figure5 --devices 4             # any bench, striped data
    python -m repro figure5 --mirror 2              # any bench, mirrored data
    python -m repro table5 --log-device             # dedicated log placement
    python -m repro figure5 --interface nvme --sq 4 # NVMe multi-queue host
    python -m repro table1 --queue-depth 64         # deeper queue slots

    python -m repro explain linkbench               # latency blame report
    python -m repro regress                         # perf gate vs baseline

    python -m repro monitor figure5                 # metrics + SLO dashboard
    python -m repro table1 --metrics-interval 0.01  # any bench + series CSV

    python -m repro profile figure5-small           # simulator self-profile
    python -m repro profile --speed                 # BENCH_speed.json baseline
    python -m repro scaling --profile               # any bench + wall report
"""

import argparse
import sys

from .bench import (
    ablations,
    atomicity,
    bursts,
    chaos,
    explain,
    failover,
    figure5,
    figure6,
    integrity,
    monitor,
    profile,
    regress,
    scaling,
    setups,
    table1,
    table2,
    table3,
    table4,
    table5,
    torture,
    tracing,
)

EXPERIMENTS = {
    "table1": ("Table 1: fsync/flush-cache vs 4KB write IOPS",
               table1.main),
    "table2": ("Table 2: page size vs IOPS", table2.main),
    "figure5": ("Figure 5: LinkBench TPS across configurations",
                figure5.main),
    "figure6": ("Figure 6: miss ratio / TPS vs buffer size",
                figure6.main),
    "table3": ("Table 3: LinkBench latency distributions", table3.main),
    "table4": ("Table 4: TPC-C tpmC", table4.main),
    "table5": ("Table 5: Couchbase YCSB vs fsync batch", table5.main),
    "ablations": ("Ablations: lifetime, capacitors, mapping, flush",
                  ablations.main),
    "atomicity": ("Atomic-write mechanism comparison", atomicity.main),
    "bursts": ("Write-burst absorption / tail tolerance", bursts.main),
}

ORDER = ["table1", "table2", "figure5", "figure6", "table3", "table4",
         "table5", "ablations", "atomicity", "bursts"]

#: experiments whose main() accepts a telemetry hub (--telemetry flag)
TELEMETRY_CAPABLE = frozenset(tracing.SCENARIOS)

#: commands that parse their own flags
SUBCOMMANDS = {
    "trace": tracing.main,
    "torture": torture.main,
    "chaos": chaos.main,
    "integrity": integrity.main,
    "failover": failover.main,
    "explain": explain.main,
    "monitor": monitor.main,
    "regress": regress.main,
    "profile": profile.main,
}


def _emit_profile(target, sims):
    """Report the self-profile of every world a ``--profile`` bench run
    built: a pooled wall-attribution summary on stdout plus the full
    aggregate as ``<target>-profile.json``."""
    profilers = [sim.telemetry.profiler for sim in sims
                 if sim.telemetry.profiler is not None
                 and sim.telemetry.profiler.steps]
    if not profilers:
        return
    import json

    from .sim.profiler import aggregate
    report = aggregate(profilers)
    report["schema"] = "repro.profile/1"
    report["scenario"] = target
    path = "%s-profile.json" % target
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print("\nself-profile: %d world(s), %d events, %.2fx real time, "
          "%.0f events/sec -> %s"
          % (report["worlds"], report["steps"],
             report["real_time_factor"], report["events_per_sec"], path))
    for row in report["layers"][:5]:
        print("  %-10s %6.1f%%  %.3fs" % (row["layer"],
                                          row["share"] * 100,
                                          row["wall_s"]))


def _emit_metrics(target, sims):
    """Export the series of every metrics-armed world a bench built
    (``--metrics-interval``) as long-format CSV, one world column."""
    sims = [sim for sim in sims if sim.telemetry.metrics.enabled]
    if not sims:
        return
    from .telemetry import series as series_mod
    path = "%s-metrics.csv" % target
    lines = []
    windows = 0
    for index, sim in enumerate(sims):
        registry = sim.telemetry.metrics
        registry.finish()
        windows += len(registry.windows)
        chunk = series_mod.csv_lines(registry, world=index)
        lines.extend(chunk if not lines else chunk[1:])
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\nmetrics: %d world(s), %d window(s) at %gs intervals -> %s"
          % (len(sims), windows, sims[0].telemetry.metrics.interval, path))


def _emit_reports(target, sims):
    _emit_metrics(target, sims)
    _emit_profile(target, sims)


def _bench_parser():
    """Flags of ``python -m repro <experiment|all>``: the shared world
    flags plus the full-run telemetry trace."""
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     parents=[setups.world_parser()])
    parser.add_argument("target", help="an experiment name, or 'all'")
    parser.add_argument("--telemetry", action="store_true",
                        help="trace the experiment's representative run")
    parser.add_argument("--out", help="chrome trace path for --telemetry "
                        "(default <target>-trace.json)")
    return parser


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("experiments:")
        for name in ORDER:
            flag = " [--telemetry]" if name in TELEMETRY_CAPABLE else ""
            print("  %-10s %s%s" % (name, EXPERIMENTS[name][0], flag))
        return 0
    target = argv[0]
    if target in SUBCOMMANDS:
        return SUBCOMMANDS[target](argv[1:])
    sims = []
    if target == "scaling":
        status = scaling.main(argv[1:], sims)
        _emit_reports(target, sims)
        return status
    if target != "all" and target not in EXPERIMENTS:
        print("unknown experiment: %r (try 'list')" % target)
        return 2
    parser = _bench_parser()
    args = parser.parse_args(argv)
    world = setups.world_config(parser, args)
    if args.out is not None and not args.telemetry:
        parser.error("--out names the --telemetry trace")
    if target == "all":
        if args.telemetry:
            parser.error("--telemetry traces one experiment, not 'all'")
        for name in ORDER:
            print("=" * 70)
            print("== %s" % EXPERIMENTS[name][0])
            print("=" * 70)
            sims = []
            EXPERIMENTS[name][1](world=world, sims=sims)
            _emit_reports(name, sims)
            print()
        return 0
    if not args.telemetry:
        EXPERIMENTS[target][1](world=world, sims=sims)
        _emit_reports(target, sims)
        return 0
    if target not in TELEMETRY_CAPABLE:
        print("--telemetry is not supported for %r (supported: %s)"
              % (target, ", ".join(sorted(TELEMETRY_CAPABLE))))
        return 2
    from .telemetry import Telemetry
    telemetry = Telemetry(enabled=True)
    EXPERIMENTS[target][1](telemetry=telemetry, world=world, sims=sims)
    out = args.out or "%s-trace.json" % target
    telemetry.write_chrome_trace(out)
    print("\nchrome trace of the representative %s run: %s "
          "(%d events, tracks: %s)"
          % (target, out, len(telemetry.events),
             ", ".join(telemetry.tracks())))
    _emit_reports(target, sims)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
