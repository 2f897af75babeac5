"""Failover bench: rebuild-under-load MTTR vs the rebuild throttle.

Usage::

    python -m repro failover                   # full pace sweep
    python -m repro failover --smoke           # CI failover gate
    python -m repro failover --death early-death --ops 400
    python -m repro failover --pace 2e-4,5e-4,2e-3

Each cell kills mirror member 0 with a named death schedule
(:data:`DEATH_PROFILES`) while a seeded LinkBench stream is running,
then lets the hot-spare rebuild drain at one ``--pace`` setting (one
block per ``pace`` simulated seconds).  The verdict per cell:

* **MTTR** — the degraded window, death to fully-healthy mirror;
* **p99** — foreground command latency while the rebuild competes with
  the stream (the cost of a more aggressive throttle);
* **safety** — zero acked blocks lost while a survivor was present,
  and the spare's copy complete.

A fault-free control pins the baseline p99.  The second-failure cell
kills the survivor mid-rebuild: it must *report detected data loss* —
loudly, never a hang, never a silent PASS.
"""

import argparse
import time

from ..failures import chaos as harness
from ..telemetry.histogram import DEFAULT_LOG_EDGES, percentile_from_counts
from ..telemetry.hub import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry import series
from . import setups
from .scenarios import DEATH_PROFILES

#: rebuild throttle settings swept by the full bench (seconds per block)
PACES = (2e-4, 5e-4, 2e-3)

#: long enough that the kill lands mid-stream with writes on both sides
BASE_OPS = 200


def run_cell(seed, ops, death=None, pace=None, spares=1, engine="innodb",
             device="durassd", death_target="data:0"):
    """One failover cell; returns ``(result, foreground_p99_s)``."""
    scenario = harness.chaos_scenario(
        engine=engine, device=device, profile="none", seed=seed, ops=ops,
        mirror=2, checksums=True, death=death, death_target=death_target,
        spares=spares, rebuild_pace=pace)
    telemetry = Telemetry(enabled=False, metrics=MetricsRegistry(
        interval=harness.CHAOS_METRICS_INTERVAL))
    result = harness.run_chaos(scenario, telemetry=telemetry)
    return result, _cmd_p99(telemetry.metrics)


def _cmd_p99(registry):
    """Whole-run p99 of ``host.cmd_latency`` across every device."""
    kind, cumulatives = series.aggregate_window_values(
        registry, "host.cmd_latency", None)
    if kind != "histogram":
        return None
    last = None
    for value in cumulatives:
        if value is not None:
            last = value
    if not last or not last["count"]:
        return None
    return percentile_from_counts(last["counts"], DEFAULT_LOG_EDGES,
                                  0.99, upper=last["max"])


def _print_cell(label, result, p99, elapsed, expect_rebuild, expect_loss):
    info = result.failover or {}
    ok = result.completed and not result.failed
    if expect_loss:
        # the second-failure cell passes only by *reporting* the loss
        ok = ok and any(
            violation.startswith("death:data-loss-detected")
            for violation in result.violations)
    else:
        ok = ok and result.clean and not info.get("data_loss_blocks")
    if expect_rebuild and not info.get("rebuilds_completed"):
        ok = False
    mttr = ("%.0fms" % (info["rebuild_mttr_s"] * 1e3)
            if info.get("rebuild_mttr_s") is not None else "-")
    detect = ("%.1fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    p99_text = "%.2fms" % (p99 * 1e3) if p99 is not None else "-"
    print("%-34s %-5s mttr=%-7s det=%-7s p99=%-8s copied=%-4d "
          "lost=%-3d %4.1fs"
          % (label, "PASS" if ok else "FAIL", mttr, detect, p99_text,
             info.get("blocks_copied", 0), info.get("data_loss_blocks", 0),
             elapsed))
    for violation in result.violations:
        print("    violation: %s" % violation)
    return ok


def _run_suite(paces, seed, ops, death):
    """Control, the pace sweep, then the second-failure cell."""
    exit_code = 0
    begin = time.time()
    result, p99 = run_cell(seed, ops, death=None, spares=0)
    if not _print_cell("control / no-death", result, p99,
                       time.time() - begin, expect_rebuild=False,
                       expect_loss=False):
        exit_code = 1
    for pace in paces:
        begin = time.time()
        result, p99 = run_cell(seed, ops, death=death, pace=pace)
        if not _print_cell("%s / pace=%g" % (death, pace), result, p99,
                           time.time() - begin, expect_rebuild=True,
                           expect_loss=False):
            exit_code = 1
    # Second failure mid-rebuild: slow the copy so the one-copy window
    # is still open when the survivor dies.
    begin = time.time()
    result, p99 = run_cell(seed, ops, death="double-death",
                           death_target="data", pace=5e-3)
    if not _print_cell("double-death / pace=0.005", result, p99,
                       time.time() - begin, expect_rebuild=False,
                       expect_loss=True):
        exit_code = 1
    return exit_code


def sweep(seed=11, ops=None, death="mid-death", paces=PACES):
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS)
    print("failover sweep: %d ops per cell, seed %d, death=%s"
          % (ops, seed, death))
    exit_code = _run_suite(tuple(paces), seed, ops, death)
    print("failover sweep: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def smoke(seed=11, ops=None):
    """The CI failover gate: control, one rebuild, one double death."""
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS // 2)
    print("failover smoke: %d ops per cell, seed %d" % (ops, seed))
    exit_code = _run_suite((5e-4,), seed, ops, "mid-death")
    print("failover smoke: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def pace_list(text):
    return tuple(float(pace) for pace in text.split(","))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro failover", description=__doc__,
        epilog="death profiles:\n" + "\n".join(DEATH_PROFILES.listing()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: control, one rebuild, one double "
                        "death")
    parser.add_argument("--ops", type=int, help="operations per cell")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--death", default="mid-death", metavar="NAME",
                        choices=[name for name in DEATH_PROFILES.names()
                                 if name not in ("none", "double-death")],
                        help="single-death profile (default mid-death)")
    parser.add_argument("--pace", type=pace_list, default=PACES,
                        metavar="S[,S...]",
                        help="rebuild throttles, seconds per block")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    if args.smoke:
        return smoke(seed=args.seed, ops=args.ops)
    return sweep(seed=args.seed, ops=args.ops, death=args.death,
                 paces=args.pace)


if __name__ == "__main__":
    raise SystemExit(main())
