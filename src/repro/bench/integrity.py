"""End-to-end data-integrity sweep: silent corruption vs armed defenses.

Usage::

    python -m repro integrity                  # full profile x defense sweep
    python -m repro integrity --smoke          # CI integrity gate
    python -m repro integrity --profile bit-rot --mirror 2
    python -m repro integrity --ops 400 --seed 7

Each cell runs a seeded LinkBench stream over devices injected with a
named silent-corruption profile (:data:`CORRUPTION_PROFILES`: bit rot,
read disturb, misdirected writes, lost writes, or the mix) while one
defense configuration is armed:

* ``mirror2+scrub`` — a checksum-verified RAID-1 mirror with
  read-repair plus the background scrubber;
* ``checksums`` — block checksums on a single device: detection and
  fail-stop, no redundancy to repair from.

A passive audit layer *outside* the defense under test re-verifies
every block the stream reads; it is the harness's oracle, invisible to
the SLO monitor.  A cell passes when the stream completes, **zero**
corrupt reads were served undetected, and the integrity SLO rules fire
so the verdict carries a corruption-detection latency.  A
corruption-free control with the same defenses armed must stay silent
— no alerts, no mismatches — pinning the false-positive rate at zero.
"""

import argparse
import time

from ..failures import chaos as harness
from . import setups
from .scenarios import CORRUPTION_PROFILES

#: (label, chaos_scenario kwargs) — the defense arms swept per profile
DEFENSES = (
    ("mirror2+scrub", {"mirror": 2, "checksums": True, "scrub": True}),
    ("checksums", {"mirror": 1, "checksums": True}),
)

#: corruption surfaces only once reads miss the caches; shorter streams
#: can finish before a single poisoned block is ever read back
BASE_OPS = 200

#: the full sweep needs longer streams: read-disturb poisons blocks
#: only *behind* reads, so its first detectable re-read comes late
SWEEP_OPS = 400


def run_cell(corruption, defense_kwargs, seed, ops, engine="innodb",
             device="durassd"):
    """One integrity cell; returns the chaos-harness result."""
    scenario = harness.chaos_scenario(
        engine=engine, device=device, profile="none", seed=seed, ops=ops,
        corruption=corruption, **defense_kwargs)
    return harness.run_chaos(scenario)


def _print_cell(label, result, elapsed, expect_alerts):
    ok = (result.completed and not result.failed
          and result.undetected_corrupt_reads == 0)
    if expect_alerts and not result.alerts:
        ok = False
    if not expect_alerts and result.alerts:
        ok = False
    detect = ("%.0fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    print("%-36s %-5s det=%-6s caught=%-4d undetected=%-3d alerts=%-2d "
          "%4.1fs"
          % (label, "PASS" if ok else "FAIL", detect,
             result.ops_corrupt_detected, result.undetected_corrupt_reads,
             len(result.alerts), elapsed))
    for violation in result.violations:
        print("    violation: %s" % violation)
    return ok


def sweep(profiles=None, seed=11, ops=None, mirror=None):
    """The full (or filtered) profile x defense sweep plus the control."""
    ops = ops if ops is not None else max(setups.ops_scale(SWEEP_OPS),
                                          SWEEP_OPS)
    profiles = list(profiles) if profiles else CORRUPTION_PROFILES.names()
    defenses = DEFENSES
    if mirror is not None:
        defenses = ((("mirror%d+scrub" % mirror) if mirror > 1
                     else "checksums",
                     {"mirror": mirror, "checksums": True,
                      "scrub": mirror > 1}),)
    print("integrity sweep: %d ops per cell, seed %d" % (ops, seed))
    exit_code = 0
    for profile in profiles:
        for label, kwargs in defenses:
            begin = time.time()
            result = run_cell(profile, kwargs, seed, ops)
            if not _print_cell("%s / %s" % (profile, label), result,
                               time.time() - begin, expect_alerts=True):
                exit_code = 1
    # False-positive control: defenses armed, nothing injected.
    begin = time.time()
    result = run_cell(None, {"mirror": 2, "checksums": True, "scrub": True},
                      seed, ops)
    if not _print_cell("control / mirror2+scrub", result,
                       time.time() - begin, expect_alerts=False):
        exit_code = 1
    print("integrity sweep: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def smoke(seed=11, ops=None):
    """The CI integrity gate: one cell per defense plus the control."""
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS)
    print("integrity smoke: %d ops per cell, seed %d" % (ops, seed))
    exit_code = 0
    cells = (
        ("corruption-mix", DEFENSES[0]),
        ("bit-rot", DEFENSES[1]),
    )
    for profile, (label, kwargs) in cells:
        begin = time.time()
        result = run_cell(profile, kwargs, seed, ops)
        if not _print_cell("%s / %s" % (profile, label), result,
                           time.time() - begin, expect_alerts=True):
            exit_code = 1
    begin = time.time()
    result = run_cell(None, {"mirror": 2, "checksums": True, "scrub": True},
                      seed, ops)
    if not _print_cell("control / mirror2+scrub", result,
                       time.time() - begin, expect_alerts=False):
        exit_code = 1
    print("integrity smoke: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro integrity", description=__doc__,
        epilog="corruption profiles:\n"
        + "\n".join(CORRUPTION_PROFILES.listing()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: one cell per defense plus control")
    parser.add_argument("--ops", type=int, help="operations per cell")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--profile", metavar="NAME",
                        choices=CORRUPTION_PROFILES.names(),
                        help="one corruption profile (default: all)")
    parser.add_argument("--mirror", type=int, metavar="N",
                        help="one defense: N replicas (1 = checksums only)")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    if args.smoke:
        return smoke(seed=args.seed, ops=args.ops)
    return sweep(profiles=[args.profile] if args.profile else None,
                 seed=args.seed, ops=args.ops, mirror=args.mirror)


if __name__ == "__main__":
    raise SystemExit(main())
