"""Gray-failure chaos sweeps over the device x engine x profile matrix.

Usage::

    python -m repro chaos                          # durassd/innodb, all profiles
    python -m repro chaos innodb ssd-a --profile gc-storm --seeds 20
    python -m repro chaos --smoke                  # CI: every preset, quick
    python -m repro chaos --corruption bit-rot --mirror 2
    python -m repro chaos --death mid-death --mirror 2 --spares 1
    python -m repro chaos --interface nvme --sq 4    # NVMe multi-queue host
    python -m repro chaos --list-profiles
    python -m repro chaos --seeds 20 --out repro.json
    python -m repro chaos --replay repro.json

Each run replays a seeded LinkBench stream against devices injected with
a named gray-fault profile (:data:`repro.failures.grayfaults.PROFILES`)
while the full tolerance stack is armed: host command deadlines with
abort/soft-reset/retry, plus database admission control and read-only
demotion.  A run passes when the stream completes (liveness), the
post-run power-cut recovery checks clean (safety), completion time stays
inside the profile's degradation bound, and a permanent hang demotes the
engine to read-only instead of deadlocking.  Failing runs are minimized
to replayable JSON artifacts with ``--out``.
"""

import argparse
import json
import time

from ..devices import DEVICE_MAKERS
from ..failures import chaos as harness
from ..failures.torture import ENGINES
from ..host.queues import INTERFACES
from . import setups
from .scenarios import CORRUPTION_PROFILES, DEATH_PROFILES, GRAY_PROFILES

DEVICES = tuple(DEVICE_MAKERS)

#: curable profiles every smoke device is swept with
SMOKE_PROFILES = ("mild", "gc-storm", "pause", "hang")

SMOKE_BASE_OPS = 40


def run_profile(engine, device, profile, seed, ops, gray_target="both",
                stripe=1, corruption=None, mirror=1, checksums=None,
                scrub=None, death=None, death_target="data", spares=0,
                rebuild_pace=None, interface="sata", submission_queues=2):
    scenario = harness.chaos_scenario(engine=engine, device=device,
                                      profile=profile, seed=seed, ops=ops,
                                      gray_target=gray_target, stripe=stripe,
                                      corruption=corruption, mirror=mirror,
                                      checksums=checksums, scrub=scrub,
                                      death=death, death_target=death_target,
                                      spares=spares,
                                      rebuild_pace=rebuild_pace,
                                      interface=interface,
                                      submission_queues=submission_queues)
    result = harness.run_chaos(scenario)
    return scenario, result


def _print_result(label, result, elapsed):
    verdict = "PASS" if result.clean else "FAIL"
    if not result.expected_clean and result.violations:
        verdict = "FINDS"
    ratio = ("%.2fx" % result.degradation_ratio
             if result.degradation_ratio is not None else "-")
    detect = ("%.0fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    print("%-32s %-6s ok=%-4d to=%-3d rej=%-3d hard=%-3d ro=%-5s "
          "slow=%-6s det=%-6s %5.1fs"
          % (label, verdict, result.ops_ok, result.ops_timed_out,
             result.ops_rejected, result.ops_failed_hard,
             result.read_only, ratio, detect, elapsed))
    if result.failover:
        info = result.failover
        mttr = ("%.0fms" % (info["rebuild_mttr_s"] * 1e3)
                if info["rebuild_mttr_s"] is not None else "-")
        print("    failover: dead=%s degraded=%.0fms copied=%d "
              "mttr=%s lost=%d"
              % (",".join(info["devices_dead"]) or "-",
                 info["degraded_seconds"] * 1e3, info["blocks_copied"],
                 mttr, info["data_loss_blocks"]))
    for violation in result.violations:
        print("    violation: %s" % violation)


def smoke(ops=None, seed=11):
    """Quick chaos pass over every device preset; the CI chaos gate."""
    ops = ops if ops is not None else setups.ops_scale(SMOKE_BASE_OPS)
    print("chaos smoke: %d ops per run, seed %d" % (ops, seed))
    exit_code = 0
    for device in DEVICES:
        for profile in SMOKE_PROFILES:
            begin = time.time()
            _scenario, result = run_profile("innodb", device, profile,
                                            seed, ops)
            _print_result("innodb/%s/%s" % (device, profile), result,
                          time.time() - begin)
            if result.failed or not result.completed:
                exit_code = 1
        # The terminal case: a permanently hung data device must demote
        # the engine to read-only — completing the stream with rejected
        # writes — never deadlock the workload.  Floor the op count so
        # quick mode still leaves enough writes after the hang instant
        # to reach the escalation limit.
        begin = time.time()
        _scenario, result = run_profile("innodb", device, "hang-permanent",
                                        seed, max(ops, SMOKE_BASE_OPS),
                                        gray_target="data")
        _print_result("innodb/%s/hang-permanent" % device, result,
                      time.time() - begin)
        if result.failed or not result.completed or not result.read_only:
            if not result.read_only:
                print("    permanent hang did not demote to read-only")
            exit_code = 1
    # One sick stripe member: gray faults on data member 1 only.  The
    # stream must still complete (the host retries around the sick
    # member's timeouts) and the post-run power-cut recovery must check
    # clean — the healthy members' write-order invariants hold even
    # while their sibling is misbehaving.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "gc-storm",
                                    seed, max(ops, SMOKE_BASE_OPS),
                                    gray_target="data:1", stripe=2)
    _print_result("innodb/durassd/gc-storm (stripe=2, member 1)", result,
                  time.time() - begin)
    if result.failed or not result.completed:
        exit_code = 1
    # The same gray-fault ladder behind the NVMe multi-queue host
    # interface: deadlines, aborts and soft resets must work per
    # submission queue, and the post-run power-cut recovery must still
    # check clean — the queue model changes dispatch, not durability.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "gc-storm",
                                    seed, max(ops, SMOKE_BASE_OPS),
                                    gray_target="data",
                                    interface="nvme", submission_queues=2)
    _print_result("innodb/durassd/gc-storm (nvme, sq=2)", result,
                  time.time() - begin)
    if result.failed or not result.completed:
        exit_code = 1
    # Silent corruption against an armed defense: bit rot on both
    # mirror replicas (independent salts), checksums verifying every
    # read, the scrubber patrolling in the background.  The stream must
    # complete with zero undetected corrupt reads (the passive audit
    # layer is the oracle) and the integrity SLO rules must fire so the
    # verdict carries a corruption-detection latency.  Floor the op
    # count: corruption surfaces only once reads miss the caches.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "none",
                                    seed, max(ops * 5, 200),
                                    corruption="corruption-mix", mirror=2)
    _print_result("innodb/durassd/corruption-mix (mirror=2)", result,
                  time.time() - begin)
    if result.failed or not result.completed:
        exit_code = 1
    if result.undetected_corrupt_reads:
        print("    undetected corrupt reads: %d"
              % result.undetected_corrupt_reads)
        exit_code = 1
    if not result.alerts:
        print("    corruption fired no SLO alert")
        exit_code = 1
    # False-positive control: same defenses armed, no corruption
    # injected.  The integrity rules must stay silent.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "none",
                                    seed, max(ops, SMOKE_BASE_OPS),
                                    mirror=2, checksums=True, scrub=True)
    _print_result("innodb/durassd/none (mirror=2, armed)", result,
                  time.time() - begin)
    if result.failed or not result.completed:
        exit_code = 1
    # Whole-device fail-stop with a hot spare: mirror member 0 dies
    # mid-stream, the survivor serves degraded, the rebuilder copies
    # the tracked blocks onto the spare.  The verdict must carry a
    # member-down detection latency and a rebuild MTTR, with zero
    # acked-write loss — a completed rebuild is the PASS condition.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "none",
                                    seed, max(ops, SMOKE_BASE_OPS),
                                    death="mid-death",
                                    death_target="data:0", mirror=2,
                                    spares=1, checksums=True)
    _print_result("innodb/durassd/mid-death (mirror=2, spare)", result,
                  time.time() - begin)
    info = result.failover or {}
    if result.failed or not result.completed or not result.clean:
        exit_code = 1
    if info.get("data_loss_blocks"):
        print("    acked writes lost with a survivor present")
        exit_code = 1
    if not info.get("rebuilds_completed"):
        print("    hot-spare rebuild did not complete")
        exit_code = 1
    if result.detection_latency_s is None:
        print("    member death fired no SLO alert")
        exit_code = 1
    # Second failure during rebuild: both mirror members die (the
    # second mid-rebuild, the pace is slowed so the window is open).
    # The cell must complete — and must *loudly* report detected data
    # loss; a silent PASS here is the one unforgivable outcome.
    begin = time.time()
    _scenario, result = run_profile("innodb", "durassd", "none",
                                    seed, max(ops, SMOKE_BASE_OPS),
                                    death="double-death",
                                    death_target="data", mirror=2,
                                    spares=1, rebuild_pace=5e-3)
    _print_result("innodb/durassd/double-death (mirror=2, spare)", result,
                  time.time() - begin)
    if not result.completed:
        exit_code = 1
    if not any(violation.startswith("death:data-loss-detected")
               for violation in result.violations):
        print("    second death did not report detected data loss")
        exit_code = 1
    print("chaos smoke: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def sweep_seeds(engine, device, profile, seeds, ops, base_seed=0,
                out_path=None, corruption=None, mirror=1, death=None,
                death_target="data", spares=0, interface="sata",
                submission_queues=2):
    """``seeds`` independent runs of one profile; minimize the first
    failure to a replayable artifact when ``--out`` is given."""
    exit_code = 0
    for seed in range(base_seed, base_seed + seeds):
        begin = time.time()
        scenario, result = run_profile(engine, device, profile, seed, ops,
                                       corruption=corruption, mirror=mirror,
                                       death=death,
                                       death_target=death_target,
                                       spares=spares, interface=interface,
                                       submission_queues=submission_queues)
        label = "%s/%s/%s" % (engine, device, profile)
        if corruption:
            label += "+%s" % corruption
        if death:
            label += "+%s" % death
        _print_result("%s seed=%d" % (label, seed),
                      result, time.time() - begin)
        if result.failed or not result.completed:
            exit_code = 1
            if out_path:
                ops_list = harness.generate_ops(scenario)
                artifact = harness.minimize_chaos(
                    scenario, ops_list,
                    predicate=lambda r: r.failed or not r.completed)
                if artifact is None:
                    print("    minimization found no stable repro")
                else:
                    with open(out_path, "w") as handle:
                        json.dump(artifact, handle, indent=2, sort_keys=True)
                    print("    minimized repro (%d ops): %s"
                          % (len(artifact["ops"]), out_path))
                out_path = None  # keep only the first failure's artifact
    return exit_code


def replay(path):
    """Re-run a minimized chaos artifact and report its verdict."""
    with open(path) as handle:
        artifact = json.load(handle)
    begin = time.time()
    result = harness.replay_artifact(artifact)
    _print_result("replay %s" % path, result, time.time() - begin)
    print("  recorded violations: %r" % (artifact.get("violations"),))
    return 1 if (result.failed or not result.completed) else 0


def _profiles_text():
    """Every named fault profile the chaos harness can inject."""
    lines = ["gray-fault profiles (--profile NAME):"]
    lines += GRAY_PROFILES.listing()
    lines.append("corruption profiles (--corruption NAME):")
    lines += CORRUPTION_PROFILES.listing()
    lines.append("death profiles (--death NAME):")
    lines += DEATH_PROFILES.listing()
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos", description=__doc__,
        epilog=_profiles_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("engine", nargs="?", default="innodb",
                        choices=ENGINES)
    parser.add_argument("device", nargs="?", default="durassd",
                        choices=DEVICES)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: every device preset, quick")
    parser.add_argument("--list-profiles", action="store_true",
                        help="print every fault profile and exit")
    parser.add_argument("--replay", metavar="PATH",
                        help="re-run a minimized chaos artifact")
    parser.add_argument("--ops", type=int, help="operations per run")
    parser.add_argument("--seed", type=int,
                        help="first seed (default 0; 11 with --smoke)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="runs per profile")
    parser.add_argument("--profile", metavar="NAME",
                        choices=GRAY_PROFILES.names(),
                        help="one gray-fault profile (default: all but none)")
    parser.add_argument("--out", metavar="PATH",
                        help="minimized repro artifact path")
    parser.add_argument("--corruption", metavar="NAME",
                        choices=CORRUPTION_PROFILES.names())
    parser.add_argument("--mirror", type=int, default=1, metavar="N",
                        help="mirror the data target across N replicas")
    parser.add_argument("--death", metavar="NAME",
                        choices=DEATH_PROFILES.names())
    parser.add_argument("--death-target", default="data", metavar="TARGET",
                        help="data, log, all or data:N (default data)")
    parser.add_argument("--spares", type=int, default=0, metavar="N",
                        help="hot spares for the mirror")
    parser.add_argument("--interface", choices=INTERFACES, default="sata",
                        help="host queue model")
    parser.add_argument("--sq", type=int, default=2, metavar="N",
                        help="NVMe submission queues")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    if args.list_profiles:
        print(_profiles_text())
        return 0
    if args.replay:
        return replay(args.replay)
    if args.smoke:
        return smoke(ops=args.ops, seed=11 if args.seed is None else args.seed)
    if (args.corruption or args.death) and not args.profile:
        # corruption or death alone is a valid chaos run: default the
        # gray-fault dimension to the healthy control instead of
        # sweeping it.
        profiles = ["none"]
    else:
        profiles = [args.profile] if args.profile \
            else [name for name in GRAY_PROFILES if name != "none"]
    ops = setups.ops_scale(120) if args.ops is None else args.ops
    exit_code = 0
    for name in profiles:
        code = sweep_seeds(args.engine, args.device, name, args.seeds, ops,
                           base_seed=args.seed or 0, out_path=args.out,
                           corruption=args.corruption, mirror=args.mirror,
                           death=args.death, death_target=args.death_target,
                           spares=args.spares, interface=args.interface,
                           submission_queues=args.sq)
        exit_code = exit_code or code
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
