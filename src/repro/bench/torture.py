"""Crash-consistency torture sweeps over the device x engine matrix.

Usage::

    python -m repro torture                       # durassd / innodb, full sweep
    python -m repro torture innodb ssd-a --barriers off
    python -m repro torture --smoke               # CI: every preset, quick
    python -m repro torture --ops 300 --out repro.json

The smoke mode sweeps every device preset under InnoDB/LinkBench with
auto barrier policy (off only for devices claiming a durable cache) and
exits non-zero if any *promising* configuration violates an invariant at
any cut point — plus a negative control proving the detector still
catches the volatile-cache-no-barrier anomalies.  A failing or violating
sweep can be minimized to a replayable JSON artifact with ``--out``.
"""

import argparse
import json
import time

from ..devices import DEVICE_MAKERS
from ..failures import torture as harness
from . import setups

DEVICES = tuple(DEVICE_MAKERS)

SMOKE_BASE_OPS = 40


def run_sweep(engine, device, ops, seed=11, barriers=None, doublewrite=True,
              max_trials=None, nested_stride=5, stripe=1):
    scenario = harness.TortureScenario(engine=engine, device=device,
                                       ops=ops, seed=seed, barriers=barriers,
                                       doublewrite=doublewrite, stripe=stripe)
    result = harness.sweep(scenario, max_trials=max_trials,
                           nested_stride=nested_stride)
    return scenario, result


def _print_summary(label, result, elapsed):
    summary = result.summary()
    verdict = "PASS" if result.clean else "FAIL"
    if not summary["expected_clean"] and summary["violations"]:
        verdict = "FINDS"  # anomalies found where none were promised
    print("%-28s %-10s trials=%-4d nested=%-3d violations=%-6d %5.1fs"
          % (label, verdict, summary["trials"], summary["nested_trials"],
             summary["violations"], elapsed))
    if result.first_failure is not None:
        print("    first failing cut: t=%.6f" % result.first_failure)


def smoke(ops=None, seed=11):
    """Quick sweep of every device preset; the CI torture gate."""
    ops = ops if ops is not None else setups.ops_scale(SMOKE_BASE_OPS)
    print("torture smoke: %d ops per sweep, seed %d" % (ops, seed))
    exit_code = 0
    for device in DEVICES:
        begin = time.time()
        _scenario, result = run_sweep("innodb", device, ops, seed=seed)
        _print_summary("innodb/%s" % device, result, time.time() - begin)
        if not result.clean:
            exit_code = 1
    # Striped data target: a power cut must leave every stripe member
    # mutually consistent — the checker sees one flat LBA space, so any
    # member that lags an acked barrier shows up as a torn page or a
    # lost committed write.
    begin = time.time()
    _scenario, result = run_sweep("innodb", "durassd", ops, seed=seed,
                                  stripe=2)
    _print_summary("innodb/durassd (stripe=2)", result, time.time() - begin)
    if not result.clean:
        exit_code = 1
    # Negative control: with barriers off on a volatile cache the sweep
    # MUST surface anomalies, or the detector itself is broken.
    begin = time.time()
    _scenario, control = run_sweep("innodb", "ssd-a", ops, seed=seed,
                                   barriers=False)
    found = sum(len(trial.violations) for trial in control.trials)
    _print_summary("innodb/ssd-a (no barriers)", control,
                   time.time() - begin)
    if found == 0:
        print("    negative control found no violations: detector broken")
        exit_code = 1
    print("torture smoke: %s" % ("ok" if exit_code == 0 else "FAILED"))
    return exit_code


def full(engine, device, ops, seed, barriers, doublewrite, max_trials,
         out_path=None):
    begin = time.time()
    scenario, result = run_sweep(engine, device, ops, seed=seed,
                                 barriers=barriers, doublewrite=doublewrite,
                                 max_trials=max_trials)
    _print_summary("%s/%s" % (engine, device), result, time.time() - begin)
    summary = result.summary()
    print("  mode=%s candidates=%d expected_clean=%r"
          % (summary["mode"], summary["candidates"],
             summary["expected_clean"]))
    kinds = {}
    for trial in result.trials:
        for violation in trial.violations:
            kind = ":".join(violation.split(":")[:2])
            kinds[kind] = kinds.get(kind, 0) + 1
    for kind in sorted(kinds):
        print("  %-28s %d" % (kind, kinds[kind]))
    if out_path and (result.failures or summary["violations"]):
        predicate = ((lambda trial: trial.failed) if result.failures
                     else (lambda trial: not trial.clean))
        artifact = harness.minimize(scenario, result.recording.ops,
                                    predicate=predicate)
        if artifact is None:
            print("  minimization found no stable repro")
        else:
            with open(out_path, "w") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
            print("  minimized repro (%d ops, cut t=%.6f): %s"
                  % (len(artifact["ops"]), artifact["cut_time"], out_path))
    return 1 if result.failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro torture", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("engine", nargs="?", default="innodb",
                        choices=harness.ENGINES)
    parser.add_argument("device", nargs="?", default="durassd",
                        choices=DEVICES)
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: every device preset, quick")
    parser.add_argument("--ops", type=int, help="operations per sweep")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--barriers", choices=("auto", "on", "off"),
                        default="auto",
                        help="auto: off only for durable-cache devices")
    parser.add_argument("--no-doublewrite", action="store_true",
                        help="disable InnoDB's doublewrite buffer")
    parser.add_argument("--max-trials", type=int,
                        help="cap the cut points tried")
    parser.add_argument("--out", metavar="PATH",
                        help="minimized repro artifact path")
    args = parser.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be >= 1")
    if args.smoke:
        return smoke(ops=args.ops, seed=args.seed)
    return full(args.engine, args.device,
                ops=setups.ops_scale(200) if args.ops is None else args.ops,
                seed=args.seed,
                barriers=None if args.barriers == "auto"
                else args.barriers == "on",
                doublewrite=not args.no_doublewrite,
                max_trials=args.max_trials, out_path=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
