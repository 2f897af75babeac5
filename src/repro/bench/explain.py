"""Latency attribution reports: ``python -m repro explain <scenario>``.

Runs a traced scenario in two contrasting configurations, decomposes
every request's latency into blame categories
(:mod:`repro.telemetry.attribution`), and renders a markdown/JSON
report with blame tables, anomaly episodes and annotated tail-request
timelines.  The ``linkbench`` scenario is the paper's argument in one
table: flush-cache mode spends its tail in ``flush_cache`` and
``doublewrite``; durable-cache mode makes both collapse.

Usage::

    python -m repro explain linkbench
    python -m repro explain linkbench --quick --json report.json
    python -m repro explain gray --top 3 --out report.md

The command exits non-zero if the decomposition fails its own
exactness checks (blame must sum to wall time; unattributed time must
stay under 1%), so CI can gate on it.
"""

import json

from ..sim import units
from ..telemetry import Telemetry
from ..telemetry import report as report_mod
from . import scenarios, setups
from .figure5 import run_config

CLIENTS = 16
BASE_OPS = 24
PAGE_SIZE = 16 * units.KIB


def _traced(barrier, doublewrite, ops, world=setups.WorldConfig()):
    telemetry = Telemetry(enabled=True)
    result = run_config(barrier, doublewrite, PAGE_SIZE, clients=CLIENTS,
                        ops_per_client=ops, telemetry=telemetry, world=world)
    outcome = {
        "barrier": barrier,
        "doublewrite": doublewrite,
        "tps": round(result.tps, 1),
        "write_p99_ms": round(result.writes.percentile(0.99) * 1e3, 3),
    }
    return telemetry.events, outcome


def _scenario_linkbench(ops):
    """The paper's delta: barriers+doublewrite on vs both off."""
    modes = {}
    modes["flush-cache"] = _traced(True, True, ops)
    modes["durable-cache"] = _traced(False, False, ops)
    return modes


def _scenario_gray(ops):
    """Healthy vs gray-failing data path, durable-cache mode."""
    return {"healthy": _traced(False, False, ops),
            "gray-stalls": _traced(False, False, ops, setups.WorldConfig(
                gray_faults="stalls"))}


SCENARIOS = scenarios.ScenarioSet("explain")
SCENARIOS.register("linkbench",
                   "flush-cache vs durable-cache LinkBench blame",
                   _scenario_linkbench)
SCENARIOS.register("gray", "healthy vs gray-failing device blame",
                   _scenario_gray)


def run_scenario(name, quick=False, top_k=5):
    """Build the full explain report dict for one scenario."""
    fn = SCENARIOS.get(name)
    ops = 10 if quick else max(10, setups.ops_scale(BASE_OPS))
    modes = fn(ops)
    meta = {"clients": CLIENTS, "ops_per_client": ops,
            "page_size": PAGE_SIZE,
            "scale_factor": setups.scale_factor()}
    return report_mod.build(name, modes, meta=meta, top_k=top_k)


def main(argv=None):
    parser = SCENARIOS.parser("explain", __doc__)
    parser.add_argument("--quick", action="store_true",
                        help="10 operations per client")
    parser.add_argument("--json", metavar="PATH", help="JSON report path")
    parser.add_argument("--out", metavar="PATH",
                        help="markdown report path (default stdout)")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="slowest requests to annotate per mode")
    args = parser.parse_args(argv)
    if args.scenario == "list":
        parser.print_help()
        return 0
    report = run_scenario(args.scenario, quick=args.quick, top_k=args.top)
    markdown = report_mod.render_markdown(report)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(markdown)
        print("wrote %s" % args.out)
    else:
        print(markdown)
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    problems = report_mod.check(report)
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem)
        return 1
    print("attribution exact: blame sums to wall time in every mode "
          "(worst residue %.2g s)"
          % max(analysis["max_residue_s"]
                for analysis in report["modes"].values()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
