"""Traced scenarios for ``python -m repro trace <experiment>``.

Each scenario builds one quick, representative world of the named
experiment with an *enabled* telemetry hub, runs it, and hands the hub
back.  The CLI then writes a Chrome ``trace_event`` JSON (load it at
``ui.perfetto.dev`` or ``chrome://tracing``), optionally the raw JSONL
event stream, and prints an ASCII summary and flamegraph.

Scenarios are deliberately small — a trace of a few hundred operations
is readable; a trace of a full benchmark sweep is not.  To trace a full
benchmark run instead, use ``python -m repro <experiment> --telemetry``.
"""

from ..telemetry import Telemetry
from .scenarios import TRACED

#: the shared traced-scenario registry (see repro.bench.scenarios)
SCENARIOS = TRACED


def run_scenario(name, sample_interval=0.002):
    """Run a traced scenario; returns ``(telemetry, outcome_line)``."""
    fn = SCENARIOS.get(name)
    telemetry = Telemetry(enabled=True, sample_interval=sample_interval)
    outcome = fn(telemetry)
    return telemetry, outcome


def main(argv=None):
    """``python -m repro trace <experiment> [--out X] [--jsonl Y]``."""
    parser = SCENARIOS.parser("trace", __doc__)
    parser.add_argument("--out", default="trace.json", metavar="PATH",
                        help="chrome trace path (default trace.json)")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="also write the raw JSONL event stream")
    parser.add_argument("--sample-interval", type=float, default=0.002,
                        metavar="SECONDS", help="probe sampling interval")
    parser.add_argument("--quiet", action="store_true",
                        help="skip the summary and flamegraph")
    args = parser.parse_args(argv)
    if args.scenario == "list":
        parser.print_help()
        return 0
    if args.sample_interval <= 0:
        parser.error("--sample-interval must be positive")
    telemetry, outcome = run_scenario(args.scenario,
                                      sample_interval=args.sample_interval)
    telemetry.write_chrome_trace(args.out)
    print(outcome)
    print("chrome trace: %s (%d events, tracks: %s)"
          % (args.out, len(telemetry.events), ", ".join(telemetry.tracks())))
    if args.jsonl is not None:
        telemetry.write_jsonl(args.jsonl)
        print("jsonl events: %s" % args.jsonl)
    if not args.quiet:
        print()
        print(telemetry.render_summary())
        from ..telemetry import render_flamegraph
        print()
        print(render_flamegraph(telemetry.events))
    return 0
