"""The ``bicat-check`` command.

Exit status: 0 when every executed check passes, 1 when any check fails,
3 when any check raised (an ``error`` row; 3 wins over 1), and 2 for
setup or I/O problems (bad flags, a fixture that is unreadable, malformed
or names no entity of the instance, a report that cannot be written).  So
CI can tell a broken law from a crashing check and from a broken setup.
"""

from __future__ import annotations

import argparse
import sys

from .fin import collector_paused
from .fmt import FmtError, parse_document
from .gen import INSTANCES, InvalidConfig, GenConfig, SUITES
from .harness import FixtureError, run_config
from .report import render_machine, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicat-check",
        description="Run enumeration checks against a finite bicategory "
                    "instance.")
    parser.add_argument("--instance", required=True, choices=INSTANCES)
    parser.add_argument("--max-size", type=int, default=3, metavar="N",
                        help="largest carrier size drawn (default 3)")
    parser.add_argument("--trials", type=int, default=50, metavar="N",
                        help="trials per seeded check (default 50)")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--suite", default="all", metavar="LIST",
                        help="comma-separated suite names, or 'all' "
                             "(choices: %s)" % ",".join(SUITES))
    parser.add_argument("--report", choices=("text", "machine"),
                        default="text")
    parser.add_argument("--fixtures", metavar="PATH",
                        help="also run the checks embedded in this "
                             "interchange-format file")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")
    return parser


def _suites(arg: str):
    return SUITES if arg == "all" else tuple(s for s in arg.split(",") if s)


@collector_paused
def main(argv=None) -> int:
    """The command, with the cyclic collector paused until the report is
    written, as a parsed fixture document stays live and acyclic until then
    (see :mod:`bicat.fin`)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = GenConfig(seed=args.seed, max_carrier=args.max_size,
                        trials=args.trials, instance=args.instance,
                        suites=_suites(args.suite))
    except InvalidConfig as exc:
        print("bicat-check: %s" % exc, file=sys.stderr)
        return 2

    fixture_doc = None
    if args.fixtures:
        try:
            with open(args.fixtures, "r", encoding="utf-8") as fh:
                fixture_doc = parse_document(fh.read())
        except OSError as exc:
            print("bicat-check: cannot read fixtures: %s" % exc,
                  file=sys.stderr)
            return 2
        except (FmtError, UnicodeDecodeError) as exc:
            print("bicat-check: malformed fixtures: %s" % exc,
                  file=sys.stderr)
            return 2

    try:
        report = run_config(cfg, fixture_doc)
    except FixtureError as exc:
        print("bicat-check: fixture cannot be interpreted: %s" % exc,
              file=sys.stderr)
        return 2

    rendered = (render_machine(report) if args.report == "machine"
                else render_text(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print("bicat-check: cannot write report: %s" % exc,
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 3 if "error" in report.statuses else 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
