"""The ``bicat-check`` command.

Exit status: 0 when every executed check passes, 1 when any check fails,
3 when any check raised (an ``error`` row; 3 wins over 1), and 2 for
setup or I/O problems: bad flags, a fixture that is unreadable, malformed
or names no entity of the instance, or any report, message or help text
that :func:`_write` cannot write (a failed stdout is told on stderr as
``bicat-check: cannot write report: ...``, a failed stderr nowhere).  So
CI can tell a broken law from a crashing check and from a broken setup.

:func:`console`, the installed command and ``python -m bicat.cli``, ends the
process with ``os._exit``, so the interpreter neither tears down a heap that
no one reads again nor flushes a failed stream.  In-process callers use
:func:`main`, which returns the exit status (argparse's exits still raise).
"""

from __future__ import annotations

import argparse
import os
import sys

from .fin import collector_paused
from .fmt import FmtError, parse_document
from .gen import INSTANCES, InvalidConfig, GenConfig, SUITES
from .harness import FixtureError, run_config
from .report import render_machine, render_text


def _write(text: str, err: bool = False) -> int:
    """Write and flush ``text`` on stdout, or on stderr with ``err``: 0, or 2
    when the stream is missing or fails.  A failed stdout is told on stderr."""
    stream = sys.stderr if err else sys.stdout
    try:
        if stream is None:
            raise ValueError("I/O operation on closed file.")
        stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:
        return 2 if err else _fail("cannot write report: %s" % exc)
    return 0


def _fail(message) -> int:
    return _write("bicat-check: %s\n" % message, err=True) or 2


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse's help or errors
        if message and _write(message, err=file is not sys.stdout):
            raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        return _fail(exc)

    fixture_doc = None
    if args.fixtures:
        try:
            with open(args.fixtures, "r", encoding="utf-8") as fh:
                fixture_doc = parse_document(fh.read())
        except OSError as exc:
            return _fail("cannot read fixtures: %s" % exc)
        except (FmtError, UnicodeDecodeError) as exc:
            return _fail("malformed fixtures: %s" % exc)

    try:
        report = run_config(cfg, fixture_doc)
    except FixtureError as exc:
        return _fail("fixture cannot be interpreted: %s" % exc)

    rendered = (render_machine(report) if args.report == "machine"
                else render_text(report))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            return _fail("cannot write report: %s" % exc)
    elif _write(rendered):
        return 2
    return 3 if "error" in report.statuses else 0 if report.ok else 1


def console() -> None:
    """The ``bicat-check`` command: :func:`main`, then ``os._exit``."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    os._exit(code)


if __name__ == "__main__":
    console()
