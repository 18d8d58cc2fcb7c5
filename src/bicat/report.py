"""Check results and the two report renderings.

The machine format is line-delimited so CI can diff it:

    bicat-report 2
    config seed=<n> max-size=<n> trials=<n> instance=<name> suites=<a,b>
    suite <name>
    check <id> <pass|fail|error|skipped> trials=<n> wall_ms=<n>
    | <counterexample line>

A check line is followed by zero or more ``| `` lines holding its
counterexample in the interchange format.  An ``error`` row is a check that
raised: it has ``trials=0``, and its payload is the exception as a comment,
``# <Type>: <message>``.  Everything except the trailing ``wall_ms`` field
is a pure function of the config (and fixture files), and
:func:`strip_wall` is what the determinism guarantee is stated through.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple

from .gen import GenConfig

_CHECK = re.compile(r"check (\S+) (pass|fail|error|skipped) "
                    r"trials=(\d+) wall_ms=(\d+)")


class CheckResult(namedtuple("CheckResult", "check_id status trials "
                                             "counterexample wall_ms")):
    """One report row; ``status`` is ``pass``, ``fail``, ``error`` (the
    check raised) or ``skipped``."""
    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "suite checks")):
    """The rows of one suite, no two with the same check id."""
    __slots__ = ()

    def __new__(cls, suite, checks):
        ids = [c.check_id for c in checks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate check id in suite %s" % suite)
        return super().__new__(cls, suite, checks)

    @classmethod
    def _make(cls, fields):
        """Through :meth:`__new__`, so ``_replace`` validates too."""
        return cls(*fields)


class RunReport(namedtuple("RunReport", "config suites")):
    """A run's config and its suite reports."""
    __slots__ = ()

    @property
    def statuses(self) -> frozenset:
        return frozenset(c.status for s in self.suites for c in s.checks)

    @property
    def ok(self) -> bool:
        return not self.statuses & {"fail", "error"}


def strip_wall(run: RunReport) -> RunReport:
    suites = tuple(
        s._replace(checks=tuple(c._replace(wall_ms=0) for c in s.checks))
        for s in run.suites)
    return run._replace(suites=suites)


def render_machine(run: RunReport) -> str:
    cfg = run.config
    lines = ["bicat-report 2",
             "config seed=%d max-size=%d trials=%d instance=%s suites=%s"
             % (cfg.seed, cfg.max_carrier, cfg.trials, cfg.instance,
                ",".join(cfg.suites))]
    for suite in run.suites:
        lines.append("suite %s" % suite.suite)
        for c in suite.checks:
            lines.append("check %s %s trials=%d wall_ms=%d"
                         % (c.check_id, c.status, c.trials, c.wall_ms))
            if c.counterexample:
                for cx in c.counterexample.splitlines():
                    lines.append("| %s" % cx)
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> RunReport:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != "bicat-report 2":
        raise ValueError("not a bicat machine report")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise ValueError("report has no config line")
    try:
        fields = dict(kv.split("=", 1) for kv in lines[1].split()[1:])
        config = GenConfig(seed=int(fields["seed"]),
                           max_carrier=int(fields["max-size"]),
                           trials=int(fields["trials"]),
                           instance=fields["instance"],
                           suites=tuple(fields["suites"].split(",")))
    except KeyError as exc:
        raise ValueError("config line lacks the field %s" % exc) from None
    suites, checks, cx = [], [], []
    suite_name = None

    def flush_check():
        if checks and cx:
            checks[-1] = checks[-1]._replace(
                counterexample="\n".join(cx) + "\n")
            cx.clear()

    def flush_suite():
        nonlocal suite_name
        flush_check()
        if suite_name is not None:
            suites.append(SuiteReport(suite_name, tuple(checks)))
            checks.clear()

    for line in lines[2:]:
        if line.startswith("suite "):
            flush_suite()
            suite_name = line.split(None, 1)[1]
        elif line.startswith("check "):
            if suite_name is None:
                raise ValueError("check line before any suite line %r" % line)
            flush_check()
            m = _CHECK.fullmatch(line)
            if m is None:
                raise ValueError("unrecognized check line %r" % line)
            checks.append(CheckResult(m[1], m[2], int(m[3]), None, int(m[4])))
        elif line == "|" or line.startswith("| "):
            if not checks:
                raise ValueError("counterexample line before any check line"
                                 " %r" % line)
            cx.append(line[2:])
        else:
            raise ValueError("unrecognized report line %r" % line)
    flush_suite()
    return RunReport(config, tuple(suites))


def render_text(run: RunReport) -> str:
    cfg = run.config
    out = ["bicat-check: instance=%s seed=%d max-size=%d trials=%d"
           % (cfg.instance, cfg.seed, cfg.max_carrier, cfg.trials)]
    for suite in run.suites:
        counts = Counter(c.status for c in suite.checks)
        errored = ", %d errored" % counts["error"] if counts["error"] else ""
        out.append("")
        out.append("suite %s: %d passed, %d failed, %d skipped%s"
                   % (suite.suite, counts["pass"], counts["fail"],
                      counts["skipped"], errored))
        for c in suite.checks:
            out.append("  [%s] %s (trials=%d, %d ms)"
                       % (c.status.upper().ljust(7), c.check_id,
                          c.trials, c.wall_ms))
            if c.counterexample:
                out.append("    %s:" % ("corrupted input" if c.status == "pass"
                                        else "counterexample"))
                for cx in c.counterexample.splitlines():
                    out.append("      " + cx)
    out.append("")
    out.append("result: %s" % ("all checks passed" if run.ok
                               else "ERRORS PRESENT" if "error" in run.statuses
                               else "FAILURES PRESENT"))
    return "\n".join(out) + "\n"
