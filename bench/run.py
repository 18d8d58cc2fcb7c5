"""The ``bicat-check`` benchmark.

Run from the root of a source checkout::

    python3 bench/run.py --workload span-default --seed 1 --seconds 30 --trace 0

Workloads (see ``bench/NOTES.md`` for why each was chosen):

* ``span-default``    ``--instance span`` with every suite at default flags.
* ``rel-default``     ``--instance rel`` with every suite at default flags.
* ``fixture-compose`` ``--instance span --suite kernel --fixtures FILE`` on a
  fixture generated from the seed by ``fixturegen``.

With ``--trace 0`` the program runs as a subprocess (``python -m
bicat.cli``), one invocation at a time, on several inputs made from the
seed, for ``--seconds``; each invocation's wall time is scaled to a
reference CPU speed (see ``spawn``), and the end-to-end metrics are
reported.  With ``--trace 1`` the first input runs once untraced and
twice under ``tracer.py``, and the per-layer metrics of the traced runs
are reported.  Every invocation's report is graded against
known answers; the last line of standard output is a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Files the benchmark writes go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import fixturegen  # noqa: E402
from tracer import MODULES  # noqa: E402

SUITES = ("kernel", "homprod", "mapprod", "groth", "lax", "cartesian",
          "monoidal")
#: ``inputs`` is how many seeded inputs a ``--trace 0`` run cycles through.
#: The work of one input depends on its seed, by 10% and more, so a run
#: reports the mean over several.
WORKLOADS = {
    "span-default": {"instance": "span", "suite": "all", "fixtures": False,
                     "inputs": 3},
    "rel-default": {"instance": "rel", "suite": "all", "fixtures": False,
                    "inputs": 3},
    "fixture-compose": {"instance": "span", "suite": "kernel",
                        "fixtures": True, "inputs": 8},
}
#: Rows that are ``skipped`` by design whenever their suite runs.
EXPECTED_SKIPPED = {"monoidal": {"unit-coherence-axiom-left",
                                 "unit-coherence-axiom-right"}}
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 9
#: CPU seconds any one child may use before the kernel stops it.
CHILD_CPU_LIMIT = 170
#: Wall time a child runs between two samples of the host's speed.
SAMPLE_PERIOD = 0.2
#: Time of one ``reference_loop`` at the speed ``wall_s`` is scaled to: the
#: loop's time in the fast mode of a 2-vCPU Xeon KVM guest, Python 3.11.7.
REF_NOMINAL_S = 0.004
#: ``--smoke`` shrinks every workload so the whole pipeline runs in seconds.
SMOKE_FLAGS = ["--max-size", "2", "--trials", "3"]
SMOKE_RECORDS = 60

IMPORT_ARGV = [sys.executable, "-c", "import bicat.cli"]
_CHECK = re.compile(r"^check (\S+) (\S+) trials=\d+ wall_ms=\d+$")


@dataclass
class Invocation:
    """One finished child process: its timing, exit status and output.

    ``wall_s`` is the child's wall time scaled to the reference speed (see
    ``spawn``); ``raw_wall_s`` is the same time as the clock read it."""
    wall_s: float
    exit_code: int
    rss_mb: float
    report: str | None
    stderr: str
    raw_wall_s: float = 0.0


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT, CHILD_CPU_LIMIT))


def reference_loop():
    """A fixed amount of pure-Python work of the kind the program does:
    tuple keys, dictionary updates and small sets."""
    counts = {}
    for i in range(11000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        {key, (i,)}
    return len(counts)


def time_reference():
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def spawn(argv, report_path=None, tag="child") -> Invocation:
    """Run ``argv`` to completion and time it at the reference speed.

    The host's CPU speed changes by up to 1.5x from one second to the next,
    and not in step on its vCPUs, so raw wall times of the same work spread
    by 20% and more.  ``main`` pins the benchmark and its children to one
    CPU.  Every ``SAMPLE_PERIOD`` the child is stopped, ``reference_loop``
    is timed on that CPU, and the child continues.  Each slice of the
    child's running time is scaled by ``REF_NOMINAL_S`` over the mean of
    the reference times at its two ends; the sum is ``wall_s``.  Time the
    child spends stopped counts in neither figure.  Peak RSS comes from the
    child's resource usage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("BICAT_CHECK_JOBS", None)
    err_path = OUT / ("%s.stderr" % tag)
    if report_path is not None and report_path.exists():
        report_path.unlink()
    ref = time_reference()
    scaled = raw = 0.0
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_limit_cpu)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                if not select.select([pidfd], [], [], SAMPLE_PERIOD)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                end = time.perf_counter()
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                after = time_reference()
                raw += end - start
                scaled += (end - start) * 2 * REF_NOMINAL_S / (ref + after)
                ref = after
                if proc.returncode is not None:
                    break
                start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if proc.returncode is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
    report = None
    if report_path is not None and report_path.exists():
        report = report_path.read_text(encoding="utf-8")
    return Invocation(scaled, proc.returncode, usage.ru_maxrss / 1024.0,
                      report, err_path.read_text(encoding="utf-8",
                                                 errors="replace"), raw)


def strip_wall(report: str) -> str:
    """The machine report with every ``wall_ms`` zeroed: the part of it the
    program guarantees to be a pure function of its inputs."""
    return re.sub(r" wall_ms=\d+$", " wall_ms=0", report, flags=re.M)


def parse_rows(report: str):
    """``(suite, check id, status)`` for every check line of a report."""
    rows, suite = [], None
    for line in report.splitlines():
        if line.startswith("suite "):
            suite = line[6:]
        elif line.startswith("check "):
            m = _CHECK.match(line)
            rows.append((suite, m.group(1), m.group(2)) if m
                        else (suite, line, "unparsed"))
    return rows


class Workload:
    """One seeded input of a workload: the CLI arguments and, on
    ``fixture-compose``, the known answer to every fixture claim."""

    def __init__(self, name, seed, smoke):
        spec = WORKLOADS[name]
        self.name, self.seed = name, seed
        self.suites = (SUITES if spec["suite"] == "all"
                       else tuple(spec["suite"].split(",")))
        self.cli_args = ["--instance", spec["instance"], "--seed", str(seed),
                         "--suite", spec["suite"], "--report", "machine"]
        if smoke:
            self.cli_args += SMOKE_FLAGS
        self.claims = []
        if spec["fixtures"]:
            text, self.claims = fixturegen.generate(
                seed, SMOKE_RECORDS if smoke else fixturegen.RECORDS)
            path = OUT / ("fixture-%d.bicat" % seed)
            path.write_text(text, encoding="utf-8")
            self.cli_args += ["--fixtures", str(path)]

    def grade(self, inv: Invocation):
        """``(attempted, wrong)`` for one invocation.

        A row is wrong when its verdict differs from the known answer or its
        status is not a verdict.  A crash, a traceback, a missing report or
        an exit code that contradicts the rows (1 exactly when a row fails)
        makes every row wrong.  With every verdict right, a fixture run
        therefore exits 1 exactly when the fixture holds a false claim.
        """
        rows = parse_rows(inv.report) if inv.report else []
        fixture_rows = [r for r in rows if r[0] == "fixtures"]
        suite_rows = [r for r in rows if r[0] != "fixtures"]
        wrong = 0
        for suite, cid, status in suite_rows:
            skipped = cid in EXPECTED_SKIPPED.get(suite, ())
            wrong += status != ("skipped" if skipped else "pass")
        for suite in self.suites:
            present = {cid for s, cid, _ in suite_rows if s == suite}
            wrong += len(EXPECTED_SKIPPED.get(suite, set()) - present)
        for i, (kind, expected) in enumerate(self.claims):
            if i >= len(fixture_rows):
                wrong += 1
                continue
            _, cid, status = fixture_rows[i]
            want = "pass" if expected else "fail"
            wrong += cid != "fixture-%d-%s" % (i, kind) or status != want
        wrong += max(0, len(fixture_rows) - len(self.claims))
        attempted = max(len(rows), len(self.claims) + len(suite_rows), 1)
        expected_exit = 1 if any(status == "fail" for *_, status in rows) else 0
        broken = (inv.report is None or "Traceback" in inv.stderr
                  or inv.exit_code != expected_exit)
        return attempted, (attempted if broken else wrong)


def inputs(name, seed, smoke):
    """The inputs a run with ``--seed seed`` cycles through.  Input ``i``
    has seed ``seed * n + i``, so runs with different seeds share none."""
    n = WORKLOADS[name]["inputs"]
    return [Workload(name, seed * n + i, smoke) for i in range(n)]


def cli_argv(workload, report_path):
    return [sys.executable, "-m", "bicat.cli", *workload.cli_args,
            "--out", str(report_path)]


def time_setup(n):
    """Wall times of ``n`` fresh interpreters importing ``bicat.cli``."""
    times = []
    for _ in range(n):
        inv = spawn(IMPORT_ARGV, tag="setup")
        if inv.exit_code != 0:
            raise RuntimeError("importing bicat.cli failed:\n" + inv.stderr)
        times.append(inv.wall_s)
    return times


def measure(workloads, seconds):
    """End-to-end metrics: rounds of CLI invocations, one per input, back to
    back for ``seconds``, with ``setup_s`` timed on fresh interpreters
    before and after them.

    One round always runs, however long it takes.  A further round starts
    only if one as long as the last would still end within ``seconds``.
    ``wall_s`` and ``peak_rss_mb`` are means over the inputs of each
    input's median.  Set-up is sampled at both ends of the run."""
    spawn(IMPORT_ARGV, tag="setup")   # writes bytecode caches; not timed
    setups = time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    report_path = OUT / ("report-%s.txt" % workloads[0].name)
    runs = [[] for _ in workloads]
    attempted = wrong = 0
    same_reports = True
    start = time.perf_counter()
    round_s = 0.0
    while not runs[0] or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        for workload, done in zip(workloads, runs):
            inv = spawn(cli_argv(workload, report_path), report_path,
                        tag="cli")
            a, w = workload.grade(inv)
            attempted, wrong = attempted + a, wrong + w
            if done and (strip_wall(inv.report or "")
                         != strip_wall(done[0].report or "")):
                same_reports = False
            done.append(inv)
        round_s = time.perf_counter() - round_start
    setups += time_setup(SETUP_SAMPLES // 2)

    def mean_of_medians(field):
        return statistics.mean(
            statistics.median(getattr(i, field) for i in done)
            for done in runs)

    metrics = {
        "wall_s": (mean_of_medians("wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (mean_of_medians("rss_mb"), "MB"),
        "right_verdict_share": ((attempted - wrong) / attempted, "share"),
    }
    notes = {"input_seeds": [w.seed for w in workloads],
             "rounds": len(runs[0]),
             "wall_s_each": [[i.wall_s for i in done] for done in runs],
             "raw_wall_s_each": [[i.raw_wall_s for i in done]
                                 for done in runs],
             "setup_s_each": setups,
             "reports_identical": same_reports}
    return metrics, attempted, wrong, same_reports, notes


def _per_layer(trace, untraced_wall, traced_walls):
    """The per-layer metrics named in ``BENCHMARK.json`` from one trace."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def share(part, whole):
        return part / whole if whole else 0.0

    m = {"fin.FinSet.built": (counts["fin.FinSet.built"], "count"),
         "fin.SetFn.built": (counts["fin.SetFn.built"], "count")}
    for inst in ("spans", "rels"):
        comp = inst + ".comp"
        m[comp + ".calls"] = (calls(comp), "count")
        m[comp + ".self_s"] = (self_s(comp), "s")
        m[comp + ".distinct_share"] = (
            share(counts[comp + ".distinct"], calls(comp)), "share")
        m[comp + ".max_apex"] = (counts[comp + ".max_apex"], "count")
        for fn in (inst + ".assoc", inst + ".hom_cells"):
            m[fn + ".calls"] = (calls(fn), "count")
            m[fn + ".self_s"] = (self_s(fn), "s")
        m[inst + ".hom_cells.yielded"] = (counts[inst + ".hom_cells.yielded"],
                                          "count")
    timed = ["kernel.mate_to_primary", "kernel.mate_to_secondary",
             "kernel.evaluate", "groth.g_pair", "groth.g_tensor",
             "groth.g_compose", "cartesian.tensor_comp_cell",
             "cartesian.lax_assoc_sides", "coherence.modification_pair_check",
             "coherence.check_quad_assoc", "coherence.pentagon_unique",
             "mapprod.check_product_cone", "mapprod.fill2",
             "homprod.transport_cell"]
    for name in timed:
        m[name + ".calls"] = (calls(name), "count")
        m[name + ".self_s"] = (self_s(name), "s")
    m["kernel.check_adjunction.self_s"] = (
        self_s("kernel.check_adjunction"), "s")
    m["groth.garr_built"] = (counts["groth.garr_built"], "count")
    m["gen.map_cell.none_share"] = (
        share(counts["gen.map_cell.none"], calls("gen.map_cell")), "share")
    for suite in SUITES:
        m["harness.suite.%s.s" % suite] = (total_s("harness.suite." + suite),
                                           "s")
    main_s = total_s("cli.main")
    checks = [v["total_s"] for n, v in spans.items()
              if n.startswith("harness.check.")]
    m["harness.check.max_share"] = (share(max(checks, default=0.0), main_s),
                                    "share")
    m["harness.shrink_steps"] = (counts["harness.shrink_steps"], "count")
    parse_s = total_s("fmt.parse_document")
    m["fmt.parse_document.s"] = (parse_s, "s")
    m["fmt.parse_document.lines_per_s"] = (
        share(counts["fmt.parse_document.lines"], parse_s), "1/s")
    m["fmt.payload.calls"] = (calls("fmt.payload"), "count")
    m["fmt.payload.s"] = (total_s("fmt.payload"), "s")
    m["report.render_machine.s"] = (total_s("report.render_machine"), "s")
    m["cli.main.s"] = (main_s, "s")
    for mod in MODULES:
        m[mod + ".self_s"] = (sum(v["self_s"] for n, v in spans.items()
                                  if n.split(".", 1)[0] == mod), "s")
    m["trace.overhead_s"] = (statistics.mean(traced_walls) - untraced_wall, "s")
    return m


def trace(workload):
    """Per-layer metrics: one untraced invocation, then two traced ones.

    Gates: the traced reports equal the untraced report once ``wall_ms`` is
    zeroed, and the two traced runs agree on every count.
    """
    base_path = OUT / ("report-%s.txt" % workload.name)
    base = spawn(cli_argv(workload, base_path), base_path, tag="cli")
    attempted, wrong = workload.grade(base)
    runs = []
    for k in (1, 2):
        report_path = OUT / ("report-%s-traced%d.txt" % (workload.name, k))
        result_path = OUT / ("trace-%s-%d-run%d.json"
                             % (workload.name, workload.seed, k))
        if result_path.exists():
            result_path.unlink()
        argv = [sys.executable, str(BENCH / "tracer.py"), str(result_path),
                "--", *workload.cli_args, "--out", str(report_path)]
        inv = spawn(argv, report_path, tag="tracer")
        a, w = workload.grade(inv)
        attempted, wrong = attempted + a, wrong + w
        data = (json.loads(result_path.read_text(encoding="utf-8"))
                if result_path.exists() else None)
        runs.append((inv, data))
    same_reports = all(inv.report is not None and base.report is not None
                       and strip_wall(inv.report) == strip_wall(base.report)
                       for inv, _ in runs)
    if any(data is None for _, data in runs):
        return {}, attempted, wrong, False, {"trace_written": False}
    (inv1, t1), (inv2, t2) = runs
    same_counts = t1["deterministic"] == t2["deterministic"]
    if same_counts:
        # Equal counts mean equal span names: average the two runs' times.
        for n, v in t1["spans"].items():
            for key in ("total_s", "self_s"):
                v[key] = (v[key] + t2["spans"][n][key]) / 2
    metrics = _per_layer(t1, base.wall_s, [inv1.wall_s, inv2.wall_s])
    notes = {"untraced_wall_s": base.wall_s,
             "traced_wall_s": [inv1.wall_s, inv2.wall_s],
             "strip_wall_identical": same_reports,
             "counts_identical": same_counts}
    return metrics, attempted, wrong, same_reports and same_counts, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bicat" / "cli.py").is_file():
        print("bench: no bicat sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("bench: --seed must fit in 64 bits", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    cpus = os.sched_getaffinity(0)
    env = {"workload": args.workload, "seed": args.seed,
           "python": platform.python_version(), "nproc": len(cpus),
           "cpu": min(cpus), "trace": args.trace, "seconds": args.seconds}
    # One CPU for the benchmark and every child, so that the reference loop
    # times the CPU the child runs on (see ``spawn``).
    os.sched_setaffinity(0, {min(cpus)})
    # On SIGTERM, unwind so that ``spawn`` stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print("# bench " + " ".join("%s=%s" % kv for kv in env.items()), flush=True)
    workloads = inputs(args.workload, args.seed, args.smoke)
    if args.trace:
        metrics, attempted, failed, gates, notes = trace(workloads[0])
    else:
        metrics, attempted, failed, gates, notes = measure(workloads,
                                                           args.seconds)
    correct = gates and failed == 0
    for name, (value, unit) in metrics.items():
        print("# %-40s %16.6f %s" % (name, value, unit))
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {n: {"value": v, "unit": u}
                           for n, (v, u) in metrics.items()}}
    record = dict(env, notes=notes, **summary)
    path = OUT / ("result-%s-%d-trace%d.json" % (args.workload, args.seed,
                                                 args.trace))
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
