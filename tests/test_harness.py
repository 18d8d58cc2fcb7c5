"""End-to-end runs of the check harness and the command line entry."""

import contextlib
import functools
import gc
import io
import itertools
import os
import pathlib
import re
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from bicat import cli, coherence, fin, gen, harness
from bicat.fmt import parse_document, print_document
from bicat.gen import SUITES, GenConfig
from bicat.harness import (SUITE_CHECKS, FixtureError, exhaustive_check,
                           fixture_checks, instance_for, property_check,
                           run_check, run_config)
from bicat.report import parse_machine, render_machine, strip_wall
from test_mutants import apply_mutant

FAST = GenConfig(seed=0, max_carrier=2, trials=6, instance="rel",
                 suites=SUITES)
ROOT = pathlib.Path(__file__).resolve().parent.parent
KERNEL_RUN = ["--instance", "rel", "--suite", "kernel", "--max-size", "1",
              "--trials", "1"]
#: A ``check cell`` between 1-cells with the same source but not target.
NON_PARALLEL_CELL = {
    instance: "set X = x0\nset Y = a0\nset Z = a0 a1\n"
              "%s A : X -> Y = %s\n%s B : X -> Z = %s\n"
              "check cell A -> B\n" % (instance, entry, instance, entry)
    for instance, entry in (("span", "s0:x0:a0"), ("rel", "x0:a0"))}


def _fixture_rows(B, doc):
    return [run_check(B, FAST, spec) for spec in fixture_checks(B, doc)]


def test_full_run_passes_on_both_instances():
    for name in ("rel", "span"):
        cfg = GenConfig(seed=0, max_carrier=2, trials=5, instance=name,
                        suites=SUITES)
        run = run_config(cfg)
        failed = [c.check_id for s in run.suites for c in s.checks
                  if c.status == "fail"]
        assert run.ok, failed
        assert [s.suite for s in run.suites] == list(SUITES)


def test_suite_selection_is_respected():
    cfg = GenConfig(seed=0, max_carrier=2, trials=4, instance="rel",
                    suites=("homprod", "kernel"))
    run = run_config(cfg)
    # Canonical suite order, not selection order.
    assert [s.suite for s in run.suites] == ["kernel", "homprod"]


def test_negative_controls_present_with_payloads():
    # Exactly one control per suite, guarding a row of that suite that is
    # not itself a control.
    for suite, specs in SUITE_CHECKS.items():
        controls = [c for c in specs if c.check_id.startswith("negative-")]
        assert [c for c in specs if c.row is not None] == controls, suite
        assert len(controls) == 1, suite
        rows = {c.check_id for c in specs if c.row is None}
        assert controls[0].row in rows, (suite, controls[0].row)
    run = run_config(FAST)
    negatives = [c for s in run.suites for c in s.checks
                 if c.check_id.startswith("negative-")]
    assert len(negatives) == len(SUITES)
    for c in negatives:
        assert c.status == "pass"
        assert c.counterexample
        parse_document(c.counterexample)


def test_skipped_axioms_are_reported_not_hidden():
    run = run_config(FAST)
    monoidal = next(s for s in run.suites if s.suite == "monoidal")
    skipped = [c.check_id for c in monoidal.checks if c.status == "skipped"]
    assert skipped == ["unit-coherence-axiom-left", "unit-coherence-axiom-right"]


def test_runs_are_reproducible():
    a = run_config(FAST)
    b = run_config(FAST)
    assert strip_wall(a) == strip_wall(b)
    assert render_machine(strip_wall(a)) == render_machine(strip_wall(b))


def test_memo_scope_does_not_change_reports(monkeypatch):
    # Memoised operations are pure, so a check whose trials share one memo
    # reports exactly what it reports when every attempt starts empty.  A
    # sampled attempt starts by seeding, an exhaustive one by its carriers.
    def fresh(make):
        def made(*args):
            fin.clear_table()
            return make(*args)
        return made

    cfgs = [GenConfig(seed=seed, max_carrier=3, trials=5, instance=name,
                      suites=SUITES)
            for name in ("span", "rel") for seed in (0, 7)]
    shared = [render_machine(strip_wall(run_config(c))) for c in cfgs]
    monkeypatch.setattr(harness, "rng_for", fresh(gen.rng_for))
    monkeypatch.setattr(harness, "canonical_carrier",
                        fresh(fin.canonical_carrier))
    assert [render_machine(strip_wall(run_config(c))) for c in cfgs] == shared


def _weak_entries():
    """How many values in the value table outlived a clear, held weakly."""
    return sum(type(value) is fin._Ref for value in fin._VALUES.values())


def test_value_table_returns_to_its_size_after_a_run():
    # Once the report is all that is left of a run, the clear that ends
    # its last unit frees every value the run built: none is left strongly
    # held, and none is kept weakly.  Reference counting alone frees them,
    # with the collector off; a negative control covers the payload path.
    trials = {"tensor-assoc-constraint": 20,
              "negative-tau-as-identity": 1}
    specs = [c for c in SUITE_CHECKS["lax"] if c.check_id in trials]
    gc.disable()
    try:
        for name, spec in itertools.product(("span", "rel"), specs):
            gc.collect()
            fin.clear_table()
            before = len(fin._VALUES)
            assert _weak_entries() == before
            result = run_check(instance_for(name),
                               FAST._replace(instance=name, trials=20), spec)
            assert (result.status, result.trials) == (
                "pass", trials[spec.check_id])
            assert len(fin._VALUES) > before and _weak_entries() == before
            del result
            fin.clear_table()
            assert len(fin._VALUES) == _weak_entries() == before, (
                name, spec.check_id)
            gc.collect()
            assert len(fin._VALUES) == before, name
    finally:
        gc.enable()


@pytest.fixture
def kept(monkeypatch):
    """A plain weak reference to each value the sweeps keep while the test
    runs (not the table's, whose key holds the value's components)."""
    kept, sweep = [], fin._sweep

    def counted(dead):
        got = sweep(dead)
        kept.extend(weakref.ref(ref()) for _, ref in got[1])
        return got

    monkeypatch.setattr(fin, "_sweep", counted)
    return kept


def test_only_values_that_outlive_a_row_get_a_weak_reference(kept):
    # A default run builds tens of thousands of values, each living for
    # one row: the sweep at each row's start frees them all, so it keeps
    # none and makes no weak reference, during the run or after it.
    for name in ("span", "rel"):
        fin.clear_table()
        before, interned = len(fin._VALUES), fin.interned
        run = run_config(GenConfig(seed=0, max_carrier=3, trials=50,
                                   instance=name, suites=SUITES))
        assert run.ok and _weak_entries() <= before, name
        del run
        fin.clear_table()
        assert len(fin._VALUES) == _weak_entries() <= before, name
        assert fin.interned - interned > 10_000 and not kept, (name, kept)


def test_fixture_runs_leave_the_value_table_as_they_found_it(capsys, kept):
    # A parsed document outlives the rows that read it, so the first clear
    # keeps its values, weakly; once the command returns and drops it,
    # they leave, and a second run builds its own.
    fin.clear_table()
    before = len(fin._VALUES)
    argv = ["--instance", "span", "--suite", "kernel", "--max-size", "1",
            "--trials", "1", "--fixtures",
            str(ROOT / "fixtures" / "span-basic.bicat")]
    reports = []
    for run in range(2):
        assert cli.main(argv) == 0
        reports.append(capsys.readouterr().out)
        assert _weak_entries() == before
        assert len(kept) > 10 * (run + 1)
        assert all(ref() is None for ref in kept)
    fin.clear_table()
    assert len(fin._VALUES) == _weak_entries() == before
    assert reports[0] and (re.sub(r"\d+ ms", "", reports[0])
                           == re.sub(r"\d+ ms", "", reports[1]))


def test_the_work_count_does_not_depend_on_hashing():
    # ``fin.interned`` counts the values each unit built, read at the sweep
    # that ends it, and ``fin.memo_entries`` the results it memoised, read
    # at the clear that ends it: counts of work that repeat exactly, hash
    # seed or not.
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    code = ("from bicat import fin\n"
            "from bicat.gen import SUITES, GenConfig\n"
            "from bicat.harness import run_config\n"
            "run_config(GenConfig(seed=3, max_carrier=2, trials=5, "
            "instance='span', suites=SUITES))\n"
            "fin.clear_table()\n"
            "print(fin.interned, fin.memo_entries)\n")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed,
                 PYTHONPATH=src + os.pathsep + path if path else src))
        for seed in ("1", "2")]
    counts = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        counts.append(tuple(map(int, out.split())))
    assert counts[0] == counts[1]
    assert min(counts[0]) > 1000


def _python(*args, env=(), **kwargs):
    """``python *args`` in a child that imports this tree's ``bicat``, with
    ``env`` over the current environment."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **dict(env),
               PYTHONPATH=src + os.pathsep + path if path else src)
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120, **kwargs)


def test_cli_exits_cleanly_under_dev_mode():
    # Dev mode shows what a normal run hides, such as an error in a weak
    # reference callback while the interpreter shuts down.
    proc = _python("-X", "dev", "-m", "bicat.cli", "--instance", "span",
                   "--trials", "2", "--max-size", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "pasting-interchange" in proc.stdout


def test_cli_main_finalizes_cleanly_under_dev_mode():
    # The command ends without teardown; an in-process caller of ``main``
    # still lets the interpreter finalize, so shutdown-time errors (a
    # failing weak reference callback in ``fin``) stay watched here.
    code = ("import sys\nfrom bicat import cli\n"
            "sys.exit(cli.main(['--instance', 'rel', '--suite', 'kernel', "
            "'--trials', '2', '--max-size', '2']))\n")
    proc = _python("-X", "dev", "-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "result: all checks passed" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("args, stdout, unbuffered", [
    (KERNEL_RUN, "full", "1"), (KERNEL_RUN, "full", ""),
    (KERNEL_RUN, "closed", ""), (["--help"], "full", "")],
    ids=["write", "flush", "closed", "help"])
def test_cli_report_to_a_full_device_exits_two(args, stdout, unbuffered):
    # Unbuffered, the write fails; buffered, the flush.  A closed stdout
    # starts the child with ``sys.stdout`` None.  Neither the interpreter's
    # shutdown flush (exit 120) nor a traceback (exit 1) may show.
    with open("/dev/full", "w") as full:
        proc = _python("-m", "bicat.cli", *args,
                       stdout=full if stdout == "full" else None,
                       preexec_fn=None if stdout == "full" else
                       functools.partial(os.close, 1),
                       env={"PYTHONUNBUFFERED": unbuffered})
    assert proc.returncode == 2
    assert proc.stderr.startswith("bicat-check: cannot write report: ")
    assert "Traceback" not in proc.stderr


class _Refusing(io.StringIO):
    """A stream whose ``write`` or ``flush`` raises ``error``."""

    def __init__(self, method, error):
        super().__init__()
        setattr(self, method, self._refuse)
        self.error = error

    def _refuse(self, *args):
        raise self.error


STREAM_FAULTS = {
    "write-oserror": lambda: _Refusing("write", OSError(28, "No space")),
    "flush-oserror": lambda: _Refusing("flush", OSError(32, "Broken pipe")),
    "closed": lambda: _Refusing(
        "write", ValueError("I/O operation on closed file")),
    "missing": lambda: None,
}


@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
@pytest.mark.parametrize("broken, args, code", [
    ("stdout", KERNEL_RUN, 2),
    ("stdout", ["--help"], 2),
    ("stdout", KERNEL_RUN + ["--out", "{tmp}/report.txt"], 0),
    ("stdout", KERNEL_RUN + ["--fixtures", "{tmp}/missing.bicat"], 2),
    ("stderr", KERNEL_RUN + ["--out", "{tmp}/missing/report.txt"], 2),
    ("stderr", KERNEL_RUN + ["--fixtures", "{tmp}/missing.bicat"], 2),
    ("stderr", ["--instance", "rel", "--max-size", "-1"], 2),
    ("stderr", ["--instance", "bogus"], 2),
    ("stdout stderr", KERNEL_RUN, 2),
], ids=["report", "help", "out", "fixtures", "out-unwritable",
        "fixtures-unreadable", "invalid-config", "usage-error", "both"])
def test_cli_console_keeps_the_exit_contract_when_a_stream_fails(
        monkeypatch, tmp_path, fault, broken, args, code):
    # The command's exit code, not ``main``'s: argparse's exits and the
    # final ``os._exit`` are ``console``'s.  A stream that fails gives 2,
    # never 1 or a traceback; one the run does not write changes nothing.
    def exit_(status):
        raise SystemExit(status)

    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    for name in broken.split():
        monkeypatch.setattr(sys, name, STREAM_FAULTS[fault]())
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["bicat-check"] + [
        a.format(tmp=tmp_path) for a in args])
    with pytest.raises(SystemExit) as exit_info:
        cli.console()
    assert exit_info.value.code == code
    if "stderr" not in broken and code:
        assert err.getvalue().startswith("bicat-check: ")
    assert "Traceback" not in err.getvalue()


def test_cli_main_returns_a_failed_stdout_write_as_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _Refusing(
        "write", OSError(28, "No space left on device")))
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "bicat-check: cannot write report: [Errno 28] No space left on "
        "device\n")


def test_cli_main_returns_its_code_and_the_script_runs_console(capsys):
    # ``main`` returns to an in-process caller; only ``console``, the
    # installed script, ends the process.
    assert cli.main(["--instance", "rel", "--max-size", "1", "--trials", "1",
                     "--suite", "kernel"]) == 0
    assert "result: all checks passed" in capsys.readouterr().out
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'bicat-check = "bicat.cli:console"' in scripts.splitlines()


def test_counterexamples_shrink_to_local_minimum():
    # A sampled check shrinks to a local minimum; an exhaustive one stops
    # at the first failing tuple in product order, which is minimal.
    def body(B, rng, carriers):
        X, Y = carriers
        if len(X) >= 2 and len(Y) >= 1:
            return {"R": B.identity(X), "Y": Y}
        return None

    cfg = GenConfig(seed=1, max_carrier=4, trials=30, instance="rel",
                    suites=("kernel",))
    specs = (property_check("toy-needs-points", ("x", "y"), body),
             exhaustive_check("toy-needs-points", ("x", "y"), body, 4))
    results = [run_check(instance_for("rel"), cfg, spec) for spec in specs]
    for result in results:
        assert result.status == "fail"
        doc = parse_document(result.counterexample)
        assert (len(doc.lookup("R").source), len(doc.lookup("Y"))) == (2, 1)
    order = list(itertools.product(range(5), repeat=2))
    assert results[1].trials == order.index((2, 1)) + 1


def test_property_check_passes_when_body_never_fires():
    body = lambda B, rng, carriers: None
    spec = property_check("toy-always-fine", ("x", "a"), body)
    result = run_check(instance_for("span"), FAST, spec)
    assert result.status == "pass"
    assert result.trials == FAST.trials
    assert result.counterexample is None
    # An exhaustive check counts its tuples, whatever the trials and seed.
    spec = exhaustive_check("toy-always-fine", ("x", "a"), body, 3)
    for cfg in (FAST, FAST._replace(trials=1, seed=99)):
        result = run_check(instance_for("span"), cfg, spec)
        assert (result.status, result.trials) == ("pass", (2 + 1) ** 2)
        assert result.counterexample is None


def test_exhaustive_row_finds_what_sampling_misses(monkeypatch):
    # A swap that fails only at sizes (3, 3): ten sampled trials at these
    # seeds never draw that pair, the exhaustive row always reaches it.
    honest = coherence.route_cells
    monkeypatch.setattr(coherence, "route_cells", lambda B, L, pair, values: (
        {"kind": "any"} if tuple(map(len, values)) == (3, 3)
        else honest(B, L, pair, values)))
    spec = next(c for c in SUITE_CHECKS["monoidal"]
                if c.check_id == "swap-involution")
    for seed in (0, 7, 13):
        cfg = GenConfig(seed=seed, max_carrier=3, trials=10, instance="span",
                        suites=("monoidal",))
        result = run_check(instance_for("span"), cfg, spec)
        assert (result.status, result.trials) == ("fail", 16)
        doc = parse_document(result.counterexample)
        assert (len(doc.lookup("X")), len(doc.lookup("Y"))) == (3, 3)


def test_fixture_checks_pass_and_fail():
    B = instance_for("rel")
    good = parse_document(
        "set X = x0 x1\n"
        "rel R : X -> X = x0:x0 x1:x1\n"
        "check map R\n"
        "check compose R R = R\n"
    )
    results = _fixture_rows(B, good)
    assert [r.status for r in results] == ["pass", "pass"]
    bad = parse_document(
        "set X = x0 x1\n"
        "rel R : X -> X = x0:x0\n"
        "check map R\n"
    )
    results = _fixture_rows(B, bad)
    assert [r.status for r in results] == ["fail"]
    assert results[0].counterexample


def test_fixture_wrong_instance_is_an_error_not_a_failure():
    span_doc = parse_document(
        "set X = x0\n"
        "span F : X -> X = s0:x0:x0\n"
        "check map F\n"
    )
    with pytest.raises(FixtureError):
        fixture_checks(instance_for("rel"), span_doc)
    missing = parse_document("check map NOWHERE\n")
    with pytest.raises(FixtureError):
        fixture_checks(instance_for("rel"), missing)


@pytest.mark.parametrize("instance,records,said", [
    ("span", "span F : X -> X = s0:x0:x0\ncell c : F -> F = s0:s0\n"
     "check equal c c", "entity 'c' is a cell, not a span 1-cell"),
    ("rel", "check equal X X", "entity 'X' is a set, not a rel 1-cell"),
], ids=["cell", "set"])
def test_cli_fixture_type_error_names_the_record_keyword(
        tmp_path, capsys, instance, records, said):
    fix = tmp_path / "kind.bicat"
    fix.write_text("set X = x0\n%s\n" % records)
    rc = cli.main(["--instance", instance, "--max-size", "1", "--trials",
                   "1", "--suite", "kernel", "--fixtures", str(fix)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == "bicat-check: fixture cannot be interpreted: %s\n" % said
    assert "Traceback" not in out


def test_fixture_results_appended_as_own_suite():
    doc = parse_document("set X = x0\nrel R : X -> X = x0:x0\ncheck map R\n")
    cfg = GenConfig(seed=0, max_carrier=2, trials=2, instance="rel",
                    suites=("kernel",))
    run = run_config(cfg, fixture_doc=doc)
    assert [s.suite for s in run.suites] == ["kernel", "fixtures"]
    assert run.suites[-1].checks[0].check_id == "fixture-0-map"


def test_cli_all_green(tmp_path, capsys):
    rc = cli.main(["--instance", "rel", "--max-size", "2", "--trials", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: all checks passed" in out


def test_cli_machine_report_parses(capsys):
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "2",
                   "--suite", "kernel", "--report", "machine"])
    out = capsys.readouterr().out
    assert rc == 0
    run = parse_machine(out)
    assert run.ok


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.txt"
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "2",
                   "--suite", "kernel", "--out", str(target)])
    assert rc == 0
    assert "result: all checks passed" in target.read_text()


@pytest.mark.parametrize("out", ["missing/report.txt", "."],
                         ids=["missing-directory", "directory"])
def test_cli_unwritable_out_exits_two(tmp_path, capsys, out):
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--out", str(tmp_path / out)])
    printed = capsys.readouterr()
    assert (rc, printed.out) == (2, "")
    assert printed.err.startswith("bicat-check: cannot write report: ")
    assert "Traceback" not in printed.err


def test_cli_failing_fixture_exits_one(tmp_path, capsys):
    fix = tmp_path / "broken.bicat"
    fix.write_text("set X = x0 x1\nrel R : X -> X = x0:x0\ncheck map R\n")
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "2",
                   "--suite", "kernel", "--fixtures", str(fix)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAILURES PRESENT" in out


def test_cli_cell_check_on_large_span_apex_needs_no_enumeration(tmp_path,
                                                                capsys):
    # 2**21 candidate cells F -> G would exceed the enumeration budget; a
    # cell exists exactly when every fibre of G over F's legs is non-empty.
    apex = " ".join("s%d:x0:a0" % i for i in range(21))
    for legs, rc_want, status in (("x0:a0", 0, "pass"), ("x1:a0", 1, "fail")):
        fix = tmp_path / "cell.bicat"
        fix.write_text("set X = x0 x1\nset A = a0\n"
                       "span F : X -> A = %s\n"
                       "span G : X -> A = t0:%s t1:%s\n"
                       "check cell F -> G\n" % (apex, legs, legs))
        rc = cli.main(["--instance", "span", "--max-size", "1", "--trials",
                       "1", "--suite", "kernel", "--report", "machine",
                       "--fixtures", str(fix)])
        out, err = capsys.readouterr()
        assert rc == rc_want
        assert "Traceback" not in out + err
        (row,) = parse_machine(out).suites[-1].checks
        assert (row.check_id, row.status) == ("fixture-0-cell", status)


IDENTITY_LEG = """\
set X = x0 x1
set A = a0 a1
span R : X -> A = r0:x0:a0 r1:x0:a1 r2:x1:a1
span G : A -> X = a0:a0:x1 a1:a1:x0
span RG : X -> X = r0:x0:x1 r1:x0:x0 r2:x1:x0
span RG_PAIRS : X -> X = (r0,a0):x0:x1 (r1,a1):x0:x0 (r2,a1):x1:x0
span GR : X -> A = a0:x1:a0 a1:x0:a1
span T : A -> X = t0:a0:x0 t1:a1:x1 t2:a1:x0
span GRT : X -> X = t0:x1:x0 t1:x0:x1 t2:x0:x0
span GRT_PAIRS : X -> X = (a0,t0):x1:x0 (a1,t1):x0:x1 (a1,t2):x0:x0
check compose R G = RG
check compose R G = RG_PAIRS
check compose GR T = GRT
check compose GR T = GRT_PAIRS
"""


def test_cli_compose_along_an_identity_leg_keeps_the_other_apex(tmp_path,
                                                                 capsys):
    # G is a graph and GR the reversed graph of G's function: a composite
    # with G on the right keeps R's apex labels, one with GR on the left
    # keeps T's, and the pair-labelled pullback is a different span.
    fix = tmp_path / "identity-leg.bicat"
    fix.write_text(IDENTITY_LEG)
    rc = cli.main(["--instance", "span", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--report", "machine",
                   "--fixtures", str(fix)])
    out = capsys.readouterr().out
    assert rc == 1
    rows = parse_machine(out).suites[-1].checks
    assert [(row.check_id, row.status) for row in rows] == [
        ("fixture-0-compose", "pass"), ("fixture-1-compose", "fail"),
        ("fixture-2-compose", "pass"), ("fixture-3-compose", "fail")]


@pytest.mark.parametrize("instance", ("span", "rel"))
def test_cell_check_between_non_parallel_cells_fails_with_its_boundary(
        instance):
    doc = parse_document(NON_PARALLEL_CELL[instance])
    (row,) = _fixture_rows(instance_for(instance), doc)
    assert row.status == "fail"
    shown = parse_document(row.counterexample)
    assert shown.lookup("dom") == doc.lookup("A")
    assert shown.lookup("cod") == doc.lookup("B")


def test_every_reported_payload_round_trips(capsys):
    """Reports print payloads without parsing them back, so the printer
    must never write text that parses to something else.  The payloads
    come from the golden reports (which ``test_golden`` pins to the runs
    that print them), the shipped fixtures and the non-parallel cell
    fixtures."""
    reports = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "tests" / "golden").glob("*.report"))]
    for name, rc_want in (("span-basic", 0), ("rel-basic", 0),
                          ("rel-broken", 1)):
        rc = cli.main(["--instance", name.split("-")[0], "--max-size", "2",
                       "--trials", "2", "--suite", "kernel", "--report",
                       "machine", "--fixtures",
                       str(ROOT / "fixtures" / (name + ".bicat"))])
        assert rc == rc_want, name
        reports.append(capsys.readouterr().out)
    payloads = [c.counterexample for text in reports
                for s in parse_machine(text).suites for c in s.checks
                if c.counterexample]
    payloads += [r.counterexample for name, text in NON_PARALLEL_CELL.items()
                 for r in _fixture_rows(instance_for(name),
                                        parse_document(text))]
    assert len(payloads) > len(reports)
    for p in payloads:
        assert print_document(parse_document(p)) == p


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert cli.main(["--instance", "rel", "--suite", "wrong"]) == 2
    assert cli.main(["--instance", "rel", "--trials", "0"]) == 2
    assert cli.main(["--instance", "rel",
                     "--fixtures", str(tmp_path / "missing.bicat")]) == 2
    garbled = tmp_path / "garbled.bicat"
    garbled.write_text("wobble Z\n")
    assert cli.main(["--instance", "rel", "--fixtures", str(garbled)]) == 2
    span_fix = tmp_path / "span.bicat"
    span_fix.write_text("set X = x0\nspan F : X -> X = s0:x0:x0\ncheck map F\n")
    assert cli.main(["--instance", "rel", "--fixtures", str(span_fix)]) == 2
    capsys.readouterr()


def test_cli_invalid_cell_record_exits_two(tmp_path, capsys):
    fix = tmp_path / "cell.bicat"
    fix.write_text("set X = x0\nset A = a0\n"
                   "span F : X -> A = s0:x0:a0 s1:x0:a0\n"
                   "cell c : F -> NOPE = s0:s0 s1:zz\n"
                   "check map F\n")
    rc = cli.main(["--instance", "span", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--fixtures", str(fix)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "malformed fixtures: line 4" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "set X = %s\n" % ("(" * 2000 + "a" + ",b)" * 2000),
    "set X = x0\nspan X : X -> X = s0:x0:x0\ncheck map X\n",
    "set X = x0\nset X = x1\ncheck map X\n",
])
def test_cli_hostile_fixture_names_and_labels_exit_two(tmp_path, capsys,
                                                       text):
    fix = tmp_path / "hostile.bicat"
    fix.write_text(text)
    rc = cli.main(["--instance", "span", "--max-size", "1", "--trials", "1",
                   "--suite", "kernel", "--fixtures", str(fix)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert "bicat-check: malformed fixtures: line " in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("data", [b"\xff\xfe\x00bad",
                                  b"set X = x0\nset A = a\xc3\n"])
def test_cli_non_utf8_fixture_exits_two(tmp_path, capsys, data):
    fix = tmp_path / "bad.bicat"
    fix.write_bytes(data)
    rc = cli.main(["--instance", "span", "--suite", "kernel", "--fixtures",
                   str(fix)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("bicat-check: malformed fixtures: ")
    assert "codec can't decode" in err
    assert "Traceback" not in out + err


#: The fixture files, each with the instance it is written for.
FUZZ_BASES = [(f.name.split("-")[0], f.read_text(encoding="utf-8"))
              for f in sorted((ROOT / "fixtures").glob("*.bicat"))]
#: Pieces of the format a mutation inserts.
FUZZ_TOKENS = (" ", "\n", ":", ",", "(", ")", "=", "->", "#", "*", "x0",
               "a0", "s0", "X", "A", "set ", "span ", "rel ", "cell ",
               "check ", "map ", "compose ", "equal ")


#: Bytes a byte-level mutation inserts: the format's tokens, a NUL, a
#: valid two-byte letter and sequences that are not UTF-8 (a stray
#: continuation byte, truncated sequences, an encoded surrogate, an
#: overlong form and a UTF-16 byte-order mark).
FUZZ_BYTES = tuple(t.encode() for t in FUZZ_TOKENS) + (
    b"\x00", "\u00e9".encode(), b"\x80", b"\xc3", b"\xe2\x82",
    b"\xed\xa0\x80", b"\xc0\xaf", b"\xff\xfe")


@st.composite
def _mutated_fixture(draw):
    instance, text = draw(st.sampled_from(FUZZ_BASES))
    if draw(st.booleans()):
        # A span record with an oversized apex, and claims that read it.
        n = draw(st.integers(0, 60))
        text += "span BIG : X -> A = %s\ncheck map BIG\ncheck cell BIG -> " \
                "BIG\ncheck compose BIG %s = BIG\n" % (
                    " ".join("s%d:x%d:a0" % (i, i % 2) for i in range(n)),
                    draw(st.sampled_from(("BIG", "G", "S", "ID"))))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(st.sampled_from(("",) + FUZZ_TOKENS)) + text[j:]
    return draw(st.sampled_from((instance, "span", "rel"))), text


@st.composite
def _mutated_fixture_bytes(draw):
    instance, text = draw(st.sampled_from(FUZZ_BASES))
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data = data[:i] + draw(st.sampled_from(FUZZ_BYTES)) + data[j:]
    return draw(st.sampled_from((instance, "span", "rel"))), data


@settings(max_examples=160, deadline=None)
@given(st.one_of(_mutated_fixture(), _mutated_fixture_bytes()))
def test_cli_exit_codes_are_total_on_mutated_fixtures(tmp_path_factory, case):
    # Whatever the fixture's text, or bytes, the command answers with an
    # exit code of its contract and a message, never a traceback.
    instance, data = case
    fix = tmp_path_factory.getbasetemp() / "mutated.bicat"
    fix.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["--instance", instance, "--suite", "kernel",
                       "--max-size", "0", "--trials", "1", "--fixtures",
                       str(fix), "--out", str(fix.with_suffix(".report"))])
    assert rc in (0, 1, 2, 3), rc
    assert "Traceback" not in err.getvalue()


def test_cli_does_not_read_jobs_env(monkeypatch, capsys):
    class Watched(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

        def __contains__(self, key):
            read.add(key)
            return super().__contains__(key)

    read = set()
    monkeypatch.setattr(os, "environ",
                        Watched(os.environ, BICAT_CHECK_JOBS="many"))
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "2",
                   "--suite", "kernel"])
    capsys.readouterr()
    assert rc == 0
    assert "BICAT_CHECK_JOBS" not in read


@pytest.mark.parametrize("mutant", ["comp-drops-first-pair",
                                    "local-product-is-union",
                                    "local-terminal-is-empty"])
def test_check_that_raises_is_an_error_row_and_the_run_goes_on(
        tmp_path, capsys, monkeypatch, mutant):
    # Each relation mutant of the table makes some checks raise inside the
    # instance.  Those rows read ``error`` with the exception as their
    # payload, every suite is still reported, and the exit code is 3:
    # neither a law failure's 1 nor a setup problem's 2.
    apply_mutant(monkeypatch, mutant)
    out = tmp_path / "report"
    rc = cli.main(["--instance", "rel", "--max-size", "2", "--trials", "3",
                   "--report", "machine", "--out", str(out)])
    printed = capsys.readouterr()
    assert rc == 3
    assert "Traceback" not in printed.out + printed.err
    run = parse_machine(out.read_text())
    assert [s.suite for s in run.suites] == list(SUITES)
    errors = [c for s in run.suites for c in s.checks if c.status == "error"]
    assert errors
    for c in errors:
        assert c.trials == 0
        assert re.fullmatch(r"# \w+: .+\n", c.counterexample), c


def test_a_run_makes_no_reference_cycles(monkeypatch):
    # Reference counting alone frees what a run builds, which is why
    # run_config may pause the cyclic collector: every suite on both
    # instances, false fixture claims that print payloads and checks that
    # raise leave nothing for a collection to find.
    broken = parse_document((ROOT / "fixtures" / "rel-broken.bicat")
                            .read_text(encoding="utf-8"))
    cfg = FAST._replace(trials=3)
    gc.collect()
    # Off, so that no automatic pass frees a cycle before it is counted.
    gc.disable()
    try:
        run = run_config(cfg._replace(instance="span"))
        assert gc.collect() == 0
        run = run_config(cfg, broken)
        assert gc.collect() == 0
        assert [c.status for c in run.suites[-1].checks] == ["fail"] * 3
        apply_mutant(monkeypatch, "comp-drops-first-pair")
        assert "error" in run_config(cfg).statuses
        assert gc.collect() == 0
    finally:
        gc.enable()
    # The caller's collector state comes back on a return and on a raise.
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            run_config(cfg._replace(suites=("kernel",)))
            assert gc.isenabled() is enabled
            with pytest.raises(FixtureError):
                run_config(cfg, parse_document("check map NOWHERE\n"))
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_row_time_leaves_out_freeing_the_previous_memo(monkeypatch):
    # Emptying the memo frees what the row before built: none of this row's
    # time.
    monkeypatch.setattr(harness, "clear_table", lambda: time.sleep(0.05))
    row = run_check(instance_for("span"), FAST,
                    harness.skipped_check("unit-coherence-axiom-left"))
    assert row.status == "skipped"
    assert row.wall_ms < 50


@pytest.mark.parametrize("instance,entry", [("span", "s0:x0:a0"),
                                            ("rel", "x0:a0")])
def test_fixture_claim_that_raises_is_an_error_row(tmp_path, capsys,
                                                   instance, entry):
    # Binding a record's entities is setup (exit 2); deciding its claim is
    # a check, so a composite that raises is an ``error`` row.
    fix = tmp_path / "raises.bicat"
    fix.write_text("set X = x0\nset A = a0\n%s R : X -> A = %s\n"
                   "check compose R R = R\ncheck map R\n" % (instance, entry))
    rc = cli.main(["--instance", instance, "--max-size", "1", "--trials",
                   "1", "--suite", "kernel", "--report", "machine",
                   "--fixtures", str(fix)])
    out, err = capsys.readouterr()
    assert (rc, err) == (3, "")
    rows = parse_machine(out).suites[-1].checks
    assert [(r.check_id, r.status, r.trials) for r in rows] == [
        ("fixture-0-compose", "error", 0), ("fixture-1-map", "pass", 1)]
    assert rows[0].counterexample == (
        "# ValueError: composite of non-composable %ss\n"
        % {"span": "span", "rel": "relation"}[instance])
