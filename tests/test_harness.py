"""End-to-end runs of the check harness and the command line entry."""

import pytest

from bicat import cli
from bicat.fin import FinSet
from bicat.fmt import parse_document
from bicat.gen import SUITES, GenConfig
from bicat.harness import (FixtureError, instance_for, property_check,
                           run_config, run_fixture_checks)
from bicat.report import parse_machine, render_machine, strip_wall

FAST = GenConfig(seed=0, max_carrier=2, trials=6, instance="rel",
                 suites=SUITES)


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
    run = run_config(FAST)
    negatives = [c for s in run.suites for c in s.checks
                 if c.check_id.startswith("negative-")]
    assert len(negatives) >= len(SUITES) - 1
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


def test_parallel_run_matches_serial(monkeypatch):
    serial = strip_wall(run_config(FAST))
    monkeypatch.setenv("BICAT_CHECK_JOBS", "4")
    parallel = strip_wall(run_config(FAST))
    assert serial == parallel


def test_counterexamples_shrink_to_local_minimum():
    def body(B, rng, carriers):
        (X,) = carriers
        if len(X) >= 2:
            return {"R": B.identity(X)}
        return None

    spec = property_check("toy-needs-two-points", ("x",), body)
    cfg = GenConfig(seed=1, max_carrier=4, trials=30, instance="rel",
                    suites=("kernel",))
    result = spec.run(instance_for("rel"), cfg)
    assert result.status == "fail"
    doc = parse_document(result.counterexample)
    carrier_sizes = sorted(len(fs) for fs in doc.sets.values())
    assert carrier_sizes[-1] == 2


def test_property_check_passes_when_body_never_fires():
    spec = property_check("toy-always-fine", ("x", "a"),
                          lambda B, rng, carriers: None)
    result = spec.run(instance_for("span"), FAST)
    assert result.status == "pass"
    assert result.trials == FAST.trials
    assert result.counterexample is None


def test_fixture_checks_pass_and_fail():
    B = instance_for("rel")
    good = parse_document(
        "set X = x0 x1\n"
        "rel R : X -> X = x0:x0 x1:x1\n"
        "check map R\n"
        "check compose R R = R\n"
    )
    results = run_fixture_checks(B, good)
    assert [r.status for r in results] == ["pass", "pass"]
    bad = parse_document(
        "set X = x0 x1\n"
        "rel R : X -> X = x0:x0\n"
        "check map R\n"
    )
    results = run_fixture_checks(B, bad)
    assert [r.status for r in results] == ["fail"]
    assert results[0].counterexample


def test_fixture_wrong_instance_is_an_error_not_a_failure():
    span_doc = parse_document(
        "set X = x0\n"
        "span F : X -> X = s0:x0:x0\n"
        "check map F\n"
    )
    with pytest.raises(FixtureError):
        run_fixture_checks(instance_for("rel"), span_doc)
    missing = parse_document("check map NOWHERE\n")
    with pytest.raises(FixtureError):
        run_fixture_checks(instance_for("rel"), missing)


def test_fixture_results_appended_as_own_suite():
    doc = parse_document("set X = x0\nrel R : X -> X = x0:x0\ncheck map R\n")
    cfg = GenConfig(seed=0, max_carrier=2, trials=2, instance="rel",
                    suites=("kernel",))
    run = run_config(cfg, fixture_docs=(doc,))
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


def test_cli_bad_jobs_env_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("BICAT_CHECK_JOBS", "many")
    rc = cli.main(["--instance", "rel", "--max-size", "1", "--trials", "2",
                   "--suite", "kernel"])
    capsys.readouterr()
    assert rc == 2
