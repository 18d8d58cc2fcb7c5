"""Report model and the two renderings."""

import pytest

from bicat.gen import GenConfig
from bicat.report import (CheckResult, RunReport, SuiteReport, parse_machine,
                          render_machine, render_text, strip_wall)

CFG = GenConfig(seed=7, max_carrier=3, trials=20, instance="rel",
                suites=("kernel", "homprod"))


def _sample_run():
    return RunReport(CFG, (
        SuiteReport("kernel", (
            CheckResult("pasting-interchange", "pass", 20, None, 12),
            CheckResult("negative-nonmap-rejected", "pass", 1,
                        "set X = x0\nrel R : X -> X =\ncheck map R\n", 3),
        )),
        SuiteReport("homprod", (
            CheckResult("wedge-universal-pairing", "fail", 4,
                        "# shrunk witness\nset A = a0\n", 8),
            CheckResult("unit-axiom", "skipped", 0, None, 0),
        )),
    ))


def test_ok_reflects_failures():
    run = _sample_run()
    assert not run.ok
    healthy = RunReport(CFG, (run.suites[0],))
    assert healthy.ok
    skipped_only = RunReport(CFG, (run.suites[1].__class__(
        "homprod", (CheckResult("unit-axiom", "skipped", 0, None, 0),)),))
    assert skipped_only.ok


def test_duplicate_check_ids_rejected():
    c = CheckResult("x", "pass", 1, None, 0)
    with pytest.raises(ValueError):
        SuiteReport("kernel", (c, c))
    # Replacing the rows, as ``strip_wall`` does, checks them again.
    with pytest.raises(ValueError):
        SuiteReport("kernel", (c,))._replace(checks=(c, c._replace(wall_ms=0)))


def test_machine_round_trip_modulo_wall():
    run = _sample_run()
    text = render_machine(run)
    assert text.startswith("bicat-report 2\n")
    parsed = parse_machine(text)
    assert strip_wall(parsed) == strip_wall(run)
    # wall times survive the round trip too; only the guarantee is weaker.
    assert parsed == run


def test_counterexamples_keep_their_lines():
    run = _sample_run()
    parsed = parse_machine(render_machine(run))
    cx = parsed.suites[1].checks[0].counterexample
    assert cx == "# shrunk witness\nset A = a0\n"


def test_parse_rejects_foreign_text():
    with pytest.raises(ValueError):
        parse_machine("hello\n")
    with pytest.raises(ValueError):
        parse_machine("bicat-report 2\nconfig seed=0 max-size=1 trials=1 "
                      "instance=rel suites=kernel\nsurprise\n")
    # A version 1 report is a different format, and a status is one of four.
    with pytest.raises(ValueError):
        parse_machine(render_machine(_sample_run()).replace(
            "bicat-report 2", "bicat-report 1"))
    with pytest.raises(ValueError):
        parse_machine(render_machine(_sample_run()).replace(" fail ",
                                                            " broken "))
    header = ("bicat-report 2\nconfig seed=0 max-size=1 trials=1 "
              "instance=rel suites=kernel\n")
    # A row outside any suite, or a counterexample line outside any row,
    # would be dropped or moved to another row.
    with pytest.raises(ValueError, match="before any suite"):
        parse_machine(header + "check a fail trials=1 wall_ms=0\n")
    with pytest.raises(ValueError, match="before any check"):
        parse_machine(header + "suite kernel\n| set X = x0\n"
                      "check a pass trials=1 wall_ms=0\n")
    with pytest.raises(ValueError, match="before any check"):
        parse_machine(header + "suite kernel\ncheck a fail trials=1 "
                      "wall_ms=0\nsuite homprod\n| set X = x0\n")
    # The config line must be there, with every field.
    with pytest.raises(ValueError, match="no config"):
        parse_machine("bicat-report 2\n")
    with pytest.raises(ValueError, match="no config"):
        parse_machine("bicat-report 2\nsuite kernel\n")
    with pytest.raises(ValueError, match="lacks the field 'trials'"):
        parse_machine(header.replace(" trials=1", ""))


def test_text_rendering_mentions_every_check():
    run = _sample_run()
    text = render_text(run)
    for suite in run.suites:
        for c in suite.checks:
            assert c.check_id in text
    assert "FAILURES PRESENT" in text
    assert "suite homprod: 0 passed, 1 failed, 1 skipped" in text
    healthy = RunReport(CFG, (run.suites[0],))
    assert "result: all checks passed" in render_text(healthy)
    assert "[SKIPPED]" in text
    assert "counterexample:" in text


def test_text_rendering_labels_a_payload_by_its_verdict():
    # A passing row with a payload is a negative control showing the input
    # it corrupted; only failing and erroring rows show a counterexample.
    errored = CheckResult("mate-round-trip", "error", 0,
                          "# ValueError: boom\n", 1)
    run = _sample_run()
    run = RunReport(CFG, run.suites + (SuiteReport("kernel", (errored,)),))
    lines = render_text(run).splitlines()
    labels = [(lines[i - 1].split("] ")[1].split()[0], line.strip())
              for i, line in enumerate(lines) if line.endswith(":")]
    assert labels == [("negative-nonmap-rejected", "corrupted input:"),
                      ("wedge-universal-pairing", "counterexample:"),
                      ("mate-round-trip", "counterexample:")]


def test_strip_wall_zeroes_only_wall():
    run = _sample_run()
    stripped = strip_wall(run)
    for suite in stripped.suites:
        for c in suite.checks:
            assert c.wall_ms == 0
    assert [c.check_id for s in stripped.suites for c in s.checks] \
        == [c.check_id for s in run.suites for c in s.checks]


def _errored_run():
    return RunReport(CFG, (SuiteReport("kernel", (
        CheckResult("pasting-interchange", "error", 0,
                    "# ValueError: containment fails at x0:a0\n", 5),
        CheckResult("map-adjunction-triangles", "fail", 3,
                    "set X = x0\n", 2),
    )),))


def test_error_row_round_trips_with_its_payload():
    run = _errored_run()
    text = render_machine(run)
    assert ("check pasting-interchange error trials=0 wall_ms=5\n"
            "| # ValueError: containment fails at x0:a0\n") in text
    assert parse_machine(text) == run


def test_error_rows_are_counted_and_win_over_failures():
    run = _errored_run()
    assert not run.ok
    assert run.statuses == {"error", "fail"}
    text = render_text(run)
    assert "suite kernel: 0 passed, 1 failed, 0 skipped, 1 errored" in text
    assert "[ERROR  ] pasting-interchange (trials=0, 5 ms)" in text
    assert "result: ERRORS PRESENT" in text
    # Without an error row the summary line keeps its three counts.
    assert "1 skipped\n" in render_text(_sample_run())
