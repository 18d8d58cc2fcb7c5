"""The benchmark's own tests.  Run from the repository root with

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import fixturegen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- fixture generator ------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    assert fixturegen.generate(5, 400) == fixturegen.generate(5, 400)
    assert fixturegen.generate(5, 400)[0] != fixturegen.generate(6, 400)[0]


def test_generator_mixes_true_and_false_claims():
    text, claims = fixturegen.generate(1)
    assert len(text.splitlines()) >= fixturegen.RECORDS
    assert {kind for kind, _ in claims} == {"compose", "equal", "map"}
    false = sum(not ok for _, ok in claims) / len(claims)
    assert 0.15 < false < 0.35
    assert "check cell" not in text


def test_pullback_of_hand_checked_spans():
    # R : X -> Y and T : Y -> Z; only r's right image meeting t's left
    # image survives, in row-major order of R's apex then T's apex.
    R = ("X", "Y", (("r0", "x0", "y0"), ("r1", "x1", "y1"), ("r2", "x1", "y0")))
    T = ("Y", "Z", (("t0", "y0", "z0"), ("t1", "y1", "z1"), ("t2", "y0", "z1")))
    assert fixturegen.pullback(R, T) == ("X", "Z", (
        (("r0", "t0"), "x0", "z0"),
        (("r0", "t2"), "x0", "z1"),
        (("r1", "t1"), "x1", "z1"),
        (("r2", "t0"), "x1", "z0"),
        (("r2", "t2"), "x1", "z1"),
    ))


def test_pullback_empty_and_non_composable():
    R = ("X", "Y", (("r0", "x0", "y0"),))
    T = ("Y", "Z", (("t0", "y1", "z0"),))
    assert fixturegen.pullback(R, T) == ("X", "Z", ())
    with pytest.raises(ValueError):
        fixturegen.pullback(R, R)


def test_pullback_nested_labels_render():
    assert fixturegen.render((("a", "b"), "c")) == "((a,b),c)"


def test_is_map_needs_a_bijective_left_leg():
    carriers = {"X": ("x0", "x1"), "Y": ("y0",)}
    good = ("X", "Y", (("m0", "x1", "y0"), ("m1", "x0", "y0")))
    twice = ("X", "Y", (("m0", "x0", "y0"), ("m1", "x0", "y0")))
    short = ("X", "Y", (("m0", "x0", "y0"),))
    assert fixturegen.is_map(good, carriers)
    assert not fixturegen.is_map(twice, carriers)
    assert not fixturegen.is_map(short, carriers)


# --- grading ------------------------------------------------------------------

def _report(rows):
    lines = ["bicat-report 1", "config seed=0"]
    suite = None
    for s, cid, status in rows:
        if s != suite:
            lines.append("suite " + s)
            suite = s
        lines.append("check %s %s trials=1 wall_ms=3" % (cid, status))
    return "\n".join(lines) + "\n"


def _workload():
    w = run.Workload("span-default", 0, smoke=True)
    w.suites = ("kernel", "monoidal")
    return w


GOOD = [("kernel", "a", "pass"), ("monoidal", "b", "pass"),
        ("monoidal", "unit-coherence-axiom-left", "skipped"),
        ("monoidal", "unit-coherence-axiom-right", "skipped")]


def _grade(rows, exit_code=0, stderr=""):
    inv = run.Invocation(1.0, exit_code, 20.0, _report(rows), stderr)
    return _workload().grade(inv)


def test_grade_accepts_expected_rows():
    assert _grade(GOOD) == (4, 0)


def test_grade_counts_failed_and_unexpected_skips():
    rows = [("kernel", "a", "fail"), ("monoidal", "b", "skipped")] + GOOD[2:]
    assert _grade(rows, exit_code=1) == (4, 2)


def test_grade_counts_missing_skipped_rows():
    assert _grade(GOOD[:3]) == (3, 1)


def test_grade_crash_makes_every_row_wrong():
    assert _grade(GOOD, stderr="Traceback (most recent call last):") == (4, 4)
    assert _grade(GOOD, exit_code=1) == (4, 4)


def test_strip_wall_zeroes_only_wall_ms():
    text = _report(GOOD)
    assert "wall_ms=3" in text
    assert run.strip_wall(text) == text.replace("wall_ms=3", "wall_ms=0")


# --- timing ---------------------------------------------------------------------

def test_spawn_times_a_child_through_its_stops():
    # The child burns 0.7 s of CPU, so it is stopped and sampled a few times.
    run.OUT.mkdir(exist_ok=True)
    busy = ("import time\n"
            "while time.process_time() < 0.7:\n"
            "    pass\n")
    inv = run.spawn([sys.executable, "-c", busy], tag="test")
    assert inv.exit_code == 0 and inv.stderr == ""
    assert 0.7 <= inv.raw_wall_s < 10
    assert 0 < inv.wall_s < 10


# --- whole runs -----------------------------------------------------------------

def _bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "2", "--seconds",
                  "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# bench workload=%s seed=2 python=" % workload)
    assert "nproc=" in lines[0]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        n: m["unit"] for n, m in result["metrics"].items()}


def test_refuses_to_run_without_sources():
    # A directory holding only the benchmark's own files, kept inside the
    # ignored output directory so the test writes nothing elsewhere.
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _bench(bare, "--workload", "span-default", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
