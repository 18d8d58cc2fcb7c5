"""Machine reports must not drift: byte-for-byte comparison against goldens.

Each golden file under ``tests/golden/`` is the ``strip_wall`` machine
report of one ``bicat-check`` configuration.  A change that is meant to
alter reports regenerates them with ``python tests/test_golden.py`` and says
why; any other change must leave them byte-identical.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from bicat import cli
from bicat.report import parse_machine, render_machine, strip_wall

GOLDEN = pathlib.Path(__file__).parent / "golden"
CONFIGS = [(instance, seed) for instance in ("span", "rel") for seed in (0, 7)]


def _argv(instance, seed, out):
    return ["--instance", instance, "--seed", str(seed), "--trials", "10",
            "--report", "machine", "--out", str(out)]


def _golden_path(instance, seed):
    return GOLDEN / ("%s-seed%d-trials10.report" % (instance, seed))


def _stripped_report(instance, seed, out):
    assert cli.main(_argv(instance, seed, out)) == 0
    return render_machine(strip_wall(parse_machine(out.read_text())))


@pytest.mark.parametrize("instance,seed", CONFIGS)
def test_machine_report_matches_golden(instance, seed, tmp_path):
    got = _stripped_report(instance, seed, tmp_path / "report")
    assert got == _golden_path(instance, seed).read_text(encoding="utf-8")


@pytest.mark.parametrize("instance", ("span", "rel"))
def test_report_does_not_depend_on_the_hash_seed(instance, tmp_path):
    """A fresh interpreter under a fixed hash seed writes the golden
    report, so no set or dict order leaks into a report."""
    out = tmp_path / "report"
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=src + os.pathsep + path if path else src)
    run = subprocess.run([sys.executable, "-m", "bicat.cli",
                          *_argv(instance, 0, out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = render_machine(strip_wall(parse_machine(out.read_text())))
    assert got == _golden_path(instance, 0).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for instance, seed in CONFIGS:
            text = _stripped_report(instance, seed,
                                    pathlib.Path(tmp) / "report")
            _golden_path(instance, seed).write_text(text, encoding="utf-8")
            print("wrote", _golden_path(instance, seed), file=sys.stderr)
