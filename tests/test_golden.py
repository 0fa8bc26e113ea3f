"""Golden report: ``notegrade batch`` on a small fixed manifest must write
exactly the committed report JSON and CSV.

The manifest under ``tests/data/golden`` covers all four tasks in all
three formats: ties across barlines, chords, rests, dotted and
sixteenth durations, a non-dyadic ground-truth duration, key and meter
mismatches, illegal and unparseable predictions, and one sample that
``ast_length_cap`` (set by ``config.json``) excludes. Regenerate the
expected files only for an intended change of report bytes. The other
installed interpreters must write the same report, and the same pinned
parser verdicts as ``tests/data/differential.json``.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from notegrade.cli import ENV_CONFIG_VAR, main

TESTS = Path(__file__).parent
GOLDEN = TESTS / "data" / "golden"
SRC = TESTS.resolve().parent / "src"
OTHER_PYTHONS = ["python3.10", "python3.12", "python3.13"]


def _other_python(python: str, env: dict) -> str:
    """The path of ``python``, run with ``env``; the test is skipped when
    it is not installed."""
    exe = shutil.which(python)
    # A pyenv shim may be on PATH with its interpreter installed but not
    # selected: it runs once PYENV_VERSION names the version.
    for retry in ({}, {"PYENV_VERSION": python.removeprefix("python")}):
        env.update(retry)
        if exe is not None and subprocess.run(
                [exe, "-c", ""], env=env, capture_output=True,
                timeout=60).returncode == 0:
            return exe
    pytest.skip(f"{python} is not installed")


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_reproduces_the_golden_report(tmp_path, monkeypatch, capsys,
                                            workers):
    monkeypatch.setenv(ENV_CONFIG_VAR, str(GOLDEN / "config.json"))
    out, csv = tmp_path / "report.json", tmp_path / "report.csv"
    assert main(["batch", "--manifest", str(GOLDEN / "manifest.jsonl"),
                 "--workers", str(workers), "--out", str(out),
                 "--csv", str(csv)]) == 0
    assert out.read_bytes() == (GOLDEN / "expected_report.json").read_bytes()
    assert csv.read_bytes() == (GOLDEN / "expected_report.csv").read_bytes()


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_other_interpreters_write_the_golden_report(tmp_path, python):
    """The report bytes must not depend on the interpreter's version:
    float repr, sort order and the writer's escapes are the stdlib's."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{ENV_CONFIG_VAR: str(GOLDEN / "config.json")})
    exe = _other_python(python, env)
    out, csv = tmp_path / "report.json", tmp_path / "report.csv"
    done = subprocess.run(
        [exe, "-m", "notegrade.cli", "batch",
         "--manifest", str(GOLDEN / "manifest.jsonl"),
         "--out", str(out), "--csv", str(csv)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (GOLDEN / "expected_report.json").read_bytes()
    assert csv.read_bytes() == (GOLDEN / "expected_report.csv").read_bytes()


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_other_interpreters_write_the_pinned_digests(python):
    """The parsers' verdicts, and the documents drawn from each seed,
    must not depend on the interpreter's version either."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    exe = _other_python(python, env)
    done = subprocess.run([exe, str(TESTS / "differential.py"), "pin"],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (TESTS / "data" / "differential.json").read_text()
