"""Golden report: ``notegrade batch`` on a small fixed manifest must write
exactly the committed report JSON and CSV.

The manifest under ``tests/data/golden`` covers all four tasks in all
three formats: ties across barlines, chords, rests, dotted and
sixteenth durations, a non-dyadic ground-truth duration, key and meter
mismatches, illegal and unparseable predictions, and one sample that
``ast_length_cap`` (set by ``config.json``) excludes. Regenerate the
expected files only for an intended change of report bytes.
"""

from pathlib import Path

import pytest

from notegrade.cli import ENV_CONFIG_VAR, main

GOLDEN = Path(__file__).parent / "data" / "golden"


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
