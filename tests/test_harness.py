import errno
import json
import os
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from notegrade import harness, tasks
from notegrade.cli import main
from notegrade.errors import ConfigError, SchemaError
from notegrade.harness import (
    EvalConfig,
    Report,
    SampleRecord,
    json_text,
    load_external_scores,
    load_manifest,
    run_batch,
    write_report,
)
from notegrade.metrics import AccuracyScore
from notegrade.score import NotationFormat
from notegrade.tasks import (
    CapabilityWeights,
    SmgRuleReport,
    Task,
    TaskResult,
    aggregate_capability,
)

SCALE_ABC = "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|G A B c|]\n"

SCALE_GT = {
    "id": "cnc-1",
    "format": "staff",
    "key": "C",
    "meter": "4/4",
    "events": [
        {"onset_beats": f"{i}/1", "duration_beats": "1/1", "midi": [m]}
        for i, m in enumerate([60, 62, 64, 65, 67, 69, 71, 72])
    ],
}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _manifest(tmp_path, rows):
    lines = [json.dumps(row) for row in rows]
    return _write(tmp_path / "manifest.jsonl", "\n".join(lines) + "\n")


def _full_fixture(tmp_path):
    _write(tmp_path / "pred_vsu.txt", "The answer is (B).")
    _write(tmp_path / "pred_cnc.abc", SCALE_ABC)
    _write(tmp_path / "pred_ast.abc", SCALE_ABC)
    _write(tmp_path / "pred_smg.abc", SCALE_ABC)
    _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    rows = [
        {"id": "vsu-1", "task": "vsu", "format": "staff",
         "pred_path": "pred_vsu.txt", "answer": "b"},
        {"id": "cnc-1", "task": "cnc", "format": "staff",
         "pred_path": "pred_cnc.abc", "gt_path": "gt.json"},
        {"id": "ast-1", "task": "ast", "format": "staff",
         "pred_path": "pred_ast.abc", "gt_path": "gt.json"},
        {"id": "smg-1", "task": "smg", "format": "staff",
         "pred_path": "pred_smg.abc", "declared_key": "C",
         "declared_meter": "4/4"},
    ]
    return _manifest(tmp_path, rows)


def test_load_manifest_resolves_paths(tmp_path):
    manifest = _full_fixture(tmp_path)
    records = load_manifest(manifest)
    assert [r.id for r in records] == ["vsu-1", "cnc-1", "ast-1", "smg-1"]
    assert records[1].gt_path == tmp_path / "gt.json"
    assert records[0].answer == "b"


def test_load_manifest_skips_blank_lines(tmp_path):
    manifest = _full_fixture(tmp_path)
    manifest.write_text("\n" + manifest.read_text() + "\n\n", encoding="utf-8")
    assert len(load_manifest(manifest)) == 4


def test_load_manifest_reads_crlf_rows_and_blank_crlf_lines(tmp_path):
    manifest = _full_fixture(tmp_path)
    rows = manifest.read_text(encoding="utf-8").replace("\n", "\r\n")
    manifest.write_bytes(("\r\n" + rows + "\r\n").encode())
    assert [r.id for r in load_manifest(manifest)] == [
        "vsu-1", "cnc-1", "ast-1", "smg-1"]


def test_load_manifest_does_not_end_a_row_at_a_lone_cr(tmp_path):
    # JSON Lines rows end at "\n": two objects joined by "\r" are one
    # row, and not valid JSON.
    manifest = _full_fixture(tmp_path)
    rows = manifest.read_text(encoding="utf-8").rstrip("\n")
    manifest.write_bytes(rows.replace("\n", "\r").encode())
    with pytest.raises(SchemaError, match="manifest line 1 is not valid JSON"):
        load_manifest(manifest)
    assert main(["batch", "--manifest", str(manifest),
                 "--out", str(tmp_path / "report.json")]) == 2


@pytest.mark.parametrize("row,fragment", [
    ({"task": "vsu", "format": "staff", "pred_path": "p", "answer": "a"},
     "id"),
    ({"id": "x", "format": "staff", "pred_path": "p"}, "task"),
    ({"id": "x", "task": "vsu", "format": "staff", "answer": "a"},
     "pred_path"),
    ({"id": "x", "task": "cnc", "format": "staff", "pred_path": "p"},
     "gt_path"),
    ({"id": "x", "task": "vsu", "format": "staff", "pred_path": "p",
      "answer": "a", "gt_path": "g"}, "gt_path"),
    ({"id": "x", "task": "vsu", "format": "staff", "pred_path": "p"},
     "answer"),
    ({"id": "x", "task": "smg", "format": "staff", "pred_path": "p",
      "declared_key": "C"}, "declared_meter"),
    ({"id": "x", "task": "vsu", "format": "staff", "pred_path": "p",
      "answer": "a", "bogus": 1}, "bogus"),
    ({"id": "x", "task": "vsu", "format": "polka", "pred_path": "p",
      "answer": "a"}, "format"),
    ({"id": "x", "task": "vsu", "format": "staff", "pred_path": "p",
      "answer": "a", "tuning": [64, 59, 55, 50, 45, 40]}, "tuning"),
    ({"id": "x", "task": "cnc", "format": "tab", "pred_path": "p",
      "gt_path": "g", "tuning": [64, 59, 55]}, "tuning"),
])
def test_load_manifest_rejects_bad_rows(tmp_path, row, fragment):
    manifest = _manifest(tmp_path, [row])
    with pytest.raises(SchemaError) as err:
        load_manifest(manifest)
    assert fragment in str(err.value)
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("field", ["pred_path", "gt_path"])
def test_a_nul_in_a_manifest_path_is_a_schema_error(tmp_path, capsys, field):
    row = {"id": "x", "task": "cnc", "format": "staff", "pred_path": "p",
           "gt_path": "g", field: "pred\u0000.abc"}
    manifest = _manifest(tmp_path, [row])
    with pytest.raises(SchemaError,
                       match=f"manifest line 1: '{field}' must not contain"):
        load_manifest(manifest)
    assert main(["batch", "--manifest", str(manifest),
                 "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest line 1:") and err.count("\n") == 1


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    row = {"id": "x", "task": "vsu", "format": "staff",
           "pred_path": "p", "answer": "a"}
    manifest = _manifest(tmp_path, [row, row])
    with pytest.raises(SchemaError, match="duplicate"):
        load_manifest(manifest)


def test_load_manifest_rejects_empty(tmp_path):
    manifest = _write(tmp_path / "m.jsonl", "\n")
    with pytest.raises(SchemaError, match="no samples"):
        load_manifest(manifest)


def test_run_batch_scores_all_tasks(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig())
    means = report.task_means()
    assert means[Task.VSU] == 1
    assert means[Task.CNC] == 1
    assert means[Task.AST] == 1
    assert means[Task.SMG] == 1
    assert report.capability() == 1
    assert report.warnings == ()


def test_run_batch_sorts_results_by_sample_id(tmp_path):
    manifest = _full_fixture(tmp_path)
    lines = manifest.read_text().strip().splitlines()
    manifest.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    records = load_manifest(manifest)
    report = run_batch(records, EvalConfig())
    ids = [r.sample_id for r in report.results]
    assert ids == sorted(ids)


def test_run_batch_missing_task_warns(tmp_path):
    _write(tmp_path / "pred.txt", "b")
    manifest = _manifest(tmp_path, [
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"},
    ])
    report = run_batch(load_manifest(manifest), EvalConfig())
    assert report.capability() == Fraction(1, 4)
    assert len(report.warnings) == 3
    assert any("cnc" in w for w in report.warnings)


def test_run_batch_unreadable_prediction_scores_empty(tmp_path):
    manifest = _manifest(tmp_path, [
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "missing.txt", "answer": "b"},
    ])
    report = run_batch(load_manifest(manifest), EvalConfig())
    result = report.results[0]
    assert not result.correct
    assert any("unreadable" in d for d in result.diagnostics)


def test_run_batch_corrupt_ground_truth_aborts(tmp_path):
    _write(tmp_path / "pred.abc", SCALE_ABC)
    _write(tmp_path / "gt.json", "{not json")
    manifest = _manifest(tmp_path, [
        {"id": "c1", "task": "cnc", "format": "staff",
         "pred_path": "pred.abc", "gt_path": "gt.json"},
    ])
    with pytest.raises(SchemaError):
        run_batch(load_manifest(manifest), EvalConfig())


def test_run_batch_rejects_bad_worker_count(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    with pytest.raises(ConfigError):
        run_batch(records, EvalConfig(), workers=0)


@pytest.mark.parametrize("workers", [True, "2", 1.5, None])
def test_run_batch_rejects_non_integer_worker_count(tmp_path, workers):
    records = load_manifest(_full_fixture(tmp_path))
    with pytest.raises(ConfigError, match="integer"):
        run_batch(records, EvalConfig(), workers=workers)


def test_run_batch_scores_serially_in_id_order(tmp_path, monkeypatch):
    records = load_manifest(_full_fixture(tmp_path))
    calls = []
    original = harness.score_sample

    def spy(record, config, gt, memo=None):
        calls.append((record.id, threading.get_ident()))
        return original(record, config, gt, memo)

    monkeypatch.setattr(harness, "score_sample", spy)
    run_batch(records, EvalConfig(), workers=4)
    assert calls == [(sample_id, threading.get_ident()) for sample_id in
                     ("ast-1", "cnc-1", "smg-1", "vsu-1")]


def test_one_overlong_prediction_fails_only_its_own_sample(tmp_path):
    _write(tmp_path / "huge.tab", "".join(
        f"{label}{body}-|\n" for label, body in
        zip(("e|", "B|", "G|", "D|", "A|", "E|"),
            ["9" * 5000] + ["-" * 5000] * 5)))
    _write(tmp_path / "huge.abc", SCALE_ABC.replace("C D", "C" + "7" * 5000))
    _write(tmp_path / "good.abc", SCALE_ABC)
    _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    manifest = _manifest(tmp_path, [
        {"id": "a-tab", "task": "ast", "format": "tab",
         "pred_path": "huge.tab", "gt_path": "gt.json"},
        {"id": "c-abc", "task": "cnc", "format": "staff",
         "pred_path": "huge.abc", "gt_path": "gt.json"},
        {"id": "c-good", "task": "cnc", "format": "staff",
         "pred_path": "good.abc", "gt_path": "gt.json"},
        {"id": "s-tab", "task": "smg", "format": "tab",
         "pred_path": "huge.tab", "declared_key": "C",
         "declared_meter": "4/4"},
    ])
    report = run_batch(load_manifest(manifest), EvalConfig())
    results = {r.sample_id: r for r in report.results}
    assert results["c-good"].hybrid == 1
    assert results["a-tab"].hybrid == 0
    assert results["a-tab"].diagnostics[0].startswith("tab.fret_range: fret 9")
    assert results["c-abc"].hybrid == 0
    assert results["c-abc"].diagnostics == (
        "abc.parse: number of 5000 digits is too long",)
    assert results["s-tab"].technical == 0


def test_load_manifest_overlong_integer_is_schema_error(tmp_path):
    manifest = _write(
        tmp_path / "manifest.jsonl",
        '{"id": "t1", "task": "smg", "format": "tab", "pred_path": "p.tab", '
        '"declared_key": "C", "declared_meter": "4/4", '
        '"tuning": [' + "6" * 5000 + ', 59, 55, 50, 45, 40]}\n')
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_manifest(manifest)


def _report_dict(report: Report) -> dict:
    """The report as README describes it: its ``to_json_dict``, and an
    entry per result, that result's ``to_json_dict`` with its sample's
    format and external scores."""
    fmt_of = {record.id: record.format.value for record in report.records}
    entries = []
    for result in report.results:
        scores = report.external.get(result.sample_id) or {}
        entries.append({**result.to_json_dict(),
                        "format": fmt_of[result.sample_id],
                        "aesthetic": scores.get("aesthetic"),
                        "fingering": scores.get("fingering")})
    return {**report.to_json_dict(), "per_sample": entries}


def _written_entries(report: Report, tmp_path) -> dict[str, dict]:
    """The ``per_sample`` entries of the written report, by sample id."""
    out = tmp_path / "entries.json"
    write_report(report, out)
    return {row["sample_id"]: row for row in
            json.loads(out.read_text(encoding="utf-8"))["per_sample"]}


@pytest.mark.parametrize("pred_path,spelled", [
    ("./p.txt", "p.txt"), ("a//p.txt", "a/p.txt"), ("a/./p.txt", "a/p.txt")])
def test_load_manifest_spells_odd_paths_as_pathlib(tmp_path, pred_path,
                                                    spelled):
    """A prediction path with a "." or an empty part is joined by pathlib,
    which drops those parts: the path the report's diagnostics name."""
    [record] = load_manifest(_manifest(tmp_path, [
        {"id": "v", "task": "vsu", "format": "staff", "pred_path": pred_path,
         "answer": "b"}]))
    assert record.pred_path == f"{tmp_path}/{spelled}"


def test_a_directory_as_prediction_is_scored_as_empty(tmp_path):
    (tmp_path / "pred").mkdir()
    manifest = _manifest(tmp_path, [
        {"id": "v", "task": "vsu", "format": "staff", "pred_path": "pred",
         "answer": "b"}])
    entries = _written_entries(run_batch(load_manifest(manifest)), tmp_path)
    assert entries["v"]["diagnostics"] == [
        "prediction unreadable, scored as empty: [Errno 21] Is a directory: "
        f"'{tmp_path}/pred'", "empty prediction"]
    assert entries["v"]["correct"] is False


def test_run_batch_deterministic_across_worker_counts(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    for workers in (1, 4):
        write_report(run_batch(records, EvalConfig(), workers=workers),
                     tmp_path / f"report{workers}.json")
    assert (tmp_path / "report1.json").read_bytes() == \
        (tmp_path / "report4.json").read_bytes()


def test_external_scores_attach_to_smg(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    scores = {"smg-1": {"aesthetic": 4.5, "fingering": 3.0}}
    report = run_batch(records, EvalConfig(), external_scores=scores)
    rows = _written_entries(report, tmp_path)
    assert rows["smg-1"]["aesthetic"] == 4.5
    assert rows["smg-1"]["fingering"] == 3.0
    assert rows["vsu-1"]["aesthetic"] is None


def test_external_scores_unknown_id_warns(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig(),
                       external_scores={"ghost": {"aesthetic": 3.0}})
    assert any("ghost" in w for w in report.warnings)


def test_external_scores_non_smg_sample_warns(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig(),
                       external_scores={"vsu-1": {"aesthetic": 3.0}})
    assert any("vsu-1" in w for w in report.warnings)
    rows = _written_entries(report, tmp_path)
    assert rows["vsu-1"]["aesthetic"] is None


def test_load_external_scores(tmp_path):
    path = _write(tmp_path / "ext.json",
                  json.dumps({"s1": {"aesthetic": 1, "fingering": 5}}))
    scores = load_external_scores(path)
    assert scores["s1"]["aesthetic"] == 1.0


@pytest.mark.parametrize("payload", [
    '{"s1": {"aesthetic": 0.5}}',
    '{"s1": {"aesthetic": 6}}',
    '{"s1": {"sparkle": 3}}',
    '{"s1": {}}',
    '{"s1": 3}',
    '[1, 2]',
    'not json',
    '{"s1": {"aesthetic": ' + "3" * 5000 + '}}',
])
def test_load_external_scores_rejects_bad_payloads(tmp_path, payload):
    path = _write(tmp_path / "ext.json", payload)
    with pytest.raises(SchemaError):
        load_external_scores(path)


def test_report_json_shape(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    doc = run_batch(records, EvalConfig()).to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["capability"] == 1.0
    assert doc["capability_exact"] == "1/1"
    assert {row["task"] for row in doc["per_task_format"]} == {
        "vsu", "cnc", "ast", "smg"}
    per_task = doc["per_task"]
    assert per_task["cnc"] == {"count": 1, "invalid_count": 0,
                               "mean": 1.0, "mean_exact": "1/1"}
    assert doc["config"]["weights"]["pitch"] == 0.5
    assert "capability_by_format" in doc


def test_report_empty_task_mean_is_null(tmp_path):
    _write(tmp_path / "pred.txt", "b")
    manifest = _manifest(tmp_path, [
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"},
    ])
    doc = run_batch(load_manifest(manifest), EvalConfig()).to_json_dict()
    assert doc["per_task"]["cnc"]["mean"] is None
    assert doc["per_task"]["cnc"]["count"] == 0


def test_invalid_results_excluded_from_means(tmp_path):
    long_pred = ("X:1\nM:4/4\nL:1/4\nK:C\n"
                 + "|".join(["C C C C"] * 30) + "|]\n")
    _write(tmp_path / "pred_long.abc", long_pred)
    _write(tmp_path / "pred_good.abc", SCALE_ABC)
    _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    manifest = _manifest(tmp_path, [
        {"id": "a1", "task": "ast", "format": "staff",
         "pred_path": "pred_long.abc", "gt_path": "gt.json"},
        {"id": "a2", "task": "ast", "format": "staff",
         "pred_path": "pred_good.abc", "gt_path": "gt.json"},
    ])
    config = EvalConfig(ast_length_cap=4)
    report = run_batch(load_manifest(manifest), config)
    assert report.task_means()[Task.AST] == 1
    doc = report.to_json_dict()
    assert doc["per_task"]["ast"] == {"count": 2, "invalid_count": 1,
                                      "mean": 1.0, "mean_exact": "1/1"}


def test_write_report_canonical_json_and_csv(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig(), external_scores={
        "smg-1": {"aesthetic": 4.5, "fingering": 2},
        "n\u00f6pe": {"aesthetic": 1}})
    assert report.external and report.warnings
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    write_report(report, out, csv_out)
    text = out.read_text(encoding="utf-8")
    assert out.read_bytes() == \
        (json_text(_report_dict(report)) + "\n").encode("utf-8")
    assert json.loads(text) == _report_dict(report)
    again = tmp_path / "report2.json"
    write_report(report, again)
    assert again.read_bytes() == out.read_bytes()
    lines = csv_out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "task,format,count,invalid_count,mean"
    assert "cnc,staff,1,0,1.000000" in lines
    empty = Report(EvalConfig(), (), ())
    write_report(empty, out)
    assert out.read_bytes() == \
        (json_text(_report_dict(empty)) + "\n").encode("utf-8")
    assert b'"per_sample": [],' in out.read_bytes()


def test_write_report_unrenderable_value_leaves_nothing(tmp_path):
    """A Python caller can put a value in a report that the encoder cannot
    render; it fails as the encoder does, after part of the report was
    written, and leaves neither report nor temporary file."""
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig())
    report = report._replace(external={"smg-1": {"aesthetic": Fraction(7, 2)}})
    with pytest.raises(Exception) as rendered:
        json_text(_report_dict(report))
    before = set(tmp_path.iterdir())
    with pytest.raises(type(rendered.value)) as written:
        write_report(report, tmp_path / "r.json", tmp_path / "r.csv")
    assert written.value.args == rendered.value.args
    assert set(tmp_path.iterdir()) == before


def test_write_report_failing_mid_write_is_a_config_error(tmp_path,
                                                          monkeypatch):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig())
    before = set(tmp_path.iterdir())

    def disk_full_after_one_write(*args, **kwargs):
        file = open(*args, **kwargs)
        written = []

        def write(text):
            if written:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            written.append(text)
            return type(file).write(file, text)
        file.write = write
        return file

    monkeypatch.setattr(harness, "open", disk_full_after_one_write,
                        raising=False)
    with pytest.raises(ConfigError) as err:
        write_report(report, tmp_path / "r.json", tmp_path / "r.csv")
    assert str(err.value).startswith(
        f"cannot write {tmp_path / 'r.json'}: [Errno {errno.ENOSPC}]")
    assert set(tmp_path.iterdir()) == before


def _synthetic_report(count: int) -> Report:
    """A report of ``count`` samples over the four tasks, built directly."""
    records, results = [], []
    for i in range(count):
        sample_id, task = f"s{i:05d}", list(Task)[i % 4]
        records.append(SampleRecord(sample_id, task, NotationFormat.JIANPU,
                                    Path(f"pred/{sample_id}.txt")))
        accuracy = AccuracyScore(Fraction(i % 7, 7), 7 - i % 7, 7, 7)
        results.append(
            TaskResult(sample_id, task, correct=i % 3 == 0)
            if task is Task.VSU else
            TaskResult(sample_id, task, fmt_legal=True, technical=3,
                       rules=SmgRuleReport(True, True, False, True, False))
            if task is Task.SMG else
            TaskResult(sample_id, task, acc_pitch=accuracy,
                       acc_duration=accuracy, fmt_legal=i % 5 > 0,
                       hybrid=Fraction(i % 5, 5),
                       diagnostics=(f"jianpu.barline: measure {i}",)))
    external = {r.id: {"aesthetic": 3.5} for r in records[::8]}
    return Report(EvalConfig(), tuple(records), tuple(results), external,
                  ("a warning",))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_report_holds_under_15_percent_of_the_report_at_once(tmp_path):
    """Writing a report, its aggregation included, holds less than 0.15
    of its bytes at any time: neither its whole text, nor its encoded
    copy, nor a dict per entry is built."""
    report = _synthetic_report(2000)
    out = tmp_path / "r.json"
    peak = _traced_peak(lambda: write_report(report, out))
    size = out.stat().st_size
    assert size > 1_000_000
    assert peak / size < 0.15


def test_write_report_serializes_the_report_once(tmp_path, monkeypatch):
    records = load_manifest(_full_fixture(tmp_path))
    report = run_batch(records, EvalConfig())
    expected = report.to_json_dict()
    calls = []
    original = Report.to_json_dict

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Report, "to_json_dict", counted)
    write_report(report, tmp_path / "r.json", tmp_path / "r.csv")
    assert len(calls) == 1
    written = json.loads((tmp_path / "r.json").read_text("utf-8"))
    assert len(written.pop("per_sample")) == len(report.results)
    assert written == expected
    csv_lines = (tmp_path / "r.csv").read_text("utf-8").splitlines()
    assert len(csv_lines) == 1 + len(expected["per_task_format"])


def test_eval_config_validation():
    with pytest.raises(ConfigError):
        EvalConfig(grid=Fraction(0))
    with pytest.raises(ConfigError):
        EvalConfig(ast_length_cap=Fraction(1, 2))


@pytest.mark.parametrize("field,value,message", [
    ("cnc_lenient", "no", "cnc_lenient must be a boolean"),
    ("cnc_lenient", 1, "cnc_lenient must be a boolean"),
    ("ast_length_cap", True, "ast_length_cap must be an integer"),
    ("ast_length_cap", 2.5, "ast_length_cap must be an integer"),
    ("ast_length_cap", Fraction(4), "ast_length_cap must be an integer"),
    ("ast_length_cap", 0, "ast_length_cap must be >= 1, got 0"),
], ids=["lenient_str", "lenient_int", "cap_bool", "cap_float", "cap_fraction",
        "cap_zero"])
def test_eval_config_checks_field_types(field, value, message):
    """Python callers get the checks the config file gets: a truthy
    string would turn lenient scoring on, and a Fraction cap would crash
    write_report after the whole batch was scored."""
    with pytest.raises(ConfigError) as err:
        EvalConfig(**{field: value})
    assert str(err.value) == message


@pytest.mark.parametrize("fields,message", [
    ({"task": "smg", "declared_key": "C", "declared_meter": "4/4",
      "answer": "b"}, "answer only applies to vsu"),
    ({"task": "vsu", "answer": "b", "declared_key": "C"},
     "declared_key/declared_meter only apply to smg"),
    ({"task": "vsu", "answer": "b", "declared_meter": "4/4"},
     "declared_key/declared_meter only apply to smg"),
], ids=["answer_outside_vsu", "key_outside_smg", "meter_outside_smg"])
def test_manifest_refuses_a_field_of_another_task(tmp_path, fields, message):
    path = _manifest(tmp_path, [{"id": "s1", "format": "staff",
                                 "pred_path": "p.abc", **fields}])
    with pytest.raises(SchemaError) as err:
        load_manifest(path)
    assert str(err.value) == f"manifest line 1: {message}"


@pytest.mark.parametrize("grid", [0.25, True, "1/4"])
def test_eval_config_grid_must_be_exact(grid):
    """A float grid would be accepted and then crash the report (a float
    has no numerator) and the integer quantizer."""
    with pytest.raises(ConfigError) as err:
        EvalConfig(grid=grid)
    assert str(err.value) == f"grid must be an int or a Fraction, got {grid!r}"


def test_capability_by_format_pools_convertible_tasks(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    doc = run_batch(records, EvalConfig()).to_json_dict()
    assert doc["capability_by_format"]["staff"] == 1.0


# --- Oracle: the aggregates as they were computed before the one grouping
# pass, with one scan of the results per task, per task and format, and
# per format.

def _oracle_means_for(results):
    sums, counts = {}, {}
    for result in results:
        value = result.normalized()
        if value is None:
            continue
        sums[result.task] = sums.get(result.task, Fraction(0)) + value
        counts[result.task] = counts.get(result.task, 0) + 1
    return {task: sums[task] / counts[task] for task in sums}


def _oracle_aggregates(report):
    fmt_of = {record.id: record.format for record in report.records}
    results = report.results
    per_task = {}
    for task in Task:
        task_results = [r for r in results if r.task is task]
        valid = [r.normalized() for r in task_results
                 if r.normalized() is not None]
        mean = sum(valid, Fraction(0)) / len(valid) if valid else None
        per_task[task.value] = {
            "count": len(task_results),
            "invalid_count": len(task_results) - len(valid),
            "mean": None if mean is None else float(mean),
            "mean_exact": None if mean is None else
            f"{mean.numerator}/{mean.denominator}",
        }
    per_task_format = []
    for task in Task:
        for fmt in NotationFormat:
            cell = [r for r in results
                    if r.task is task and fmt_of[r.sample_id] is fmt]
            if not cell:
                continue
            valid = [r.normalized() for r in cell
                     if r.normalized() is not None]
            mean = sum(valid, Fraction(0)) / len(valid) if valid else None
            per_task_format.append({
                "task": task.value, "format": fmt.value, "count": len(cell),
                "invalid_count": len(cell) - len(valid),
                "mean": None if mean is None else float(mean),
            })
    capability_by_format = {}
    for fmt in NotationFormat:
        fmt_results = [r for r in results if fmt_of[r.sample_id] is fmt]
        if fmt_results:
            capability_by_format[fmt.value] = float(aggregate_capability(
                _oracle_means_for(fmt_results), report.config.task_weights))
    means = _oracle_means_for(results)
    capability = aggregate_capability(means, report.config.task_weights)
    return means, capability, {
        "per_task": per_task,
        "per_task_format": per_task_format,
        "capability": float(capability),
        "capability_exact":
            f"{capability.numerator}/{capability.denominator}",
        "capability_by_format": capability_by_format,
    }


_FORMATS = tuple(NotationFormat)


@st.composite
def _reports(draw):
    # Few tasks and formats per draw, so that empty cells are common.
    tasks = draw(st.lists(st.sampled_from(tuple(Task)), min_size=1,
                          max_size=4, unique=True))
    formats = draw(st.lists(st.sampled_from(_FORMATS), min_size=1,
                            max_size=3, unique=True))
    records, results = [], []
    for i in range(draw(st.integers(0, 24))):
        task, fmt = draw(st.sampled_from(tasks)), draw(st.sampled_from(formats))
        sample_id = f"s{i:02d}"
        valid = draw(st.integers(0, 4)) > 0
        if task is Task.VSU:
            result = TaskResult(sample_id, task, valid=valid,
                                correct=draw(st.booleans()))
        elif task is Task.SMG:
            result = TaskResult(sample_id, task, valid=valid,
                                technical=draw(st.integers(0, 5)))
        else:
            result = TaskResult(sample_id, task, valid=valid,
                                hybrid=draw(st.fractions(0, 1,
                                                         max_denominator=97)))
        records.append(SampleRecord(sample_id, task, fmt, Path("p")))
        results.append(result)
    weights = draw(st.sampled_from((
        CapabilityWeights(),
        CapabilityWeights(Fraction(1, 10), Fraction(2, 10), Fraction(3, 10),
                          Fraction(4, 10)),
        CapabilityWeights(Fraction(0), Fraction(1, 3), Fraction(0),
                          Fraction(2, 3)))))
    return Report(EvalConfig(task_weights=weights), tuple(records),
                  tuple(results))


@settings(max_examples=300, deadline=None)
@given(report=_reports())
def test_aggregates_match_the_oracle(report):
    means, capability, aggregates = _oracle_aggregates(report)
    data = report.to_json_dict()
    assert {key: data[key] for key in aggregates} == aggregates
    assert report.task_means() == means
    assert report.capability() == capability


@pytest.mark.parametrize("tuning,message", [
    ("standard", "tuning must be a list of 6 integers"),
    ([64, 59, 55], "tuning must be a list of 6 integers"),
    ([64, 59, 55, 50, 45, 40.0], "tuning must be a list of 6 integers"),
    ([64, 59, 55, 50, 45, True], "tuning must be a list of 6 integers"),
    ([64, 59, 55, 50, 45, 140], "MIDI pitch 140 outside 0..127"),
    ([64, 59, 55, 50, 45, 50],
     "string pitches must strictly decrease from string 1 to 6"),
], ids=["string", "short", "float", "bool", "range", "order"])
def test_cli_and_manifest_reject_the_same_tunings(tmp_path, monkeypatch,
                                                   capsys, tuning, message):
    row = {"id": "x", "task": "smg", "format": "tab", "pred_path": "p",
           "declared_key": "C", "declared_meter": "4/4", "tuning": tuning}
    with pytest.raises(SchemaError) as err:
        load_manifest(_manifest(tmp_path, [row]))
    assert str(err.value) == f"manifest line 1: {message}"

    config = _write(tmp_path / "cfg.json", json.dumps({"tuning": tuning}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", str(config))
    pred = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", str(pred)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_rows_end_at_newline_only(tmp_path):
    _write(tmp_path / "p.txt", "b")
    row = {"id": "x", "task": "vsu", "format": "staff", "pred_path": "p.txt",
           "answer": "b\u2028line two\u0085"}
    text = json.dumps(row, ensure_ascii=False)
    assert "\u2028" in text
    manifest = _write(tmp_path / "m.jsonl", text + "\r\n\n")
    (record,) = load_manifest(manifest)
    assert record.answer == "b\u2028line two\u0085"


def test_run_batch_projects_each_ground_truth_file_once(tmp_path, monkeypatch):
    second = dict(SCALE_GT, id="cnc-2")
    _write(tmp_path / "gt1.json", json.dumps(SCALE_GT))
    _write(tmp_path / "gt2.json", json.dumps(second))
    rows = []
    for i in range(6):
        _write(tmp_path / f"p{i}.abc", SCALE_ABC)
        rows.append({"id": f"s{i}", "task": ("cnc", "ast")[i % 2],
                     "format": "staff", "pred_path": f"p{i}.abc",
                     "gt_path": f"gt{1 + i % 3 // 2}.json"})
    records = load_manifest(_manifest(tmp_path, rows))
    projected = []
    original = tasks.project_ground_truth

    def counted(gt):
        projected.append(gt.id)
        return original(gt)

    monkeypatch.setattr(tasks, "project_ground_truth", counted)
    report = run_batch(records, EvalConfig())
    assert sorted(projected) == ["cnc-1", "cnc-2"]
    assert all(result.hybrid == 1 for result in report.results)


def test_a_report_is_aggregated_once(tmp_path, monkeypatch):
    report = run_batch(load_manifest(_full_fixture(tmp_path)), EvalConfig())
    normalized = []
    original = TaskResult.normalized

    def counted(self):
        normalized.append(self.sample_id)
        return original(self)

    monkeypatch.setattr(TaskResult, "normalized", counted)
    write_report(report, tmp_path / "r.json", tmp_path / "r.csv")
    # One call per sample aggregates, and one more writes its entry.
    assert sorted(normalized) == sorted(2 * [r.sample_id
                                             for r in report.results])
    normalized.clear()
    report.capability()
    report.task_means()
    assert normalized == []


# JSON values as json.loads returns them, with strings of any code point,
# lone surrogates included.
_ANY_TEXT = st.text(st.characters(exclude_categories=()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT
    | st.sampled_from([10 ** 40, -(2 ** 100)]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"b": [-0.0, 5e-324, 1e16, float("nan"), float("inf"),
                      float("-inf")], "a": [{}, [], "", {"": None}]})
@example(value=["\u00e9\u4e2d\U0001f3b5", "\x00\x1f\x7f\t\n\"\\",
                "\ud800", "\udfff\ud83c", "\u2028\u0085"])
@example(value=[True, False, 0, -1, 2 ** 64, 1.5, -2.5e-300])
def test_json_text_is_json_dumps_with_sorted_keys_and_indent(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)
