import json
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from notegrade import harness
from notegrade.cli import main
from notegrade.errors import ConfigError, SchemaError
from notegrade.harness import (
    EvalConfig,
    Report,
    SampleRecord,
    load_external_scores,
    load_manifest,
    run_batch,
    write_report,
)
from notegrade.score import NotationFormat
from notegrade.tasks import (
    CapabilityWeights,
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

    def spy(record, config, gt):
        calls.append((record.id, threading.get_ident()))
        return original(record, config, gt)

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
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_manifest(manifest)


def test_run_batch_deterministic_across_worker_counts(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    serial = run_batch(records, EvalConfig(), workers=1)
    parallel = run_batch(records, EvalConfig(), workers=4)
    one = json.dumps(serial.to_json_dict(), sort_keys=True)
    many = json.dumps(parallel.to_json_dict(), sort_keys=True)
    assert one == many


def test_external_scores_attach_to_smg(tmp_path):
    records = load_manifest(_full_fixture(tmp_path))
    scores = {"smg-1": {"aesthetic": 4.5, "fingering": 3.0}}
    report = run_batch(records, EvalConfig(), external_scores=scores)
    rows = {row["sample_id"]: row
            for row in report.to_json_dict()["per_sample"]}
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
    rows = {row["sample_id"]: row
            for row in report.to_json_dict()["per_sample"]}
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
    report = run_batch(records, EvalConfig())
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    write_report(report, out, csv_out)
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text) == report.to_json_dict()
    again = tmp_path / "report2.json"
    write_report(report, again)
    assert again.read_bytes() == out.read_bytes()
    lines = csv_out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "task,format,count,invalid_count,mean"
    assert "cnc,staff,1,0,1.000000" in lines


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
    assert json.loads((tmp_path / "r.json").read_text("utf-8")) == expected
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
], ids=["lenient_str", "lenient_int", "cap_bool", "cap_float", "cap_fraction"])
def test_eval_config_checks_field_types(field, value, message):
    """Python callers get the checks the config file gets: a truthy
    string would turn lenient scoring on, and a Fraction cap would crash
    write_report after the whole batch was scored."""
    with pytest.raises(ConfigError) as err:
        EvalConfig(**{field: value})
    assert str(err.value) == message


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
