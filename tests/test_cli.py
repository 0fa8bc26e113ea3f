import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from notegrade.cli import _ENV_KEYS, build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]

SCALE_ABC = "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|G A B c|]\n"

SCALE_TAB = ("e|----0-1-|3-5-7-8-|\n"
             "B|1-3-----|--------|\n"
             "G|--------|--------|\n"
             "D|--------|--------|\n"
             "A|--------|--------|\n"
             "E|--------|--------|\n")

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


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("NOTEGRADE_CONFIG", raising=False)


def _out_json(capsys):
    return json.loads(capsys.readouterr().out)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_score_vsu(tmp_path, capsys):
    gt = _write(tmp_path / "answer.txt", "b")
    pred = _write(tmp_path / "sample-7.txt", "The answer is (B).")
    assert main(["score", "--task", "vsu", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 0
    doc = _out_json(capsys)
    assert doc["correct"] is True
    assert doc["sample_id"] == "sample-7"
    assert doc["normalized"] == 1.0


def test_score_cnc(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 0
    doc = _out_json(capsys)
    assert doc["hybrid"] == 1.0
    assert doc["sample_id"] == "cnc-1"
    assert doc["acc_pitch"]["value"] == 1.0


def test_score_cnc_weights_flag(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    noisy = SCALE_ABC.replace("B c|]", "B B|]")
    pred = _write(tmp_path / "pred.abc", noisy)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred, "--weights", "1,0,0"]) == 0
    assert _out_json(capsys)["hybrid"] == 0.875


def test_score_smg(tmp_path, capsys):
    gt = _write(tmp_path / "decl.json",
                json.dumps({"key": "C", "meter": "4/4"}))
    pred = _write(tmp_path / "gen-3.abc", SCALE_ABC)
    assert main(["score", "--task", "smg", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 0
    doc = _out_json(capsys)
    assert doc["technical"] == 5
    assert doc["sample_id"] == "gen-3"


def test_score_ast(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.abc",
                  SCALE_ABC.replace("X:1\n", ""))
    assert main(["score", "--task", "ast", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 0
    doc = _out_json(capsys)
    assert doc["fmt_legal"] is False
    assert doc["acc_pitch"]["value"] == 1.0


# One sample of each task: (format, ground-truth file, its text,
# prediction file, its text, manifest fields). The prediction's stem is
# the id that `score` gives a vsu or smg sample, and the ground truth's id
# the one it gives cnc and ast.
_ONE_OF_EACH = {
    "vsu": ("staff", "answer.txt", "b", "vsu-1.txt", "It is (B).",
            {"answer": "b"}),
    "cnc": ("staff", "cnc.json", json.dumps(SCALE_GT), "cnc-1.abc",
            SCALE_ABC.replace("B c|]", "B B"), {"gt_path": "cnc.json"}),
    "ast": ("jianpu", "ast.json", json.dumps(dict(SCALE_GT, id="ast-1")),
            "ast-1.txt", "1=D 4/4\n1 2 3 4 | 5 6 7 |\n",
            {"gt_path": "ast.json"}),
    "smg": ("tab", "decl.json", json.dumps({"key": "G", "meter": "3/4"}),
            "smg-1.tab", "e|--|\nB|--|\nG|--|\nD|--|\nA|--|\nE|0-|\n",
            {"declared_key": "G", "declared_meter": "3/4"}),
}


@pytest.mark.parametrize("task", sorted(_ONE_OF_EACH))
def test_score_prints_the_batch_entry_of_the_same_sample(tmp_path, capsys,
                                                         task):
    fmt, gt_name, gt_text, pred_name, pred_text, fields = _ONE_OF_EACH[task]
    gt = _write(tmp_path / gt_name, gt_text)
    pred = _write(tmp_path / pred_name, pred_text)
    assert main(["score", "--task", task, "--format", fmt,
                 "--gt", gt, "--pred", pred]) == 0
    scored = _out_json(capsys)
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": Path(pred_name).stem, "task": task, "format": fmt,
         "pred_path": pred_name, **fields}) + "\n")
    out = tmp_path / "report.json"
    assert main(["batch", "--manifest", manifest, "--out", str(out)]) == 0
    capsys.readouterr()
    [entry] = json.loads(out.read_text(encoding="utf-8"))["per_sample"]
    for key in ("format", "aesthetic", "fingering"):
        del entry[key]
    assert scored == entry


def test_score_missing_prediction_is_usage_error(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    code = main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", str(tmp_path / "absent.abc")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_score_corrupt_ground_truth_is_benchmark_error(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", "{broken")
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    code = main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("task, fmt", [("vsu", "staff"), ("smg", "staff")])
def test_score_undecodable_answer_or_declaration_is_benchmark_error(
        tmp_path, capsys, task, fmt):
    gt = tmp_path / "gt.txt"
    gt.write_bytes(b'{"key": "C", "meter": "4/4"}\xff' if task == "smg"
                   else b"b\xff")
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", task, "--format", fmt,
                 "--gt", str(gt), "--pred", pred]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {gt}")


def test_score_empty_vsu_answer_is_benchmark_error(tmp_path, capsys):
    # As in a manifest row, where "answer": "" exits 2.
    gt = _write(tmp_path / "answer.txt", "")
    pred = _write(tmp_path / "pred.txt", "The answer is (B).")
    assert main(["score", "--task", "vsu", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 2
    assert "empty" in capsys.readouterr().err


def test_score_bad_grid_flag(tmp_path, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred, "--grid", "0"]) == 1
    capsys.readouterr()


# Fraction() alone takes any Unicode digit and "_" between digits.
@pytest.mark.parametrize("flag, value", [
    ("--grid", "\u0661/\u0664"), ("--grid", "1/1_6"),
    ("--weights", "\u0660.\u0665,0.3,0.2"), ("--weights", "0.5,0.3,0.2_0"),
])
def test_score_number_flags_take_ascii_only(tmp_path, capsys, flag, value):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred, flag, value]) == 1
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.2_5,0.25,0.25,0.25",
                                   "\u0661,0,0,0"])
def test_batch_lambda_flag_takes_ascii_only(tmp_path, capsys, value):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    assert main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / "r.json"), "--lambda", value]) == 1
    assert "malformed task weights" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid", "\u0661/\u0664"), ("weights", "\u0660.\u0665,0.3,0.2"),
    ("lambda", "0.2_5,0.25,0.25,0.25"),
])
def test_config_file_numbers_take_ascii_only(tmp_path, monkeypatch, capsys,
                                             key, value):
    cfg = _write(tmp_path / "cfg.json", json.dumps({key: value}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 1
    assert "malformed" in capsys.readouterr().err


def test_score_tab_without_pitch_and_format_weights_exits_one(tmp_path,
                                                               capsys):
    """Tab has no duration stream, so its duration weight must go to the
    pitch and format weights; when both are 0 there is nowhere to put it."""
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    pred = _write(tmp_path / "pred.tab", SCALE_TAB)
    assert main(["score", "--task", "ast", "--format", "tab", "--gt", gt,
                 "--pred", pred, "--weights", "0,1,0"]) == 1
    assert capsys.readouterr().err == (
        "error: cannot drop duration weight when pitch and format weights "
        "are 0\n")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["score", "--task", "tuning-fork"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_batch(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("b", encoding="utf-8")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    code = main(["batch", "--manifest", manifest, "--out", str(out),
                 "--csv", str(csv_out), "--workers", "2"])
    assert code == 0
    summary = capsys.readouterr().out
    assert "scored 1 samples" in summary
    assert "capability 0.2500" in summary
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["capability"] == 0.25
    assert csv_out.exists()


def test_batch_survives_an_overlong_digit_run(tmp_path, capsys):
    tab = "".join(f"{label}{body}-|\n" for label, body in zip(
        ("e|", "B|", "G|", "D|", "A|", "E|"),
        ["9" * 5000] + ["-" * 5000] * 5))
    _write(tmp_path / "huge.tab", tab)
    _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    _write(tmp_path / "pred.txt", "b")
    samples = [
        {"id": "a1", "task": "ast", "format": "tab",
         "pred_path": "huge.tab", "gt_path": "gt.json"},
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"},
    ]
    manifest = _write(tmp_path / "m.jsonl",
                      "".join(json.dumps(row) + "\n" for row in samples))
    out = tmp_path / "report.json"
    assert main(["batch", "--manifest", manifest, "--out", str(out)]) == 0
    rows = {row["sample_id"]: row for row in
            json.loads(out.read_text(encoding="utf-8"))["per_sample"]}
    assert rows["a1"]["hybrid"] == 0.0
    assert rows["a1"]["diagnostics"][0].startswith("tab.fret_range")
    assert rows["v1"]["correct"] is True
    capsys.readouterr()


@pytest.mark.parametrize("workers", ["4", 0, True])
def test_batch_bad_workers_in_config_file(tmp_path, monkeypatch, capsys,
                                          workers):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    cfg = _write(tmp_path / "cfg.json", json.dumps({"workers": workers}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    assert main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "workers must be an integer >= 1" in capsys.readouterr().err


def test_batch_lambda_flag(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("b", encoding="utf-8")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    out = tmp_path / "report.json"
    code = main(["batch", "--manifest", manifest, "--out", str(out),
                 "--lambda", "1,0,0,0"])
    assert code == 0
    assert "capability 1.0000" in capsys.readouterr().out


def test_batch_missing_manifest_is_benchmark_error(tmp_path, capsys):
    code = main(["batch", "--manifest", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    capsys.readouterr()


def test_batch_bad_external_scores(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    pred.write_text("b", encoding="utf-8")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    ext = _write(tmp_path / "ext.json", '{"v1": {"aesthetic": 9}}')
    code = main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / "r.json"),
                 "--external-scores", ext])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("out, csv_out", [
    ("missing/r.json", None),
    ("r.json", "missing/r.csv"),
])
def test_batch_unwritable_output_leaves_no_report(tmp_path, capsys, out,
                                                  csv_out):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    argv = ["batch", "--manifest", manifest, "--out", str(tmp_path / out)]
    if csv_out is not None:
        argv += ["--csv", str(tmp_path / csv_out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "m.jsonl", "pred.txt"]


@pytest.mark.parametrize("out, csv_out", [
    ("r.json", "out.csv"),
    ("out.csv", "r.csv"),
], ids=["csv", "json"])
def test_batch_report_onto_a_directory_writes_nothing(tmp_path, monkeypatch,
                                                      capsys, out, csv_out):
    """A target that is a directory is refused before either report is
    written, so the other one is not left in place."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "pred.txt", "b")
    _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    (tmp_path / "out.csv").mkdir()
    assert main(["batch", "--manifest", "m.jsonl", "--out", out,
                 "--csv", csv_out]) == 1
    assert capsys.readouterr().err == (
        "error: cannot write out.csv: it is a directory\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "m.jsonl", "out.csv", "pred.txt"]
    assert not any((tmp_path / "out.csv").iterdir())


def test_batch_names_the_corrupt_ground_truth(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "pred.abc", SCALE_ABC)
    _write(tmp_path / "good.json", json.dumps(SCALE_GT))
    _write(tmp_path / "bad.json", '{"x": 1')
    _write(tmp_path / "m.jsonl", "".join(json.dumps(row) + "\n" for row in [
        {"id": f"c{n}", "task": "cnc", "format": "staff",
         "pred_path": "pred.abc", "gt_path": gt}
        for n, gt in enumerate(("good.json", "bad.json"))]))
    assert main(["batch", "--manifest", "m.jsonl", "--out", "r.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad.json: ground truth is not valid JSON")
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("out, csv_out", [
    ("r.csv.tmp", "r.csv"),
    ("r.json", "r.json.tmp"),
])
def test_batch_report_named_as_the_other_reports_temp_file(tmp_path, capsys,
                                                          out, csv_out):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    assert main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / out),
                 "--csv", str(tmp_path / csv_out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {tmp_path / out}\n")
    assert json.loads((tmp_path / out).read_text("utf-8"))["capability"] \
        == 0.25
    assert (tmp_path / csv_out).read_bytes().startswith(
        b"task,format,count,invalid_count,mean\r\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["m.jsonl", "pred.txt", out, csv_out])
    # The reports get the mode of any file this process creates.
    probe = tmp_path / "probe"
    probe.write_text("", encoding="utf-8")
    for name in (out, csv_out):
        assert (tmp_path / name).stat().st_mode == probe.stat().st_mode


def test_batch_leaves_a_file_named_as_a_temp_file_alone(tmp_path, capsys):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    _write(tmp_path / "r.json.tmp", "someone else's")
    assert main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    assert (tmp_path / "r.json.tmp").read_text("utf-8") == "someone else's"
    assert json.loads((tmp_path / "r.json").read_text("utf-8"))["capability"] \
        == 0.25
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "m.jsonl", "pred.txt", "r.json", "r.json.tmp"]


@pytest.mark.parametrize("csv_out", ["r.json", "sub/../r.json"])
def test_batch_csv_naming_the_report_is_refused(tmp_path, capsys, csv_out):
    _write(tmp_path / "pred.txt", "b")
    manifest = _write(tmp_path / "m.jsonl", json.dumps(
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"}) + "\n")
    assert main(["batch", "--manifest", manifest,
                 "--out", str(tmp_path / "r.json"),
                 "--csv", str(tmp_path / csv_out)]) == 1
    assert capsys.readouterr().err == (
        "error: --csv must name a different file from --out\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "m.jsonl", "pred.txt"]


def test_validate_legal(tmp_path, capsys):
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", path]) == 0
    doc = _out_json(capsys)
    assert doc["legal"] is True
    assert doc["violations"] == []


def test_validate_illegal_still_exits_zero(tmp_path, capsys):
    path = _write(tmp_path / "tune.abc", SCALE_ABC.replace("X:1\n", ""))
    assert main(["validate", "--format", "staff", "--input", path]) == 0
    doc = _out_json(capsys)
    assert doc["legal"] is False
    assert any(v["rule_id"] == "abc.header_x" for v in doc["violations"])


def test_project_staff(tmp_path, capsys):
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["project", "--format", "staff", "--input", path]) == 0
    doc = _out_json(capsys)
    assert doc["pitch_tokens"][0] == [60]
    assert doc["durations"][0] == "1/1"
    assert doc["key"] == "C"
    assert doc["meter"] == "4/4"


def test_project_ground_truth(tmp_path, capsys):
    path = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    assert main(["project", "--format", "gt", "--input", path]) == 0
    doc = _out_json(capsys)
    assert doc["pitch_tokens"] == [[m] for m in
                                   [60, 62, 64, 65, 67, 69, 71, 72]]


def test_project_jianpu_key_override(tmp_path, capsys):
    path = _write(tmp_path / "tune.jp", "1=C 4/4\n1 2 3 4 | 5 6 7 1' |\n")
    assert main(["project", "--format", "jianpu", "--input", path,
                 "--key", "D"]) == 0
    doc = _out_json(capsys)
    assert doc["pitch_tokens"][0] == [62]
    assert doc["key"] == "D"


def test_project_key_flag_rejected_for_staff(tmp_path, capsys):
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["project", "--format", "staff", "--input", path,
                 "--key", "D"]) == 1
    capsys.readouterr()


def test_project_unparseable_input(tmp_path, capsys):
    path = _write(tmp_path / "tune.abc", "not a tune")
    assert main(["project", "--format", "staff", "--input", path]) == 1
    assert capsys.readouterr().err == (
        "error: tune body may not begin before the K: field (line 1, col 1)\n")


def test_env_config_weights(tmp_path, monkeypatch, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    noisy = SCALE_ABC.replace("B c|]", "B B|]")
    pred = _write(tmp_path / "pred.abc", noisy)
    cfg = _write(tmp_path / "cfg.json", json.dumps({"weights": "1,0,0"}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred]) == 0
    assert _out_json(capsys)["hybrid"] == 0.875


def test_env_config_flag_overrides_env(tmp_path, monkeypatch, capsys):
    gt = _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    noisy = SCALE_ABC.replace("B c|]", "B B|]")
    pred = _write(tmp_path / "pred.abc", noisy)
    cfg = _write(tmp_path / "cfg.json", json.dumps({"weights": "1,0,0"}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    assert main(["score", "--task", "cnc", "--format", "staff",
                 "--gt", gt, "--pred", pred, "--weights", "0,0,1"]) == 0
    assert _out_json(capsys)["hybrid"] == 1.0


def test_env_config_tuning(tmp_path, monkeypatch, capsys):
    drop_d = "e|--|\nB|--|\nG|--|\nD|--|\nA|--|\nE|0-|\n"
    path = _write(tmp_path / "riff.tab", drop_d)
    cfg = _write(tmp_path / "cfg.json",
                 json.dumps({"tuning": [64, 59, 55, 50, 45, 38]}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    assert main(["project", "--format", "tab", "--input", path]) == 0
    assert _out_json(capsys)["pitch_tokens"] == [[38]]


def test_env_config_unknown_key(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "cfg.json", json.dumps({"volume": 11}))
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", path]) == 1
    assert "volume" in capsys.readouterr().err


def test_env_config_unreadable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NOTEGRADE_CONFIG", str(tmp_path / "absent.json"))
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", path]) == 1
    capsys.readouterr()


def test_env_config_undecodable(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    monkeypatch.setenv("NOTEGRADE_CONFIG", str(cfg))
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read NOTEGRADE_CONFIG file")
    assert "Traceback" not in err


def test_overlong_integer_in_config_file_is_a_config_error(
        tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path / "cfg.json", '{"workers": ' + "7" * 5000 + "}")
    monkeypatch.setenv("NOTEGRADE_CONFIG", cfg)
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    assert main(["validate", "--format", "staff", "--input", path]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_overlong_integer_in_smg_declaration_is_benchmark_error(
        tmp_path, capsys):
    decl = _write(tmp_path / "decl.json",
                  '{"key": "C", "meter": "4/4", "n": ' + "7" * 5000 + "}")
    pred = _write(tmp_path / "pred.abc", SCALE_ABC)
    assert main(["score", "--task", "smg", "--format", "staff",
                 "--gt", decl, "--pred", pred]) == 2
    assert "not valid JSON" in capsys.readouterr().err


_DEEP = "[" * 100_000 + "]" * 100_000
_BATCH = ["batch", "--manifest", "m.jsonl", "--out", "r.json"]
_SCORE = ["score", "--format", "staff", "--pred", "pred.abc", "--gt"]


@pytest.mark.parametrize("deep, argv, code", [
    ("m.jsonl", _BATCH, 2),
    ("gt.json", _BATCH, 2),
    ("ext.json", _BATCH + ["--external-scores", "ext.json"], 2),
    ("gt.json", _SCORE + ["gt.json", "--task", "cnc"], 2),
    ("decl.json", _SCORE + ["decl.json", "--task", "smg"], 2),
    ("cfg.json", ["validate", "--format", "staff", "--input", "pred.abc"], 1),
], ids=["manifest", "ground_truth", "external_scores", "score_gt",
        "smg_declaration", "config"])
def test_deeply_nested_json_is_one_error_line(tmp_path, monkeypatch, capsys,
                                              deep, argv, code):
    """Nesting past the interpreter's recursion limit is corrupt input
    from the benchmark side, not a crash."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "pred.txt", "b")
    _write(tmp_path / "pred.abc", SCALE_ABC)
    _write(tmp_path / "gt.json", json.dumps(SCALE_GT))
    _write(tmp_path / "decl.json", '{"key": "C", "meter": "4/4"}')
    _write(tmp_path / "ext.json", "{}")
    _write(tmp_path / "cfg.json", "{}")
    _write(tmp_path / "m.jsonl", "".join(json.dumps(row) + "\n" for row in [
        {"id": "v1", "task": "vsu", "format": "staff",
         "pred_path": "pred.txt", "answer": "b"},
        {"id": "c1", "task": "cnc", "format": "staff",
         "pred_path": "pred.abc", "gt_path": "gt.json"}]))
    _write(tmp_path / deep, _DEEP + "\n")
    monkeypatch.setenv("NOTEGRADE_CONFIG", "cfg.json")
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not valid JSON: maximum recursion depth exceeded" in err
    assert not (tmp_path / "r.json").exists()


def _install_copy(tmp_path):
    """Install a copy of this checkout under a temporary prefix, offline.

    Returns the prefix's scripts and purelib directories. The copy keeps
    ``build/`` and ``*.egg-info`` out of the working tree.
    """
    pytest.importorskip("setuptools")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(REPO_ROOT / name, pkg)
    shutil.copytree(REPO_ROOT / "src", pkg / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    prefix = str(tmp_path / "prefix")
    scripts, purelib = (
        sysconfig.get_path(name, vars={"base": prefix, "platbase": prefix})
        for name in ("scripts", "purelib"))
    # setuptools >= 70.1 ships bdist_wheel; older versions need `wheel`.
    if any(importlib.util.find_spec(name) for name in (
            "setuptools.command.bdist_wheel", "wheel")):
        # --ignore-installed: never uninstall a notegrade that is already
        # installed elsewhere, such as an editable install of this checkout.
        cmd = [sys.executable, "-m", "pip", "install", "--ignore-installed",
               "--no-deps", "--no-build-isolation", "--no-index",
               "--disable-pip-version-check", "--no-warn-script-location",
               "--prefix", prefix, str(pkg)]
    else:
        # pip cannot build without bdist_wheel. setuptools' own install
        # command reads the same [project.scripts] table, as pip once did.
        cmd = [sys.executable, "-c", "from setuptools import setup; setup()",
               "install", "--single-version-externally-managed",
               "--record", str(tmp_path / "record.txt"), "--prefix", prefix,
               "--install-lib", purelib, "--install-scripts", scripts]
    # Without PYTHONPATH the build sees only the copy, not src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=pkg, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return scripts, purelib


def test_console_script_installed(tmp_path):
    path = _write(tmp_path / "tune.abc", SCALE_ABC)
    scripts, purelib = _install_copy(tmp_path)
    script = shutil.which("notegrade", path=scripts)
    assert script is not None
    # PYTHONPATH is the prefix alone, so the installed copy runs, not src/.
    env = dict(os.environ, PYTHONPATH=purelib)
    for cmd, run_env in (([script], env),
                         ([sys.executable, "-m", "notegrade.cli"], None)):
        proc = subprocess.run(
            cmd + ["validate", "--format", "staff", "--input", path],
            env=run_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["legal"] is True


def test_installed_copy_reads_its_version_from_metadata(tmp_path):
    # Without the metadata the install wrote, the version reads 0+unknown.
    _, purelib = _install_copy(tmp_path)
    version = re.search(r'^version = "([^"]+)"$',
                        (REPO_ROOT / "pyproject.toml").read_text(),
                        re.MULTILINE).group(1)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import notegrade; print(notegrade.__file__, notegrade.__version__)"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=purelib),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    path, printed = proc.stdout.split()
    assert Path(path).is_relative_to(purelib)
    assert printed == version


# One legal prediction in each format, and one with a flaw in its last
# line, each over several lines that end in "\n".
_LINE_END_PREDICTIONS = {
    "staff": ("X:1\nM:4/4\nL:1/4\nK:C\nC D E F|\nG A B c|]\n",
              "X:1\nM:4/4\nL:1/4\nK:C\nC D E F|\nG A B c$|]\n"),
    "jianpu": ("1=C 4/4\n1 2 3 4 |\n5 6 7 1' |\n",
               "1=C 4/4\n1 2 3 4 |\n5 6 9 1' |\n"),
    "tab": (SCALE_TAB, SCALE_TAB.replace("E|--------|--------|",
                                         "E|--------|-----|")),
}


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("fmt", sorted(_LINE_END_PREDICTIONS))
def test_predictions_score_alike_whatever_their_line_ends(tmp_path, capsys,
                                                          fmt, end):
    _write(tmp_path / "gt.json", json.dumps(dict(SCALE_GT, format=fmt)))
    verdicts, rows = {}, []
    for n, text in enumerate(_LINE_END_PREDICTIONS[fmt]):
        for ending in ("\n", end):
            name = f"{n}-{ending.encode().hex()}"
            (tmp_path / name).write_bytes(text.replace("\n", ending).encode())
            assert main(["validate", "--format", fmt,
                         "--input", str(tmp_path / name)]) == 0
            verdicts[name] = _out_json(capsys)
            rows.append({"id": name, "task": "ast", "format": fmt,
                         "pred_path": name, "gt_path": "gt.json"})
    manifest = _write(tmp_path / "m.jsonl",
                      "".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "report.json"
    assert main(["batch", "--manifest", manifest, "--out", str(out)]) == 0
    capsys.readouterr()
    entries = {entry.pop("sample_id"): entry for entry in
               json.loads(out.read_text(encoding="utf-8"))["per_sample"]}
    lf, other = "0a", end.encode().hex()
    for n in range(2):
        assert verdicts[f"{n}-{other}"] == verdicts[f"{n}-{lf}"]
        assert entries[f"{n}-{other}"] == entries[f"{n}-{lf}"]
    assert [verdicts[f"{n}-{lf}"]["legal"] for n in range(2)] == [True, False]
    assert entries[f"1-{lf}"]["diagnostics"]


def _readme_section(title: str) -> str:
    """The text of README's ``## title`` section."""
    text = (REPO_ROOT / "README.md").read_text("utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_every_option_setting_and_report_key():
    """README "Configuration" names every long option of every command and
    every key of the ``NOTEGRADE_CONFIG`` file; "Reports" names every
    top-level key of a batch report."""
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    options = {option for command in commands.values()
               for action in command._actions
               for option in action.option_strings if option[:2] == "--"}
    assert {"--manifest", "--external-scores", "--key"} <= options
    config = _readme_section("Configuration")
    assert [option for option in sorted(options) if not re.search(
        rf"(?<![\w-]){option}(?![\w-])", config)] == []
    assert [key for key in sorted(_ENV_KEYS)
            if not re.search(f"[`\"]{key}[`\"]", config)] == []
    report = json.loads(
        (REPO_ROOT / "tests" / "data" / "golden" / "expected_report.json")
        .read_text("utf-8"))
    reports = _readme_section("Reports")
    assert [key for key in sorted(report) if f"`{key}`" not in reports] == []
