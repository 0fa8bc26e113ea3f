"""Tests of the benchmark itself: seeded inputs, the closed forms its
checks rely on, and a small end-to-end pass over every workload.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
import workloads
from music import Piece
from notegrade import cli, harness, metrics, tasks
from notegrade.parsers import validators

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Every workload at a fraction of its size, with every kind kept."""
    monkeypatch.setattr(workloads, "PER_TASK", 42)
    monkeypatch.setattr(workloads, "LONG_SPECS", tuple(
        (task, fmt, max(20, n // 10), {k: max(1, v // 10) for k, v in e.items()})
        for task, fmt, n, e in workloads.LONG_SPECS))
    monkeypatch.setattr(workloads, "DEGENERATE_SPECS", tuple(
        (task, fmt, kind, max(3, n // 40))
        for task, fmt, kind, n in workloads.DEGENERATE_SPECS))


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, small, tmp_path):
    workloads.build(name, 7, tmp_path / "a")
    workloads.build(name, 7, tmp_path / "b")
    workloads.build(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _textbook_distance(a, b) -> int:
    """Wagner-Fischer, kept apart from notegrade.metrics."""
    table = [[i + j if not i or not j else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[-1][-1]


def _streams(events):
    piece = Piece("C", (4, 4), tuple(events))
    return piece.pitch_stream(), piece.duration_stream()


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_closed_forms_match_textbook_distance(fmt):
    rng = random.Random(fmt)
    exact_kinds = ({"subs": 2, "ins": 3}, {"subs": 3, "dels": 2},
                   {"ins": 2}, {"dels": 3}, {"copies": 3}, {"subs": 2})
    bounded_kinds = ({"copies": 2, "dels": 2}, {"ins": 1, "dels": 3},
                     {"subs": 2, "copies": 2})
    for _ in range(60):
        piece = workloads.random_piece(rng, fmt, rng.randint(10, 30))
        gt_pitch, gt_dur = _streams(piece.events)
        for counts in exact_kinds + bounded_kinds:
            events, pitch, duration = workloads.edit(rng, piece, fmt, **counts)
            pred_pitch, pred_dur = _streams(events)
            for (lo, hi), a, b in ((pitch, gt_pitch, pred_pitch),
                                   (duration, gt_dur, pred_dur)):
                distance = _textbook_distance(a, b)
                assert lo <= distance <= hi, counts
                if counts in exact_kinds:
                    assert lo == hi == distance, counts
        r = rng.randint(2, 4)
        pred_pitch, pred_dur = _streams(list(piece.events) * r)
        assert _textbook_distance(gt_pitch, pred_pitch) == (r - 1) * len(gt_pitch)
        assert _textbook_distance(gt_dur, pred_dur) == (r - 1) * len(gt_dur)


def _grade(manifest: Path, out: Path, workers: int) -> tuple[bytes, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["batch", "--manifest", str(manifest),
                         "--out", str(out / f"r{workers}.json"),
                         "--csv", str(out / f"r{workers}.csv"),
                         "--workers", str(workers)])
    assert code == 0
    return ((out / f"r{workers}.json").read_bytes(),
            (out / f"r{workers}.csv").read_bytes())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_grades_with_only_the_known_failures(name, small, tmp_path):
    workload = workloads.build(name, 3, tmp_path / "in")
    serial = _grade(workload.manifest, tmp_path, 1)
    assert _grade(workload.manifest, tmp_path, 2) == serial
    verdict = check.check_report(json.loads(serial[0]), serial[1],
                                 workload.expected)
    assert verdict.problems == []
    faults = sorted(i for i, e in workload.expected.items() if e.fault)
    assert verdict.failed == faults
    assert len(faults) == (4 if name == "mixed_short" else 0)


def test_check_catches_a_wrong_score(small, tmp_path):
    workload = workloads.build("long_align", 3, tmp_path / "in")
    report, csv_bytes = _grade(workload.manifest, tmp_path, 1)
    for field, value in (("hybrid", 0.5), ("fmt_legal", False)):
        broken = json.loads(report)
        broken["per_sample"][0][field] = value
        verdict = check.check_report(broken, csv_bytes, workload.expected)
        assert verdict.failed == [broken["per_sample"][0]["sample_id"]]
        assert verdict.problems
    broken = json.loads(report)
    broken["capability_exact"] = "1/3"
    assert check.check_report(broken, csv_bytes, workload.expected).problems


def test_tracer_restores_the_program(small, tmp_path):
    originals = [getattr(owner, attr) for owner, attr, _, _ in spans.CALL_SITES]
    workload = workloads.build("mixed_short", 3, tmp_path / "in")
    with spans.Tracer() as tracer:
        _grade(workload.manifest, tmp_path, 1)
    assert [getattr(o, a) for o, a, _, _ in spans.CALL_SITES] == originals
    names = {span[0] for span in tracer.spans}
    assert {"parsers.tab.parse", "metrics.edit_distance",
            "harness.to_json_dict"} <= names
    assert cli.run_batch is harness.run_batch
    assert tasks.parse_abc is validators.parse_abc
    assert metrics.edit_distance.__module__ == "notegrade.metrics"


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_run_prints_every_metric(trace, section, small, tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    assert run.main(["--workload", "mixed_short", "--seed", "5",
                     "--seconds", "0", "--trace", str(trace),
                     "--results", str(results)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    size = 4 * workloads.PER_TASK + 4
    assert result["failed"] * size == 4 * result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert json.loads(results.read_text())["workload"] == "mixed_short"


def test_compare_reports_bounds(tmp_path, capsys):
    def rows(scale, spread):
        for seed in range(5):
            value = scale * (1 + spread * (seed - 2))
            yield {"workload": "long_align", "seed": seed, "trace": 0,
                   "correct": True, "attempted": 8, "failed": 0,
                   "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                               for m in SPEC["end_to_end"]}}

    for name, scale, spread in (("base", 1.0, 0.001), ("same", 1.0, 0.001),
                                ("slow", 0.5, 0.001), ("noisy", 1.0, 0.3)):
        (tmp_path / name).write_text(
            "".join(json.dumps(r) + "\n" for r in rows(scale, spread)))
    outputs = {}
    for name in ("same", "slow", "noisy"):
        run.compare(str(tmp_path / "base"), str(tmp_path / name))
        outputs[name] = capsys.readouterr().out
    assert outputs["same"].count("within bound") == len(SPEC["end_to_end"])
    assert "long_align samples_per_s: " in outputs["slow"]
    assert "worse by more than the bound" in outputs["slow"]
    assert "unresolved" in outputs["noisy"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
