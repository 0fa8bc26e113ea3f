"""Batch evaluation: manifest loading, scoring, report emission.

Reports are canonical: keys sorted, exact values rendered the same way
every run, samples ordered by id. Samples are scored one at a time:
``workers`` is still checked, but changes neither speed nor output.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from .errors import (ConfigError, ParseError, PitchError, SchemaError,
                     json_object, read_input)
from .metrics import MetricWeights, require_exact
from .parsers import load_ground_truth
from .pitch import STANDARD_TUNING, KeySignature, Tuning
from .projection import DEFAULT_GRID, beats_text
from .score import GroundTruth, NotationFormat, TimeSignature
from .tasks import (
    CapabilityWeights,
    Task,
    TaskResult,
    aggregate_capability,
    score_ast,
    score_cnc,
    score_smg,
    score_vsu,
)

REPORT_SCHEMA_VERSION = 1

_RECORD_KEYS = {"id", "task", "format", "pred_path", "gt_path", "answer",
                "declared_key", "declared_meter", "tuning"}


@dataclass(frozen=True)
class EvalConfig:
    weights: MetricWeights = MetricWeights()
    task_weights: CapabilityWeights = CapabilityWeights()
    grid: Fraction = DEFAULT_GRID
    tuning: Tuning = STANDARD_TUNING
    cnc_lenient: bool = False
    ast_length_cap: int | None = None

    def __post_init__(self) -> None:
        require_exact("grid", self.grid)
        if self.grid <= 0:
            raise ConfigError(f"grid must be positive, got {self.grid}")
        if not isinstance(self.cnc_lenient, bool):
            raise ConfigError("cnc_lenient must be a boolean")
        cap = self.ast_length_cap
        if cap is not None:
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise ConfigError("ast_length_cap must be an integer")
            if cap < 1:
                raise ConfigError(f"ast_length_cap must be >= 1, got {cap}")

    def to_json_dict(self) -> dict:
        return {
            "weights": self.weights.to_json_dict(),
            "task_weights": self.task_weights.to_json_dict(),
            "grid": beats_text(self.grid),
            "tuning": list(self.tuning.base),
            "cnc_lenient": self.cnc_lenient,
            "ast_length_cap": self.ast_length_cap,
        }


@dataclass(frozen=True)
class SampleRecord:
    id: str
    task: Task
    format: NotationFormat
    pred_path: Path
    gt_path: Path | None = None
    answer: str | None = None
    declared_key: KeySignature | None = None
    declared_meter: TimeSignature | None = None
    tuning: Tuning | None = None


def _require_str(obj: dict, key: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaError(
            f"manifest line {line}: {key!r} must be a non-empty string")
    return value


def _record(raw: str, line: int, base_dir: Path) -> SampleRecord:
    obj = json_object(raw, f"manifest line {line}", SchemaError, decode=True,
                      known=_RECORD_KEYS)
    sample_id = _require_str(obj, "id", line)
    try:
        task = Task.parse(_require_str(obj, "task", line))
        fmt = NotationFormat.parse(_require_str(obj, "format", line))
    except (ConfigError, ParseError) as exc:
        raise SchemaError(f"manifest line {line}: {exc}") from None
    pred_path = base_dir / _require_str(obj, "pred_path", line)

    gt_path = None
    if task in (Task.CNC, Task.AST):
        gt_path = base_dir / _require_str(obj, "gt_path", line)
    elif "gt_path" in obj:
        raise SchemaError(
            f"manifest line {line}: gt_path only applies to cnc and ast")

    answer = None
    if task is Task.VSU:
        answer = _require_str(obj, "answer", line)
    elif "answer" in obj:
        raise SchemaError(f"manifest line {line}: answer only applies to vsu")

    declared_key = declared_meter = None
    if task is Task.SMG:
        try:
            declared_key = KeySignature.parse(
                _require_str(obj, "declared_key", line))
            declared_meter = TimeSignature.parse(
                _require_str(obj, "declared_meter", line))
        except ParseError as exc:
            raise SchemaError(f"manifest line {line}: {exc}") from None
    elif "declared_key" in obj or "declared_meter" in obj:
        raise SchemaError(
            f"manifest line {line}: declared_key/declared_meter only apply to smg")

    tuning = None
    if "tuning" in obj:
        if fmt is not NotationFormat.ASCII_TAB:
            raise SchemaError(
                f"manifest line {line}: tuning only applies to tab samples")
        try:
            tuning = Tuning.from_json(obj["tuning"])
        except PitchError as exc:
            raise SchemaError(f"manifest line {line}: {exc}") from None

    return SampleRecord(
        id=sample_id, task=task, format=fmt, pred_path=pred_path,
        gt_path=gt_path, answer=answer, declared_key=declared_key,
        declared_meter=declared_meter, tuning=tuning)


def load_manifest(path: str | Path) -> tuple[SampleRecord, ...]:
    """Read a JSONL manifest; any structural problem is a SchemaError."""
    path = Path(path)
    text = read_input(path, f"manifest {path}", SchemaError)
    base_dir = path.parent
    records = []
    seen: set[str] = set()
    # JSON Lines rows end at "\n" only: str.splitlines would also split
    # inside a string at a raw U+2028 or other Unicode line break.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        record = _record(raw, line_no, base_dir)
        if record.id in seen:
            raise SchemaError(
                f"manifest line {line_no}: duplicate sample id {record.id!r}")
        seen.add(record.id)
        records.append(record)
    if not records:
        raise SchemaError(f"manifest {path} contains no samples")
    return tuple(records)


def load_external_scores(path: str | Path) -> dict[str, dict[str, float]]:
    """Read judge annotations: a JSON object of id -> {aesthetic, fingering}.

    Scores live on a 1-5 scale; anything outside it is corrupt input.
    """
    what = f"external scores {path}"
    obj = json_object(read_input(path, what, SchemaError), what, SchemaError,
                      decode=True)
    out: dict[str, dict[str, float]] = {}
    for sample_id, entry in obj.items():
        entry = json_object(entry, f"external scores for {sample_id!r}",
                            SchemaError, known={"aesthetic", "fingering"})
        if not entry:
            raise SchemaError(f"external scores for {sample_id!r} are empty")
        cleaned = {}
        for name, value in entry.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not 1 <= value <= 5:
                raise SchemaError(
                    f"external {name} score for {sample_id!r} must be in [1, 5], "
                    f"got {value!r}")
            cleaned[name] = float(value)
        out[sample_id] = cleaned
    return out


def score_text(record: SampleRecord, config: EvalConfig,
               gt: GroundTruth | None, prediction: str) -> TaskResult:
    """Score one sample's prediction text: the one place a task picks its
    scorer, for ``notegrade score`` and ``score_sample`` alike."""
    tuning = record.tuning or config.tuning
    if record.task is Task.VSU:
        return score_vsu(record.id, record.answer, prediction)
    if record.task is Task.CNC:
        return score_cnc(
            record.id, gt, prediction, record.format,
            weights=config.weights, grid=config.grid, tuning=tuning,
            lenient=config.cnc_lenient)
    if record.task is Task.AST:
        return score_ast(
            record.id, gt, prediction, record.format,
            weights=config.weights, grid=config.grid, tuning=tuning,
            length_cap=config.ast_length_cap)
    return score_smg(
        record.id, prediction, record.format,
        record.declared_key, record.declared_meter, tuning=tuning)


def score_sample(record: SampleRecord, config: EvalConfig,
                 gt: GroundTruth | None) -> TaskResult:
    """Score one sample; ground truth, when needed, is loaded by the caller."""
    try:
        prediction, diagnostics = read_input(record.pred_path, model=True), ()
    except OSError as exc:
        prediction = ""
        diagnostics = (f"prediction unreadable, scored as empty: {exc}",)
    result = score_text(record, config, gt, prediction)
    if diagnostics:
        result = replace(result, diagnostics=diagnostics + result.diagnostics)
    return result


def _means(cells: dict, fmt: NotationFormat | None) -> dict[Task, Fraction]:
    """Each task's mean normalized score in one format (None: in all),
    for the tasks with a valid result there."""
    return {task: total / valid for (task, f), (_, valid, total)
            in cells.items() if f is fmt and valid}


@dataclass(frozen=True)
class Report:
    config: EvalConfig
    records: tuple[SampleRecord, ...]
    results: tuple[TaskResult, ...]
    external: dict[str, dict[str, float]] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def _cells(self) -> dict[tuple, list]:
        """Group the results in one pass. The cells (task, format) and
        (task, None), the latter for all formats, each hold the sample
        count, the valid count and the exact sum of normalized scores."""
        fmt_of = {record.id: record.format for record in self.records}
        cells: dict[tuple, list] = {}
        for result in self.results:
            value = result.normalized()
            for fmt in (fmt_of[result.sample_id], None):
                cell = cells.setdefault((result.task, fmt), [0, 0, 0])
                cell[0] += 1
                if value is not None:
                    cell[1] += 1
                    cell[2] += value
        return cells

    def task_means(self) -> dict[Task, Fraction]:
        return _means(self._cells(), None)

    def capability(self) -> Fraction:
        return aggregate_capability(self.task_means(), self.config.task_weights)

    def to_json_dict(self) -> dict:
        fmt_of = {record.id: record.format for record in self.records}
        per_sample = []
        for result in self.results:
            entry = result.to_json_dict()
            entry["format"] = fmt_of[result.sample_id].value
            scores = self.external.get(result.sample_id)
            entry["aesthetic"] = None if scores is None else scores.get("aesthetic")
            entry["fingering"] = None if scores is None else scores.get("fingering")
            per_sample.append(entry)

        cells = self._cells()
        per_task = {}
        for task in Task:
            count, valid, total = cells.get((task, None), (0, 0, 0))
            mean = total / valid if valid else None
            per_task[task.value] = {
                "count": count,
                "invalid_count": count - valid,
                "mean": None if mean is None else float(mean),
                "mean_exact": None if mean is None else
                f"{mean.numerator}/{mean.denominator}",
            }

        per_task_format = []
        for task in Task:
            for fmt in NotationFormat:
                if (task, fmt) not in cells:
                    continue
                count, valid, total = cells[task, fmt]
                per_task_format.append({
                    "task": task.value,
                    "format": fmt.value,
                    "count": count,
                    "invalid_count": count - valid,
                    "mean": float(total / valid) if valid else None,
                })

        weights = self.config.task_weights
        capability_by_format = {
            fmt.value: float(aggregate_capability(_means(cells, fmt), weights))
            for fmt in NotationFormat if any(f is fmt for _, f in cells)}
        capability = aggregate_capability(_means(cells, None), weights)
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config.to_json_dict(),
            "per_sample": per_sample,
            "per_task": per_task,
            "per_task_format": per_task_format,
            "capability": float(capability),
            "capability_exact":
                f"{capability.numerator}/{capability.denominator}",
            "capability_by_format": capability_by_format,
            "warnings": list(self.warnings),
        }


def run_batch(records: tuple[SampleRecord, ...],
              config: EvalConfig = EvalConfig(), *,
              workers: int = 1,
              external_scores: dict[str, dict[str, float]] | None = None,
              ) -> Report:
    """Score every sample and assemble a deterministic report.

    Ground truth is loaded up front so corrupt benchmark data aborts the
    run before any scoring happens.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) \
            or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    ground_truths: dict[str, GroundTruth | None] = {}
    gt_cache: dict[Path, GroundTruth] = {}
    for record in records:
        if record.gt_path is None:
            ground_truths[record.id] = None
            continue
        if record.gt_path not in gt_cache:
            gt_cache[record.gt_path] = load_ground_truth(record.gt_path)
        ground_truths[record.id] = gt_cache[record.gt_path]

    ordered = sorted(records, key=lambda r: r.id)
    results = tuple(score_sample(r, config, ground_truths[r.id])
                    for r in ordered)

    warnings = []
    present = {record.task for record in records}
    for task in Task:
        if task not in present:
            warnings.append(
                f"no {task.value} samples; task contributes 0 to capability")

    external = {}
    if external_scores:
        by_id = {record.id: record for record in records}
        for sample_id in sorted(external_scores):
            record = by_id.get(sample_id)
            if record is None:
                warnings.append(
                    f"external score for unknown sample {sample_id!r} ignored")
            elif record.task is not Task.SMG:
                warnings.append(
                    f"external score for non-smg sample {sample_id!r} ignored")
            else:
                external[sample_id] = external_scores[sample_id]

    return Report(config=config, records=tuple(ordered), results=results,
                  external=external, warnings=tuple(warnings))


def write_report(report: Report, out_path: str | Path,
                 csv_path: str | Path | None = None) -> None:
    """Serialize the report as canonical JSON, plus an optional CSV of the
    task-by-format table. Both go to temporary files before either is put
    in place, so a failed write leaves no report; it is a ConfigError."""
    data = report.to_json_dict()
    texts = {Path(out_path): json.dumps(data, sort_keys=True, indent=2) + "\n"}
    if csv_path is not None:
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["task", "format", "count", "invalid_count", "mean"])
        for row in data["per_task_format"]:
            mean = "" if row["mean"] is None else f"{row['mean']:.6f}"
            writer.writerow([row["task"], row["format"], row["count"],
                             row["invalid_count"], mean])
        texts[Path(csv_path)] = table.getvalue()
    temps = {path: path.with_name(path.name + ".tmp") for path in texts}
    try:
        for path, text in texts.items():
            temps[path].write_text(text, encoding="utf-8", newline="")
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from None
