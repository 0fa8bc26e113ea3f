"""Batch evaluation: manifest loading, scoring, report emission.

Reports are canonical: keys sorted, exact values rendered the same way
every run, samples ordered by id. Samples are scored one at a time:
``workers`` is still checked, but changes neither speed nor output.
"""

from __future__ import annotations

import contextlib
import os
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import NamedTuple

from .errors import (ConfigError, ParseError, PitchError, SchemaError,
                     json_object, read_input)
from .metrics import MetricWeights
from .parsers import load_ground_truth
from .pitch import STANDARD_TUNING, KeySignature, Tuning
from .projection import DEFAULT_GRID, beats_text, check_grid
from .score import GroundTruth, NotationFormat, TimeSignature
from .tasks import (
    CapabilityWeights,
    SmgRuleReport,
    Task,
    TaskResult,
    aggregate_capability,
    projected,
    score_ast,
    score_cnc,
    score_smg,
    score_vsu,
)

REPORT_SCHEMA_VERSION = 1

_RECORD_KEYS = {"id", "task", "format", "pred_path", "gt_path", "answer",
                "declared_key", "declared_meter", "tuning"}


class EvalConfig(namedtuple("EvalConfig", "weights task_weights grid tuning "
                                          "cnc_lenient ast_length_cap")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, weights: MetricWeights = MetricWeights(),
                task_weights: CapabilityWeights = CapabilityWeights(),
                grid: Fraction = DEFAULT_GRID,
                tuning: Tuning = STANDARD_TUNING, cnc_lenient: bool = False,
                ast_length_cap: int | None = None) -> "EvalConfig":
        check_grid(grid)
        if not isinstance(cnc_lenient, bool):
            raise ConfigError("cnc_lenient must be a boolean")
        cap = ast_length_cap
        if cap is not None:
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise ConfigError("ast_length_cap must be an integer")
            if cap < 1:
                raise ConfigError(f"ast_length_cap must be >= 1, got {cap}")
        return super().__new__(cls, weights, task_weights, grid, tuning,
                               cnc_lenient, cap)

    def to_json_dict(self) -> dict:
        return {
            "weights": self.weights.to_json_dict(),
            "task_weights": self.task_weights.to_json_dict(),
            "grid": beats_text(self.grid),
            "tuning": list(self.tuning.base),
            "cnc_lenient": self.cnc_lenient,
            "ast_length_cap": self.ast_length_cap,
        }


class SampleRecord(NamedTuple):
    id: str
    task: Task
    format: NotationFormat
    pred_path: str | Path
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


def _require_path(obj: dict, key: str, line: int, join) -> Path:
    """``obj[key]`` joined by ``join``; no file name holds a NUL."""
    value = _require_str(obj, key, line)
    if "\0" in value:
        raise SchemaError(
            f"manifest line {line}: {key!r} must not contain a NUL character")
    return join(value)


def _record(raw: str, line: int, join_str, join, parse_key,
            parse_meter) -> SampleRecord:
    obj = json_object(raw, f"manifest line {line}", SchemaError, decode=True,
                      known=_RECORD_KEYS)
    sample_id = _require_str(obj, "id", line)
    try:
        task = Task.parse(_require_str(obj, "task", line))
        fmt = NotationFormat.parse(_require_str(obj, "format", line))
    except (ConfigError, ParseError) as exc:
        raise SchemaError(f"manifest line {line}: {exc}") from None
    pred_path = _require_path(obj, "pred_path", line, join_str)

    gt_path = None
    if task in (Task.CNC, Task.AST):
        gt_path = _require_path(obj, "gt_path", line, join)
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
            declared_key = parse_key(_require_str(obj, "declared_key", line))
            declared_meter = parse_meter(
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

    return SampleRecord(sample_id, task, fmt, pred_path, gt_path, answer,
                        declared_key, declared_meter, tuning)


def load_manifest(path: str | Path) -> tuple[SampleRecord, ...]:
    """Read a JSONL manifest; any structural problem is a SchemaError."""
    path = Path(path)
    text = read_input(path, f"manifest {path}", SchemaError)
    # Each distinct ground-truth path is joined, and each key or meter
    # parsed, once. A prediction path is joined as a str, as pathlib would
    # write it: by pathlib where a "." or empty part or a "\\" sep is met.
    base = path.parent
    prefix = "" if base == Path() else os.path.join(base, "")

    def join_str(value: str) -> str:
        parts = value.split("/")
        if os.sep == "/" and "." not in parts and "" not in parts:
            return prefix + value
        return str(base.joinpath(value))
    memos = (join_str, cache(base.joinpath), cache(KeySignature.parse),
             cache(TimeSignature.parse))
    records = []
    seen: set[str] = set()
    # JSON Lines rows end at "\n" only: str.splitlines would also split
    # inside a string at a raw U+2028 or other Unicode line break.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        record = _record(raw, line_no, *memos)
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
               gt: GroundTruth | None, prediction: str,
               memo: dict | None = None) -> TaskResult:
    """Score one sample's prediction text: the one place a task picks its
    scorer, for ``notegrade score`` and ``score_sample`` alike."""
    tuning = record.tuning or config.tuning
    if record.task is Task.VSU:
        return score_vsu(record.id, record.answer, prediction)
    if record.task is Task.CNC:
        return score_cnc(
            record.id, gt, prediction, record.format,
            weights=config.weights, grid=config.grid, tuning=tuning,
            lenient=config.cnc_lenient, memo=memo)
    if record.task is Task.AST:
        return score_ast(
            record.id, gt, prediction, record.format,
            weights=config.weights, grid=config.grid, tuning=tuning,
            length_cap=config.ast_length_cap, memo=memo)
    return score_smg(
        record.id, prediction, record.format,
        record.declared_key, record.declared_meter, tuning=tuning, memo=memo)


def score_sample(record: SampleRecord, config: EvalConfig,
                 gt: GroundTruth | None,
                 memo: dict | None = None) -> TaskResult:
    """Score one sample; ground truth, when needed, is loaded by the caller,
    and ``memo`` is the memo of resolved text of its batch, if any."""
    try:
        prediction, diagnostics = read_input(record.pred_path, model=True), ()
    except OSError as exc:
        prediction = ""
        diagnostics = (f"prediction unreadable, scored as empty: {exc}",)
    result = score_text(record, config, gt, prediction, memo)
    if diagnostics:
        result = result._replace(diagnostics=diagnostics + result.diagnostics)
    return result


def _means(cells: dict, fmt: NotationFormat | None) -> dict[Task, Fraction]:
    """Each task's mean normalized score in one format (None: in all),
    for the tasks with a valid result there."""
    return {task: total / valid for (task, f), (_, valid, total)
            in cells.items() if f is fmt and valid}


class Report(namedtuple("Report",
                        "config records results external warnings")):
    """A scored batch. Its fields cannot be set, but it keeps an instance
    dict (no ``__slots__``), where ``_cells`` caches the aggregation."""

    def __new__(cls, config: EvalConfig, records: tuple[SampleRecord, ...],
                results: tuple[TaskResult, ...],
                external: dict[str, dict[str, float]] | None = None,
                warnings: tuple[str, ...] = ()) -> "Report":
        return super().__new__(cls, config, records, results,
                               {} if external is None else external, warnings)

    @cached_property
    def _cells(self) -> dict[tuple, list]:
        """Group the results in one pass. The cells (task, format) and
        (task, None), the latter for all formats, each hold the sample
        count, the valid count and the exact sum of normalized scores,
        which adds the numerators of each denominator first."""
        fmt_of = {record.id: record.format for record in self.records}
        cells: dict[tuple, list] = {}
        for result in self.results:
            value = result.normalized()
            cell = cells.setdefault(
                (result.task, fmt_of[result.sample_id]), [0, 0, {}])
            cell[0] += 1
            if value is not None:
                cell[1] += 1
                sums, den = cell[2], value.denominator
                sums[den] = sums.get(den, 0) + value.numerator
        for (task, _), cell in list(cells.items()):  # pool the formats
            cell[2] = sum(Fraction(num, den) for den, num in cell[2].items())
            pooled = cells.setdefault((task, None), [0, 0, 0])
            pooled[:] = [a + b for a, b in zip(pooled, cell)]
        return cells

    def task_means(self) -> dict[Task, Fraction]:
        return _means(self._cells, None)

    def capability(self) -> Fraction:
        return aggregate_capability(self.task_means(), self.config.task_weights)

    def to_json_dict(self) -> dict:
        """Every member of the report but ``per_sample``, whose entries
        ``write_report`` writes from the results themselves."""
        cells = self._cells
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
    run before any scoring happens. One memo, made here and passed to the
    parsers as an argument, lets them resolve each distinct text once.
    """
    if isinstance(workers, bool) or not isinstance(workers, int) \
            or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    memo: dict = {}
    # Each ground-truth file is loaded and projected once, in manifest order.
    ground_truths = {
        path: projected(load_ground_truth(path, memo), config.grid)
        for path in dict.fromkeys(r.gt_path for r in records if r.gt_path)}
    ordered = sorted(records, key=lambda r: r.id)
    results = tuple(score_sample(r, config, ground_truths.get(r.gt_path), memo)
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


# The text of each scalar type, as the json module writes it.
_SCALARS = {
    str: _quote, int: int.__repr__, type(None): lambda _: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    float: lambda x: (float.__repr__(x) if x - x == 0  # finite
                      else "NaN" if x != x else "-Infinity" if x < 0
                      else "Infinity"),
}


def json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a JSON value
    with string keys, in a fraction of the time: CPython's C encoder
    does not indent, and its Python encoder is slow."""
    kind = type(value)
    if kind is not dict and kind is not list:
        return _SCALARS[kind](value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    if kind is list:
        items = [json_text(v, inner) for v in value]
        return f"[{inner}" + f",{inner}".join(items) + f"{pad}]"
    items = []
    for key in sorted(value):
        item = value[key]
        scalar = _SCALARS.get(type(item))  # no call down for most values
        items.append(f"{_quote(key)}: "
                     f"{scalar(item) if scalar else json_text(item, inner)}")
    return f"{{{inner}" + f",{inner}".join(items) + f"{pad}}}"


# The keys of a rule object, in the order they are written.
_RULE_KEYS = sorted(SmgRuleReport._fields)


def _share_text(v: Fraction | None) -> str:
    """The text of ``float(v)``: Fraction's ``__float__`` divides too."""
    return "null" if v is None else repr(v.numerator / v.denominator)


def _entry_text(result: TaskResult, fmt: NotationFormat, scores: dict,
                s=_SCALARS) -> str:
    """``json_text`` of ``result.to_json_dict()`` with the sample's
    ``format`` and external ``scores`` added, at an entry's place in the
    report, written field by field in the keys' order. A value that
    ``json_text`` cannot write (``s`` has no key for its type) fails as
    it does there."""
    (sample_id, task, valid, correct, acc_pitch, acc_duration, fmt_legal,
     technical, rules, hybrid, notes) = result
    i, j = "\n      ", "\n        "
    acc_duration, acc_pitch = ["null" if a is None else (
        f'{{{j}"edit_distance": {s[type(x := a.edit_distance)](x)},'
        f'{j}"len_gt": {s[type(x := a.len_gt)](x)},'
        f'{j}"len_pred": {s[type(x := a.len_pred)](x)},'
        f'{j}"value": {_share_text(x := a.value)},'
        f'{j}"value_exact": "{x.numerator}/{x.denominator}"{i}}}')
        for a in (acc_duration, acc_pitch)]
    rules = "null" if rules is None else f"{{{j}" + f",{j}".join([
        f'"{key}": {s[type(x := getattr(rules, key))](x)}'
        for key in _RULE_KEYS]) + f"{i}}}"
    notes = f"[{j}" + f",{j}".join([s[type(x)](x) for x in notes]) \
        + f"{i}]" if notes else "[]"
    return (
        f'{{{i}"acc_duration": {acc_duration},'
        f'{i}"acc_pitch": {acc_pitch},'
        f'{i}"aesthetic": {s[type(x := scores.get("aesthetic"))](x)},'
        f'{i}"correct": {s[type(correct)](correct)},'
        f'{i}"diagnostics": {notes},'
        f'{i}"fingering": {s[type(x := scores.get("fingering"))](x)},'
        f'{i}"fmt_legal": {s[type(fmt_legal)](fmt_legal)},'
        f'{i}"format": {_quote(fmt.value)},'
        f'{i}"hybrid": {_share_text(hybrid)},'
        f'{i}"normalized": {_share_text(result.normalized())},'
        f'{i}"rules": {rules},'
        f'{i}"sample_id": {_quote(sample_id)},'
        f'{i}"task": {_quote(task.value)},'
        f'{i}"technical": {s[type(technical)](technical)},'
        f'{i}"valid": {s[type(valid)](valid)}\n    }}')


def _json_chunks(report: Report, head: dict):
    """``json_text`` of ``head`` with the report's entries as its
    ``per_sample``, plus "\\n", in pieces: an entry is one."""
    fmt_of = {record.id: record.format for record in report.records}
    sep = "{\n  "
    for key, value in sorted({**head, "per_sample": None}.items()):
        yield f"{sep}{_quote(key)}: "
        sep = ",\n  "
        if key != "per_sample":
            yield json_text(value, "\n  ")
            continue
        start = "["
        for result in report.results:
            yield start + "\n    " + _entry_text(
                result, fmt_of[result.sample_id],
                report.external.get(result.sample_id) or {})
            start = ","
        yield "\n  ]" if report.results else "[]"
    yield "\n}\n"


def write_report(report: Report, out_path: str | Path,
                 csv_path: str | Path | None = None) -> None:
    """Serialize the report as canonical JSON, plus an optional CSV of the
    task-by-format table. Both go to temporary files, removed on any
    failure, before either is put in place; an OSError is a ConfigError.
    The JSON is encoded one member, or one ``per_sample`` entry, at a
    time, through a buffered file: its whole text never exists at once."""
    if csv_path is not None and (Path(csv_path).resolve()
                                 == Path(out_path).resolve()):
        raise ConfigError("--csv must name a different file from --out")
    for path in (out_path, csv_path):  # no report in place, none written
        if path is not None and Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
    data = report.to_json_dict()
    texts = {Path(out_path): _json_chunks(report, data)}
    if csv_path is not None:  # as the csv module writes it: no field here
        # needs quoting, and rows end in "\r\n".
        texts[Path(csv_path)] = ["task,format,count,invalid_count,mean\r\n"] + [
            f"{row['task']},{row['format']},{row['count']},"
            f"{row['invalid_count']},"
            f"{'' if row['mean'] is None else format(row['mean'], '.6f')}\r\n"
            for row in data["per_task_format"]]
    outputs = {path.resolve() for path in texts}
    temps: dict[Path, Path] = {}
    try:
        for path, chunks in texts.items():
            tmp = path  # to be a new file beside it, named as no output
            while path not in temps:
                tmp = tmp.with_name(tmp.name + ".tmp")
                if tmp.resolve() not in outputs:
                    with contextlib.suppress(FileExistsError):
                        file = open(tmp, "x", encoding="utf-8", newline="")
                        temps[path] = tmp
            with file:
                file.writelines(chunks)
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from None
        raise
