"""Scoring logic for the four benchmark tasks.

vsu: multiple-choice/short answer understanding, exact after normalization
cnc: notation conversion, gated on target-format legality
ast: transcription into the sample's own format
smg: constrained generation, judged by five structural rules

Every outcome of a model is scored; ``valid=False`` marks only samples
excluded from aggregation by an explicit cap, never ordinary failures.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .metrics import (AccuracyScore, MetricWeights, alignment_accuracy,
                      hybrid_score, parse_numbers, require_exact)
# Three parsers and quantize_durations are unused here but kept:
# bench/spans.py patches them by name.
from .parsers import (parse_abc, parse_ascii_tab, parse_document,
                      parse_jianpu, validate_format)
from .projection import (DEFAULT_GRID, check_grid, project,
                         project_ground_truth, quantize_durations)
from .errors import ConfigError
from .pitch import STANDARD_TUNING, KeySignature, Tuning
from .score import (FormatVerdict, GroundTruth, NotationFormat, ScoreDoc,
                    TimeSignature)


class Task(enum.Enum):
    VSU = "vsu"
    CNC = "cnc"
    AST = "ast"
    SMG = "smg"

    @classmethod
    def parse(cls, value: str) -> "Task":
        try:
            return _TASKS[value]  # a lookup costs less than Task(value)
        except KeyError:
            raise ConfigError(f"unknown task {value!r}") from None


_TASKS = {task.value: task for task in Task}
_TICKS, _PITCHES = itemgetter(0), itemgetter(1)
SMG_RULE_COUNT = 5
_ZERO, _ONE = Fraction(0), Fraction(1)


class SmgRuleReport(NamedTuple):
    """Pass/fail for each generation rule; an unparseable piece fails all."""

    renderable: bool
    measure_arith_ok: bool
    key_consistent: bool
    rests_legal: bool
    structure_ok: bool

    @property
    def passed(self) -> int:
        return sum(self)

    def to_json_dict(self) -> dict:
        return self._asdict()


class TaskResult(NamedTuple):
    sample_id: str
    task: Task
    valid: bool = True
    correct: bool | None = None
    acc_pitch: AccuracyScore | None = None
    acc_duration: AccuracyScore | None = None
    fmt_legal: bool | None = None
    technical: int | None = None
    rules: SmgRuleReport | None = None
    hybrid: Fraction | None = None
    diagnostics: tuple[str, ...] = ()

    def normalized(self) -> Fraction | None:
        """Score on [0, 1] used for aggregation; None when excluded."""
        if not self.valid:
            return None
        if self.task is Task.VSU:
            return _ONE if self.correct else _ZERO
        if self.task is Task.SMG:
            return Fraction(self.technical, SMG_RULE_COUNT)
        return self.hybrid

    def to_json_dict(self) -> dict:
        normalized = self.normalized()
        return {
            "sample_id": self.sample_id,
            "task": self.task.value,
            "valid": self.valid,
            "correct": self.correct,
            "acc_pitch": None if self.acc_pitch is None
            else self.acc_pitch.to_json_dict(),
            "acc_duration": None if self.acc_duration is None
            else self.acc_duration.to_json_dict(),
            "fmt_legal": self.fmt_legal,
            "technical": self.technical,
            "rules": None if self.rules is None else self.rules.to_json_dict(),
            "hybrid": None if self.hybrid is None else float(self.hybrid),
            "normalized": None if normalized is None else float(normalized),
            "diagnostics": list(self.diagnostics),
        }


_PUNCT_RE = re.compile(r"[^\w\s]")
_OPTION_LETTERS = frozenset("abcd")
_OPTION_PATTERNS = (
    re.compile(r"\(([a-d])\)"),
    re.compile(r"^\s*([a-d])[\s).:\-]"),
    re.compile(r"\b(?:answer|option|choice)\b(?:\s+is)?\s*:?\s*\(?([a-d])\)?"),
)


def normalize_answer(text: str) -> str:
    return " ".join(_PUNCT_RE.sub(" ", text.casefold()).split())


def extract_option_letter(text: str) -> str | None:
    """Pull a multiple-choice letter out of free-form model text.

    Patterns are tried in a fixed order and the leftmost match wins, so
    extraction is deterministic.
    """
    lowered = text.casefold()
    for pattern in _OPTION_PATTERNS:
        match = pattern.search(lowered)
        if match:
            return match.group(1)
    normalized = normalize_answer(text)
    if normalized in _OPTION_LETTERS:
        return normalized
    return None


def score_vsu(sample_id: str, answer: str, prediction: str) -> TaskResult:
    """Judge an understanding answer by normalized match, then by extracted
    option letter when the reference is a bare choice."""
    reference = normalize_answer(answer)
    normalized = normalize_answer(prediction)
    diagnostics: list[str] = []
    if not normalized:
        correct = False
        diagnostics.append("empty prediction")
    elif normalized == reference:
        correct = True
    elif reference in _OPTION_LETTERS:
        correct = extract_option_letter(prediction) == reference
    else:
        correct = False
    return TaskResult(sample_id=sample_id, task=Task.VSU, correct=correct,
                      diagnostics=tuple(diagnostics))


def _rejection(sample_id: str, task: Task, fmt: NotationFormat,
               diagnostics: tuple[str, ...]) -> TaskResult:
    no_duration_stream = fmt is NotationFormat.ASCII_TAB
    zero = AccuracyScore(_ZERO, 0, 0, 0)
    return TaskResult(
        sample_id=sample_id, task=task,
        acc_pitch=zero,
        acc_duration=None if no_duration_stream else zero,
        fmt_legal=False, hybrid=_ZERO, diagnostics=diagnostics)


def projected(gt: GroundTruth, grid: Fraction | None = None) -> GroundTruth:
    """``gt`` carrying its projection, and its steps on ``grid`` if given,
    which the scorers then reuse."""
    seq = project_ground_truth(gt)
    return gt._replace(projection=seq, steps=grid and (grid, seq.steps(grid)))


def _conversion_result(sample_id: str, task: Task, gt: GroundTruth,
                       verdict: FormatVerdict, fmt: NotationFormat,
                       weights: MetricWeights, grid: Fraction,
                       length_cap: int | None = None) -> TaskResult:
    """Score the document of ``verdict`` against ``gt``; reject it when
    there is none, and exclude it from aggregation when it has more than
    ``length_cap`` times the reference's pitch tokens."""
    diagnostics = [f"{v.rule_id}: {v.message}" for v in verdict.violations]
    doc = verdict.doc
    if doc is None:
        diagnostics.append(f"unparseable: {verdict.error}")
        return _rejection(sample_id, task, fmt, tuple(diagnostics))
    gt_seq, pred_seq = gt.projection or project_ground_truth(gt), project(doc)
    if length_cap is not None:
        pred_len = len(pred_seq.pitch_tokens)
        gt_len = max(len(gt_seq.pitch_tokens), 1)
        if pred_len > length_cap * gt_len:
            diagnostics.append(f"excluded: {pred_len} pitch tokens against "
                               f"{gt_len} reference (cap {length_cap}x)")
            return TaskResult(
                sample_id=sample_id, task=task, valid=False,
                fmt_legal=verdict.legal, diagnostics=tuple(diagnostics))
    acc_pitch = alignment_accuracy(gt_seq.pitch_tokens, pred_seq.pitch_tokens)
    acc_duration = duration_value = None
    if fmt is not NotationFormat.ASCII_TAB:
        gt_steps = gt.steps[1] if gt.steps and gt.steps[0] == grid \
            else gt_seq.steps(grid)
        acc_duration = alignment_accuracy(gt_steps, pred_seq.steps(grid))
        duration_value = acc_duration.value
        if doc.key.tonic != gt.key.tonic:
            diagnostics.append(
                f"key mismatch: wrote {doc.key.name}, expected {gt.key.name}")
        if doc.meter.text != gt.meter.text:
            diagnostics.append(
                f"meter mismatch: wrote {doc.meter.text}, expected {gt.meter.text}")
    hybrid = hybrid_score(acc_pitch.value, duration_value, verdict.legal,
                          weights)
    return TaskResult(
        sample_id=sample_id, task=task, acc_pitch=acc_pitch,
        acc_duration=acc_duration, fmt_legal=verdict.legal, hybrid=hybrid,
        diagnostics=tuple(diagnostics))


def score_cnc(sample_id: str, gt: GroundTruth, prediction: str,
              target_format: NotationFormat, *,
              weights: MetricWeights = MetricWeights(),
              grid: Fraction = DEFAULT_GRID,
              tuning: Tuning = STANDARD_TUNING,
              lenient: bool = False, memo: dict | None = None) -> TaskResult:
    """Score a conversion into ``target_format`` against the source piece.

    An output that breaks the target format's rules is rejected outright
    with a zero hybrid score; ``lenient=True`` instead scores any output
    that still parses, with the legality component lost. ``memo``, here
    and in the other scorers, is the batch's memo for ``validate_format``.
    """
    check_grid(grid)
    verdict = validate_format(target_format, prediction, tuning, memo)
    if not verdict.legal and not lenient:
        return _rejection(sample_id, Task.CNC, target_format, tuple(
            f"{v.rule_id}: {v.message}" for v in verdict.violations))
    return _conversion_result(sample_id, Task.CNC, gt, verdict,
                              target_format, weights, grid)


def score_ast(sample_id: str, gt: GroundTruth, prediction: str,
              fmt: NotationFormat, *,
              weights: MetricWeights = MetricWeights(),
              grid: Fraction = DEFAULT_GRID,
              tuning: Tuning = STANDARD_TUNING,
              length_cap: int | None = None,
              memo: dict | None = None) -> TaskResult:
    """Score a transcription in the sample's own format.

    Unlike conversion, structural nits do not reject the output: anything
    parseable is scored, with legality feeding the hybrid's format term.
    ``length_cap`` optionally excludes degenerate outputs more than
    cap-times longer than the reference from aggregation.
    """
    check_grid(grid)
    return _conversion_result(sample_id, Task.AST, gt,
                              validate_format(fmt, prediction, tuning, memo),
                              fmt,
                              weights, grid, length_cap)


def smg_rules(doc: ScoreDoc,
              declared_key: KeySignature | None) -> SmgRuleReport:
    """Evaluate the five generation rules on a parsed piece, each distinct
    measure object (a parser's memo shares one among copies) once. A
    measure ends at the sum of its durations, its sounds following each
    other from its barline."""
    capacity = doc.meter.ticks
    complete = doc.measures if doc.final_barline else doc.measures[:-1]
    distinct = {id(m): m.sounds for m in doc.measures}
    sounds = list(distinct.values())
    ends = dict(zip(distinct, map(sum, map(map, repeat(_TICKS), sounds))))
    measure_arith_ok = all(ends[id(m)] == capacity for m in complete)
    if doc.format is NotationFormat.ASCII_TAB or declared_key is None:
        key_consistent = True
    else:
        key_consistent = doc.key.tonic == declared_key.tonic
    rests_legal = all(map(any, map(map, repeat(_PITCHES), sounds)))
    structure_ok = (
        len(complete) >= 2
        and doc.final_barline
        and max(ends.values(), default=0) <= capacity)
    return SmgRuleReport(
        renderable=True,
        measure_arith_ok=measure_arith_ok,
        key_consistent=key_consistent,
        rests_legal=rests_legal,
        structure_ok=structure_ok,
    )


def score_smg(sample_id: str, prediction: str, fmt: NotationFormat,
              declared_key: KeySignature | None = None,
              declared_meter: TimeSignature | None = None, *,
              tuning: Tuning = STANDARD_TUNING,
              memo: dict | None = None) -> TaskResult:
    """Grade a generated piece on the five structural rules.

    The declared meter is prompt context only; arithmetic is judged
    against the meter the piece itself declares, and a mismatch with the
    request is surfaced as a diagnostic.
    """
    verdict = validate_format(fmt, prediction, tuning, memo)
    diagnostics = [f"{v.rule_id}: {v.message}" for v in verdict.violations]
    doc = verdict.doc
    if doc is None:
        rules = SmgRuleReport(False, False, False, False, False)
        return TaskResult(
            sample_id=sample_id, task=Task.SMG, fmt_legal=False,
            technical=0, rules=rules, diagnostics=tuple(diagnostics))
    rules = smg_rules(doc, declared_key)
    if (declared_meter is not None
            and fmt is not NotationFormat.ASCII_TAB
            and doc.meter.text != declared_meter.text):
        diagnostics.append(
            f"meter mismatch: wrote {doc.meter.text}, "
            f"requested {declared_meter.text}")
    return TaskResult(
        sample_id=sample_id, task=Task.SMG, fmt_legal=verdict.legal,
        technical=rules.passed, rules=rules, diagnostics=tuple(diagnostics))


class CapabilityWeights(namedtuple("CapabilityWeights", "vsu cnc ast smg")):
    """Per-task weights for the single capability aggregate."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, vsu: Fraction = Fraction(1, 4),
                cnc: Fraction = Fraction(1, 4), ast: Fraction = Fraction(1, 4),
                smg: Fraction = Fraction(1, 4)) -> "CapabilityWeights":
        values = (vsu, cnc, ast, smg)
        for task, value in zip(Task, values):
            require_exact(f"{task.value} task weight", value)
        if any(v < 0 for v in values):
            raise ConfigError("task weights must be >= 0")
        if sum(values) != 1:
            raise ConfigError(f"task weights must sum to 1, got {sum(values)}")
        return super().__new__(cls, *values)

    @classmethod
    def parse(cls, text: str) -> "CapabilityWeights":
        return cls(*parse_numbers(text, 4, "task weights"))

    def for_task(self, task: Task) -> Fraction:
        return getattr(self, task.value)

    def to_json_dict(self) -> dict:
        return {task.value: float(self.for_task(task)) for task in Task}


def aggregate_capability(task_means: dict[Task, Fraction],
                         weights: CapabilityWeights = CapabilityWeights(),
                         ) -> Fraction:
    """Weighted sum of per-task means; a task with no samples contributes 0."""
    total = Fraction(0)
    for task in Task:
        mean = task_means.get(task)
        if mean is not None:
            total += weights.for_task(task) * mean
    return total
