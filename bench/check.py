"""Check a notegrade report against the expectations of its workload.

The per-sample values are recomputed from how each sample was made (see
workloads.py); the aggregates are recomputed from those values with
exact fractions and compared with the report's ``mean_exact`` and
``capability_exact`` strings, its floats and its CSV table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from music import fraction_text
from workloads import FORMATS, Expected, Stream

TASKS = ("vsu", "cnc", "ast", "smg")
RULE_NAMES = ("renderable", "measure_arith_ok", "key_consistent",
              "rests_legal", "structure_ok")
# Default hybrid weights (pitch, duration, format) and task weights.
WEIGHTS = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))
TASK_WEIGHT = Fraction(1, 4)


@dataclass
class Verdict:
    failed: list[str] = field(default_factory=list)   # disagreeing samples
    problems: list[str] = field(default_factory=list)  # anything unexpected


def accuracy(distance: int, len_gt: int, len_pred: int) -> Fraction:
    if not len_gt and not len_pred:
        return Fraction(1)
    return max(Fraction(0), 1 - Fraction(distance, max(len_gt, len_pred)))


def hybrid(acc_pitch: Fraction, acc_duration: Fraction | None,
           legal: bool) -> Fraction:
    pitch, duration, fmt = WEIGHTS
    if acc_duration is None:
        pitch, duration, fmt = pitch / (pitch + fmt), 0, fmt / (pitch + fmt)
        acc_duration = Fraction(0)
    return pitch * acc_pitch + duration * acc_duration + fmt * int(legal)


def _stream(entry: dict | None, want: Stream) -> Fraction | None:
    """The accuracy ``entry`` must carry, or None if it breaks ``want``."""
    if entry is None or entry["len_gt"] != want.len_gt \
            or entry["len_pred"] != want.len_pred \
            or not want.lo <= entry["edit_distance"] <= want.hi:
        return None
    value = accuracy(entry["edit_distance"], want.len_gt, want.len_pred)
    if entry["value_exact"] != fraction_text(value) \
            or entry["value"] != float(value):
        return None
    return value


_ZERO = {"value": 0.0, "value_exact": "0/1", "edit_distance": 0,
         "len_gt": 0, "len_pred": 0}


def sample_score(entry: dict, want: Expected) -> Fraction | None:
    """The normalized score the entry must have, or None if it disagrees
    with the expectation."""
    if entry["task"] != want.task or entry["format"] != want.fmt \
            or entry["valid"] is not True:
        return None
    if want.task == "vsu":
        if entry["correct"] is not want.correct:
            return None
        score = Fraction(int(want.correct))
    elif want.task == "smg":
        rules = tuple(entry["rules"][name] for name in RULE_NAMES)
        if rules != want.rules or entry["fmt_legal"] is not want.legal \
                or entry["technical"] != sum(want.rules):
            return None
        score = Fraction(sum(want.rules), 5)
    elif want.rejected:
        duration = None if want.fmt == "tab" else _ZERO
        if entry["acc_pitch"] != _ZERO or entry["acc_duration"] != duration \
                or entry["fmt_legal"] is not False or entry["hybrid"] != 0.0:
            return None
        score = Fraction(0)
    else:
        acc_pitch = _stream(entry["acc_pitch"], want.pitch)
        if want.duration is None:
            acc_duration = None
            if entry["acc_duration"] is not None:
                return None
        else:
            acc_duration = _stream(entry["acc_duration"], want.duration)
            if acc_duration is None:
                return None
        if acc_pitch is None or entry["fmt_legal"] is not want.legal:
            return None
        score = hybrid(acc_pitch, acc_duration, want.legal)
        if entry["hybrid"] != float(score):
            return None
    if entry["normalized"] != float(score):
        return None
    return score


def _known_fault(entry: dict, want: Expected) -> bool:
    """True when the entry shows the fault the sample is kept for: the
    prediction rejected with a zero score and the fault's message."""
    return want.fault is not None and entry["hybrid"] == 0.0 \
        and entry["fmt_legal"] is False \
        and any(want.fault in d for d in entry["diagnostics"])


def _mean(values: list[Fraction]) -> Fraction | None:
    return sum(values, Fraction(0)) / len(values) if values else None


def _capability(scores: dict[str, tuple[str, Fraction]],
                task_of: dict[str, str]) -> Fraction:
    total = Fraction(0)
    for task in TASKS:
        mean = _mean([s for i, (_, s) in scores.items() if task_of[i] == task])
        if mean is not None:
            total += TASK_WEIGHT * mean
    return total


def expected_csv(rows: list[tuple[str, str, int, Fraction]]) -> bytes:
    lines = ["task,format,count,invalid_count,mean"]
    for task, fmt, count, mean in rows:
        lines.append(f"{task},{fmt},{count},0,{float(mean):.6f}")
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def check_report(report: dict, csv_bytes: bytes,
                 expected: dict[str, Expected]) -> Verdict:
    verdict = Verdict()
    entries = report["per_sample"]
    ids = [e["sample_id"] for e in entries]
    if ids != sorted(expected):
        verdict.problems.append("report samples differ from the manifest")
        return verdict

    scores: dict[str, tuple[str, Fraction]] = {}
    for entry in entries:
        want = expected[entry["sample_id"]]
        score = sample_score(entry, want)
        if score is None:
            verdict.failed.append(entry["sample_id"])
            if not _known_fault(entry, want):
                verdict.problems.append(
                    f"{entry['sample_id']}: report disagrees with the "
                    f"expected result")
                continue
            # A known fault: the aggregates carry the score it really got.
            score = Fraction(0)
        scores[entry["sample_id"]] = (want.fmt, score)

    if verdict.problems:
        return verdict
    task_of = {i: expected[i].task for i in expected}
    for task in TASKS:
        values = [s for i, (_, s) in scores.items() if task_of[i] == task]
        mean = _mean(values)
        got = report["per_task"][task]
        want = {"count": len(values), "invalid_count": 0,
                "mean": None if mean is None else float(mean),
                "mean_exact": None if mean is None else fraction_text(mean)}
        if got != want:
            verdict.problems.append(f"per_task.{task} is {got}, not {want}")

    capability = _capability(scores, task_of)
    if report["capability_exact"] != fraction_text(capability) \
            or report["capability"] != float(capability):
        verdict.problems.append(
            f"capability_exact is {report['capability_exact']}, "
            f"not {fraction_text(capability)}")

    rows, by_format = [], {}
    for task in TASKS:
        for fmt in FORMATS:
            cell = [s for i, (f, s) in scores.items()
                    if task_of[i] == task and f == fmt]
            if cell:
                rows.append((task, fmt, len(cell), _mean(cell)))
    for fmt in FORMATS:
        ids_fmt = {i: v for i, v in scores.items() if v[0] == fmt}
        if ids_fmt:
            by_format[fmt] = float(_capability(ids_fmt, task_of))
    table = [{"task": t, "format": f, "count": c, "invalid_count": 0,
              "mean": float(m)} for t, f, c, m in rows]
    if report["per_task_format"] != table:
        verdict.problems.append("per_task_format differs from the expected")
    if report["capability_by_format"] != by_format:
        verdict.problems.append("capability_by_format differs")
    if csv_bytes != expected_csv(rows):
        verdict.problems.append("CSV differs from the expected table")
    present = {task_of[i] for i in expected}
    warnings = [f"no {t} samples; task contributes 0 to capability"
                for t in TASKS if t not in present]
    if report["warnings"] != warnings:
        verdict.problems.append(f"warnings are {report['warnings']}")
    return verdict
