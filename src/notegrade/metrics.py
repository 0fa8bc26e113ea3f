"""Alignment metrics: edit distance, alignment accuracy, hybrid scoring.

All arithmetic is exact. Accuracies are Fractions in [0, 1] and only
become floats at the serialization boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Sequence

from .errors import ConfigError


def edit_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Levenshtein distance with unit insert, delete, and substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + cost,
            )
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class AccuracyScore:
    value: Fraction
    edit_distance: int
    len_gt: int
    len_pred: int

    def to_json_dict(self) -> dict:
        return {
            "value": float(self.value),
            "value_exact": f"{self.value.numerator}/{self.value.denominator}",
            "edit_distance": self.edit_distance,
            "len_gt": self.len_gt,
            "len_pred": self.len_pred,
        }


def alignment_accuracy(gt: Sequence[Hashable],
                       pred: Sequence[Hashable]) -> AccuracyScore:
    """1 - ED/max(|gt|, |pred|), clamped at zero; two empty streams match."""
    if not gt and not pred:
        return AccuracyScore(Fraction(1), 0, 0, 0)
    distance = edit_distance(gt, pred)
    value = max(Fraction(0), 1 - Fraction(distance, max(len(gt), len(pred))))
    return AccuracyScore(value, distance, len(gt), len(pred))


def parse_numbers(text: str, count: int, what: str) -> list[Fraction]:
    """Exactly ``count`` comma-separated exact numbers, or a ConfigError."""
    parts = text.split(",")
    if len(parts) != count:
        raise ConfigError(f"{what} must be {({3: 'three', 4: 'four'})[count]}"
                          f" comma-separated numbers, got {text!r}")
    try:
        return [Fraction(part.strip()) for part in parts]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"malformed {what} {text!r}") from None


@dataclass(frozen=True)
class MetricWeights:
    """Hybrid-score weights over pitch accuracy, duration accuracy, and
    format legality."""

    pitch: Fraction = Fraction(1, 2)
    duration: Fraction = Fraction(3, 10)
    format: Fraction = Fraction(1, 5)

    def __post_init__(self) -> None:
        for name, value in (("pitch", self.pitch),
                            ("duration", self.duration),
                            ("format", self.format)):
            if value < 0:
                raise ConfigError(f"{name} weight must be >= 0, got {value}")
        total = self.pitch + self.duration + self.format
        if total != 1:
            raise ConfigError(f"weights must sum to 1, got {total}")

    @classmethod
    def parse(cls, text: str) -> "MetricWeights":
        return cls(*parse_numbers(text, 3, "weights"))

    def without_duration(self) -> "MetricWeights":
        """Redistribute the duration weight when a format carries no rhythm."""
        rest = self.pitch + self.format
        if rest == 0:
            raise ConfigError(
                "cannot drop duration weight when pitch and format weights are 0")
        return MetricWeights(self.pitch / rest, Fraction(0), self.format / rest)

    def to_json_dict(self) -> dict:
        return {
            "pitch": float(self.pitch),
            "duration": float(self.duration),
            "format": float(self.format),
        }


def hybrid_score(acc_pitch: Fraction, acc_duration: Fraction | None,
                 format_legal: bool,
                 weights: MetricWeights = MetricWeights()) -> Fraction:
    """Weighted blend of the accuracies and the format-legality indicator.

    ``acc_duration=None`` means the target format has no duration stream;
    its weight is then redistributed over the other two components.
    """
    if acc_duration is None:
        weights = weights.without_duration()
        acc_duration = Fraction(0)
    return (weights.pitch * acc_pitch
            + weights.duration * acc_duration
            + weights.format * (Fraction(1) if format_legal else Fraction(0)))
