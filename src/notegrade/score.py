"""Parsed-document model shared by all notation parsers.

Durations and onsets are exact rationals measured in quarter-note beats:
a 4/4 measure holds 4 beats, a 6/8 measure holds 3.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, PitchError
from .pitch import KeySignature, check_midi

_METER_RE = re.compile(r"([0-9]+)/([0-9]+)")


class NotationFormat(enum.Enum):
    """The three notation systems, with their wire names."""

    ABC_STAFF = "staff"
    JIANPU = "jianpu"
    ASCII_TAB = "tab"

    @classmethod
    def parse(cls, value: str) -> "NotationFormat":
        for member in cls:
            if member.value == value:
                return member
        raise ParseError(f"unknown notation format {value!r}")


@dataclass(frozen=True)
class TimeSignature:
    numerator: int
    denominator: int

    _ALLOWED_DENOMINATORS = (1, 2, 4, 8, 16, 32)

    def __post_init__(self) -> None:
        if self.numerator <= 0:
            raise ParseError(f"meter numerator {self.numerator} must be positive")
        if self.denominator not in self._ALLOWED_DENOMINATORS:
            raise ParseError(
                f"meter denominator {self.denominator} must be one of "
                f"{self._ALLOWED_DENOMINATORS}")

    @classmethod
    def parse(cls, text: str) -> "TimeSignature":
        """Parse "N/D": ASCII digits only, surrounding whitespace allowed."""
        match = _METER_RE.fullmatch(text.strip())
        if match:
            try:
                return cls(int(match[1]), int(match[2]))
            except ValueError:  # past int()'s digit limit
                pass
        raise ParseError(f"meter must look like N/D, got {text!r}")

    @property
    def beats(self) -> Fraction:
        """Measure capacity in quarter-note beats."""
        return Fraction(self.numerator * 4, self.denominator)

    @property
    def text(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Event:
    """A timed sound or silence: empty ``pitches`` means a rest.

    ``tied`` marks an event joined to the next same-pitch event, to be
    merged during projection.
    """

    onset_beats: Fraction
    duration_beats: Fraction
    pitches: tuple[int, ...]
    tied: bool = False

    def __post_init__(self) -> None:
        if self.onset_beats < 0:
            raise ParseError(f"event onset {self.onset_beats} must be >= 0")
        if self.duration_beats <= 0:
            raise ParseError(f"event duration {self.duration_beats} must be positive")
        for midi in self.pitches:
            check_midi(midi)
        if list(self.pitches) != sorted(set(self.pitches)):
            raise PitchError("event pitches must be strictly ascending")

    @property
    def is_rest(self) -> bool:
        return not self.pitches


@dataclass(frozen=True)
class Measure:
    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        onsets = [e.onset_beats for e in self.events]
        if onsets != sorted(onsets):
            raise ParseError("event onsets within a measure must be non-decreasing")

    @property
    def duration_sum(self) -> Fraction:
        return sum((e.duration_beats for e in self.events), Fraction(0))


@dataclass(frozen=True)
class ScoreDoc:
    """A parsed notation document in any of the three formats."""

    format: NotationFormat
    key: KeySignature
    meter: TimeSignature
    measures: tuple[Measure, ...]
    final_barline: bool = True

    def __post_init__(self) -> None:
        if not self.measures:
            raise ParseError("document contains no measures")

    def events(self):
        for measure in self.measures:
            yield from measure.events


@dataclass(frozen=True)
class GroundTruthEvent:
    onset_beats: Fraction
    duration_beats: Fraction
    midi: tuple[int, ...]


@dataclass(frozen=True)
class GroundTruth:
    """The authoritative annotation of one sample: key, meter, timed events."""

    id: str
    format: NotationFormat
    key: KeySignature
    meter: TimeSignature
    events: tuple[GroundTruthEvent, ...]
    tempo_bpm: float | None = None


@dataclass(frozen=True)
class Violation:
    rule_id: str
    message: str
    line: int | None = None
    column: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "message": self.message,
            "line": self.line,
            "column": self.column,
        }


@dataclass(frozen=True)
class FormatVerdict:
    """Outcome of strict format-legality checking."""

    violations: tuple[Violation, ...] = field(default=())
    # The parsed document, or the ParseError (traceback dropped) that
    # stopped the parse; neither is compared nor serialized.
    doc: ScoreDoc | None = field(default=None, compare=False, repr=False)
    error: ParseError | None = field(default=None, compare=False, repr=False)

    @property
    def legal(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "legal": self.legal,
            "violations": [v.to_json_dict() for v in self.violations],
        }
