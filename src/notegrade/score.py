"""Parsed-document model shared by all notation parsers.

Durations and onsets are whole ticks, ``TICKS_PER_BEAT`` to the
quarter-note beat: a 4/4 measure holds 4 beats, a 6/8 measure holds 3.
They read back as exact ``Fraction`` beats through properties.
"""

from __future__ import annotations

import enum
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from operator import itemgetter

from .errors import ParseError, PitchError
from .pitch import KeySignature, check_midi

_METER_RE = re.compile(r"([0-9]+)/([0-9]+)")

# A power of two divisible by 8, so every meter's capacity (at most
# 32nd-note denominators) is a whole number of ticks.
TICKS_PER_BEAT = 4096


def beats_to_ticks(numerator: int, denominator: int, **where) -> int:
    """``numerator/denominator`` beats in ticks, or a ParseError at
    ``where`` (line, column, rule id) if that is not a whole number."""
    ticks, rest = divmod(numerator * TICKS_PER_BEAT, denominator)
    if rest:
        raise ParseError(
            f"duration is not a multiple of 1/{TICKS_PER_BEAT} beat", **where)
    return ticks


def split_lines(text: str) -> list[str]:
    r"""``text.splitlines()``, but a line ends only at "\r\n", "\r" or
    "\n", not at the other breaks it knows (form feed, U+2028, ...)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.removesuffix("\n").split("\n") if text else []


class NotationFormat(enum.Enum):
    """The three notation systems, with their wire names."""

    ABC_STAFF = "staff"
    JIANPU = "jianpu"
    ASCII_TAB = "tab"

    @classmethod
    def parse(cls, value: str) -> "NotationFormat":
        try:
            return _FORMATS[value]  # a lookup costs less than the call
        except KeyError:
            raise ParseError(f"unknown notation format {value!r}") from None


_FORMATS = {fmt.value: fmt for fmt in NotationFormat}


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
    def ticks(self) -> int:
        return self.numerator * 4 * TICKS_PER_BEAT // self.denominator

    @property
    def text(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class Event(tuple):
    """A timed sound or silence: empty ``pitches`` means a rest.

    ``tied`` marks an event joined to the next same-pitch event, to be
    merged during projection. ``Event(onset_beats, ...)`` checks its
    arguments; the parsers build valid events from ticks with ``trusted``.
    An event is the tuple ``(onset_ticks, duration_ticks, pitches, tied)``.
    """

    __slots__ = ()

    onset_ticks = property(itemgetter(0))
    duration_ticks = property(itemgetter(1))
    pitches = property(itemgetter(2))
    tied = property(itemgetter(3))

    def __new__(cls, onset_beats: Fraction, duration_beats: Fraction,
                pitches: tuple[int, ...], tied: bool = False) -> "Event":
        if onset_beats < 0:
            raise ParseError(f"event onset {onset_beats} must be >= 0")
        if duration_beats <= 0:
            raise ParseError(f"event duration {duration_beats} must be positive")
        for midi in pitches:
            check_midi(midi)
        if list(pitches) != sorted(set(pitches)):
            raise PitchError("event pitches must be strictly ascending")
        onset = Fraction(onset_beats) * TICKS_PER_BEAT
        duration = Fraction(duration_beats) * TICKS_PER_BEAT
        if onset.denominator != 1 or duration.denominator != 1:
            raise ParseError("event onset and duration must be multiples of "
                             f"1/{TICKS_PER_BEAT} beat")
        return cls.trusted(onset.numerator, duration.numerator, pitches, tied)

    @classmethod
    def trusted(cls, onset_ticks: int, duration_ticks: int,
                pitches: tuple[int, ...], tied: bool = False) -> "Event":
        """An event the caller guarantees valid, built without checks."""
        return tuple.__new__(cls, (onset_ticks, duration_ticks, pitches, tied))

    @property
    def onset_beats(self) -> Fraction:
        return Fraction(self[0], TICKS_PER_BEAT)

    @property
    def duration_beats(self) -> Fraction:
        return Fraction(self[1], TICKS_PER_BEAT)

    @property
    def is_rest(self) -> bool:
        return not self[2]


@dataclass(frozen=True, slots=True)
class Measure:
    """The events of one measure. ``Measure(events)`` checks that their
    onsets do not decrease; the parsers, whose onsets are running sums,
    build measures with ``trusted``."""

    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        onsets = [e.onset_ticks for e in self.events]
        if onsets != sorted(onsets):
            raise ParseError("event onsets within a measure must be non-decreasing")

    @classmethod
    def trusted(cls, events: tuple[Event, ...]) -> "Measure":
        """A measure the caller guarantees valid, built without checks."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "events", events)
        return measure

    @property
    def duration_ticks(self) -> int:
        return sum(map(itemgetter(1), self.events))

    @property
    def duration_sum(self) -> Fraction:
        return Fraction(self.duration_ticks, TICKS_PER_BEAT)


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
    # Its CanonicalSequence, when a batch has projected it (once per file).
    projection: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Violation:
    rule_id: str
    message: str
    line: int | None = None
    column: int | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


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
