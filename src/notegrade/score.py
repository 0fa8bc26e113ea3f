"""Parsed-document model shared by all notation parsers.

Durations and onsets are whole ticks, ``TICKS_PER_BEAT`` to the
quarter-note beat: a 4/4 measure holds 4 beats, a 6/8 measure holds 3.
They read back as exact ``Fraction`` beats through properties.

Records here and across the package are immutable named tuples, equal
and hashed by value. One that checks its fields subclasses a
``namedtuple`` and checks them in ``__new__``, whose signature gives
the fields and their defaults.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

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


class TimeSignature(namedtuple("TimeSignature", "numerator denominator")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    _ALLOWED_DENOMINATORS = (1, 2, 4, 8, 16, 32)

    def __new__(cls, numerator: int, denominator: int) -> "TimeSignature":
        if numerator <= 0:
            raise ParseError(f"meter numerator {numerator} must be positive")
        if denominator not in cls._ALLOWED_DENOMINATORS:
            raise ParseError(
                f"meter denominator {denominator} must be one of "
                f"{cls._ALLOWED_DENOMINATORS}")
        return super().__new__(cls, numerator, denominator)

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

    def __reduce__(self):
        """Pickle and copy rebuild from ticks, as ``trusted`` takes them."""
        return self.trusted, tuple(self)

    @property
    def onset_beats(self) -> Fraction:
        return Fraction(self[0], TICKS_PER_BEAT)

    @property
    def duration_beats(self) -> Fraction:
        return Fraction(self[1], TICKS_PER_BEAT)

    @property
    def is_rest(self) -> bool:
        return not self[2]


class Measure(namedtuple("Measure", "events")):
    """The events of one measure. ``Measure(events)`` checks that their
    onsets do not decrease; the parsers, whose onsets are running sums,
    build measures with ``trusted``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, events: tuple[Event, ...] = ()) -> "Measure":
        onsets = [e.onset_ticks for e in events]
        if onsets != sorted(onsets):
            raise ParseError("event onsets within a measure must be non-decreasing")
        return super().__new__(cls, events)

    @classmethod
    def trusted(cls, events: tuple[Event, ...]) -> "Measure":
        """A measure the caller guarantees valid, built without checks."""
        return tuple.__new__(cls, (events,))

    @property
    def duration_ticks(self) -> int:
        return sum(map(itemgetter(1), self.events))

    @property
    def duration_sum(self) -> Fraction:
        return Fraction(self.duration_ticks, TICKS_PER_BEAT)


class ScoreDoc(namedtuple("ScoreDoc",
                          "format key meter measures final_barline")):
    """A parsed notation document in any of the three formats."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, format: NotationFormat, key: KeySignature,
                meter: TimeSignature, measures: tuple[Measure, ...],
                final_barline: bool = True) -> "ScoreDoc":
        if not measures:
            raise ParseError("document contains no measures")
        return super().__new__(cls, format, key, meter, measures,
                               final_barline)

    def events(self):
        for measure in self.measures:
            yield from measure.events


class GroundTruthEvent(NamedTuple):
    onset_beats: Fraction
    duration_beats: Fraction
    midi: tuple[int, ...]


def _by_leading(count: int) -> tuple:
    """``__eq__``, ``__ne__``, ``__hash__`` and ``__repr__`` for a named
    tuple whose value is its first ``count`` fields: the fields after
    them ride along, not compared, hashed or shown."""
    def eq(self, other):
        return type(other) is type(self) and self[:count] == other[:count]

    def ne(self, other):
        return not eq(self, other)

    def hash_(self):
        return hash(self[:count])

    def repr_(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._fields[:count], self))
        return f"{type(self).__name__}({shown})"
    return eq, ne, hash_, repr_


class GroundTruth(NamedTuple):
    """The authoritative annotation of one sample: key, meter, timed events."""

    id: str
    format: NotationFormat
    key: KeySignature
    meter: TimeSignature
    events: tuple[GroundTruthEvent, ...]
    tempo_bpm: float | None = None
    # Its CanonicalSequence, when a batch has projected it (once per file),
    # and (grid, its durations in steps of the batch's grid).
    projection: object = None
    steps: tuple | None = None

    __eq__, __ne__, __hash__, __repr__ = _by_leading(6)


class Violation(NamedTuple):
    rule_id: str
    message: str
    line: int | None = None
    column: int | None = None

    def to_json_dict(self) -> dict:
        return self._asdict()


class FormatVerdict(NamedTuple):
    """Outcome of strict format-legality checking."""

    violations: tuple[Violation, ...] = ()
    # The parsed document, or the ParseError (traceback dropped) that
    # stopped the parse; neither is serialized.
    doc: ScoreDoc | None = None
    error: ParseError | None = None

    __eq__, __ne__, __hash__, __repr__ = _by_leading(1)

    @property
    def legal(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "legal": self.legal,
            "violations": [v.to_json_dict() for v in self.violations],
        }
