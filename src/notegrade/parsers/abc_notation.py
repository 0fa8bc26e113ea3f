"""Parser for a strict subset of ABC staff notation.

Supported surface: X/T/K/M/L header fields, notes with ^/_/= accidentals
and '/, octave marks, slash or fraction duration multipliers, z rests,
[..] chords with a single outer multiplier, - ties, and |, ||, |] bars.
Accidentals apply to the note they precede only; they do not persist
through the measure.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError, PitchError
from ..pitch import LETTER_SEMITONES, KeySignature, check_midi, sort_chord
from ..score import (Event, Measure, NotationFormat, ScoreDoc,
                     TimeSignature, Violation, beats_to_ticks)

# Circle-of-fifths signature sizes for the standard major keys; positive
# counts are sharps, negative are flats.
MAJOR_KEY_SIGNATURES = {
    "C": 0, "G": 1, "D": 2, "A": 3, "E": 4, "B": 5, "F#": 6, "C#": 7,
    "F": -1, "Bb": -2, "Eb": -3, "Ab": -4, "Db": -5, "Gb": -6, "Cb": -7,
}
SHARPS_ORDER = "FCGDAEB"
FLATS_ORDER = "BEADGCF"

_HEADER_RE = re.compile(r"^([A-Za-z]):(.*)$")
_REQUIRED_HEADERS = (
    ("X", "abc.header_x", "X: (index)"),
    ("M", "abc.header_meter", "M: (meter)"),
    ("L", "abc.header_unit", "L: (unit note length)"),
    ("K", "abc.header_key", "K: (key)"),
)
_UNIT_RE = re.compile(r"([0-9]+)/([0-9]+)")
_PITCH_RE = re.compile(r"([\^_=]?)([A-Ga-g])([',]*)")
_LENGTH_RE = re.compile(r"([0-9]*)(/*)([0-9]*)")
_NOTE_RE = re.compile(_PITCH_RE.pattern + _LENGTH_RE.pattern)
_ACCIDENTALS = {"^": 1, "_": -1, "=": 0}


def _number(digits: str, **where) -> int:
    """``int(digits)``, or a ParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number of {len(digits)} digits is too long", **where) from None


def key_signature_accidentals(key_name: str) -> dict[str, int]:
    """Map note letters to the +-1 semitone shift the key signature imposes."""
    count = MAJOR_KEY_SIGNATURES[key_name]
    if count >= 0:
        return {letter: 1 for letter in SHARPS_ORDER[:count]}
    return {letter: -1 for letter in FLATS_ORDER[:-count]}


def split_headers(text: str, violations: list[Violation] | None = None,
                  ) -> tuple[dict[str, str], list[tuple[int, str]],
                             dict[str, int]]:
    """Split raw ABC text into header fields and body lines.

    Returns (headers, body lines as (1-based line number, text) pairs,
    the line number of each header field). The header section ends at the
    K: field or at a line that is not a header; it is read to the end, so
    that the soft violations go into ``violations`` before any header
    error raises.
    """
    headers: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    lines = text.splitlines()
    error = None
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        match = _HEADER_RE.match(line)
        if not match:
            error = error or ParseError(
                "tune body may not begin before the K: field",
                line=idx, column=1, rule_id="abc.header_key")
            break
        field = match.group(1)
        problem = ("unsupported" if field not in "XTKML" else
                   "duplicate" if field != "T" and field in headers else None)
        if problem and not error:
            error = ParseError(f"{problem} header field {field}:", line=idx,
                               column=1, rule_id="abc.header")
        headers[field] = match.group(2).strip()
        header_lines[field] = idx
        if field == "K":
            break
    key_line = header_lines.get("K", 0)
    body = list(enumerate(lines[key_line:], start=key_line + 1)) \
        if key_line else []
    if violations is not None:
        violations.extend(
            Violation(rule, f"missing {label} header field")
            for field, rule, label in _REQUIRED_HEADERS if field not in headers)
        last = next((raw for _, raw in reversed(body) if raw.strip()), "")
        if last and not last.rstrip().endswith(("|", "|]")):
            violations.append(Violation(
                "abc.bar_terminated", "tune does not end with a barline"))
    if error:
        raise error
    if not key_line:
        raise ParseError("missing K: header field", rule_id="abc.header_key")
    return headers, body, header_lines


def parse_meter_field(value: str, line: int | None = None) -> TimeSignature:
    if value == "C":
        return TimeSignature(4, 4)
    if value == "C|":
        return TimeSignature(2, 2)
    try:
        return TimeSignature.parse(value)
    except ParseError as exc:
        raise ParseError(str(exc), line=line, rule_id="abc.header_meter") from None


def default_unit_length(meter: TimeSignature) -> Fraction:
    """The ABC default: 1/16 below a 3/4 meter ratio, 1/8 at or above it."""
    below = 4 * meter.numerator < 3 * meter.denominator
    return Fraction(1, 16) if below else Fraction(1, 8)


class _BodyParser:
    def __init__(self, body: list[tuple[int, str]], key_name: str,
                 unit: Fraction):
        self._body = body
        self._key_shift = key_signature_accidentals(key_name)
        self._unit_beats = (unit.numerator * 4, unit.denominator)
        # The pitches and ticks of each distinct note token.
        self._notes: dict[str, tuple[tuple[int], int]] = {}
        # The measure built from each distinct measure text (_scan_measure).
        self._measure_of: dict[str, Measure] = {}
        self._measures: list[Measure] = []
        self._pending: list[Event] = []
        self._onset = 0
        self._last_was_event = False
        self._last_was_bar = False
        self._finished = False

    def run(self) -> tuple[tuple[Measure, ...], bool]:
        for line_no, text in self._body:
            self._scan_line(line_no, text)
        if self._pending:
            self._measures.append(Measure.trusted(tuple(self._pending)))
            final_barline = False
        else:
            final_barline = self._last_was_bar
        if not self._measures:
            raise ParseError("tune body contains no music", rule_id="abc.parse")
        return tuple(self._measures), final_barline

    def _scan_line(self, line_no: int, text: str) -> None:
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if self._finished:
                raise ParseError(
                    "content after final barline", line=line_no, column=i + 1,
                    rule_id="abc.parse")
            if ch == "|":
                i = self._scan_bar(line_no, text, i)
            elif not self._pending and (end := text.find("|", i)) != -1:
                measure = self._scan_measure(line_no, text, i, end)
                i = self._scan_bar(line_no, text, end, measure)
            else:
                i = self._scan_item(line_no, text, i)

    def _scan_measure(self, line_no: int, text: str, i: int,
                      end: int) -> Measure:
        """The measure written as ``text[i:end]``, from its first event to
        its closing barline. Every measure starts in the same state, so
        a repeated text is scanned only once; a text that raises is not
        kept, and a measure that spans lines is scanned item by item."""
        key = text[i:end]
        measure = self._measure_of.get(key)
        if measure is None:
            while i < end:
                i = (i + 1 if text[i].isspace()
                     else self._scan_item(line_no, text, i))
            measure = Measure.trusted(tuple(self._pending))
            self._measure_of[key] = measure
        return measure

    def _scan_item(self, line_no: int, text: str, i: int) -> int:
        """Scan the note, rest, chord or tie at ``i``; the index after it."""
        ch = text[i]
        if ch == "[":
            return self._scan_chord(line_no, text, i)
        if ch == "z":
            return self._scan_rest(line_no, text, i)
        if ch == "-":
            self._apply_tie(line_no, i)
            return i + 1
        if ch in "^_=" or ch.upper() in LETTER_SEMITONES:
            return self._scan_note(line_no, text, i)
        raise ParseError(
            f"unexpected character {ch!r}", line=line_no, column=i + 1,
            rule_id="abc.parse")

    def _scan_bar(self, line_no: int, text: str, i: int,
                  measure: Measure | None = None) -> int:
        """Scan the barline at ``i``, closing ``measure`` or the events
        pending; the index after it."""
        if text.startswith("|]", i):
            self._finished = True
            width = 2
        elif text.startswith("||", i):
            width = 2
        else:
            width = 1
        self._close_measure(line_no, i + 1, measure)
        self._last_was_bar = True
        self._last_was_event = False
        return i + width

    def _close_measure(self, line_no: int, column: int,
                       measure: Measure | None = None) -> None:
        if measure is None:
            if not self._pending:
                if self._measures:
                    raise ParseError(
                        "empty measure", line=line_no, column=column,
                        rule_id="abc.parse")
                return
            measure = Measure.trusted(tuple(self._pending))
        self._measures.append(measure)
        self._pending = []
        self._onset = 0

    def _emit(self, pitches: tuple[int, ...], ticks: int) -> None:
        self._pending.append(Event.trusted(self._onset, ticks, pitches))
        self._onset += ticks
        self._last_was_event = True
        self._last_was_bar = False

    def _apply_tie(self, line_no: int, i: int) -> None:
        if not self._last_was_event or not self._pending:
            raise ParseError(
                "tie must directly follow a note", line=line_no, column=i + 1,
                rule_id="abc.parse")
        last = self._pending[-1]
        if last.is_rest:
            raise ParseError(
                "rests cannot be tied", line=line_no, column=i + 1,
                rule_id="abc.parse")
        self._pending[-1] = Event.trusted(
            last.onset_ticks, last.duration_ticks, last.pitches, True)
        self._last_was_event = False

    def _scan_rest(self, line_no: int, text: str, i: int) -> int:
        ticks, end = self._scan_duration(line_no, text, i + 1, i + 1)
        self._emit((), ticks)
        return end

    def _scan_note(self, line_no: int, text: str, i: int) -> int:
        # No match only for an accidental without a letter: _scan_pitch raises.
        match = _NOTE_RE.match(text, i)
        token = match[0] if match else ""
        if token not in self._notes:
            midi, end = self._scan_pitch(line_no, text, i)
            ticks, end = self._scan_duration(line_no, text, end, i + 1)
            self._notes[token] = ((midi,), ticks)
        self._emit(*self._notes[token])
        return i + len(token)

    def _scan_chord(self, line_no: int, text: str, i: int) -> int:
        column = i + 1
        i += 1
        pitches: list[int] = []
        while True:
            if i >= len(text):
                raise ParseError(
                    "unterminated chord", line=line_no, column=column,
                    rule_id="abc.parse")
            ch = text[i]
            if ch == "]":
                i += 1
                break
            if ch in "0123456789/":
                raise ParseError(
                    "chord notes cannot carry their own durations",
                    line=line_no, column=i + 1, rule_id="abc.parse")
            if not (ch in "^_=" or ch.upper() in LETTER_SEMITONES):
                raise ParseError(
                    f"unexpected character {ch!r} in chord", line=line_no,
                    column=i + 1, rule_id="abc.parse")
            midi, i = self._scan_pitch(line_no, text, i)
            pitches.append(midi)
        if not pitches:
            raise ParseError(
                "empty chord", line=line_no, column=column, rule_id="abc.parse")
        ticks, i = self._scan_duration(line_no, text, i, column)
        self._emit(tuple(sort_chord(pitches)), ticks)
        return i

    def _scan_pitch(self, line_no: int, text: str, i: int) -> tuple[int, int]:
        match = _PITCH_RE.match(text, i)
        if not match:
            raise ParseError(
                "accidental must be followed by a note letter",
                line=line_no, column=i + 1, rule_id="abc.parse")
        accidental, letter, marks = match.groups()
        semitones = ((72 if letter.islower() else 60)
                     + LETTER_SEMITONES[letter.upper()]
                     + 12 * (marks.count("'") - marks.count(","))
                     + (_ACCIDENTALS[accidental] if accidental
                        else self._key_shift.get(letter.upper(), 0)))
        try:
            return check_midi(semitones), match.end()
        except PitchError as exc:
            raise ParseError(
                str(exc), line=line_no, column=i + 1,
                rule_id="abc.pitch_range") from None

    def _scan_duration(self, line_no: int, text: str, i: int,
                       event_column: int) -> tuple[int, int]:
        """The duration in ticks of the event at ``event_column`` whose
        length multiplier starts at ``i``, and the index after it."""
        match = _LENGTH_RE.match(text, i)
        digits, slashes, below = match.groups()
        where = {"line": line_no, "column": i + 1, "rule_id": "abc.parse"}
        numerator = _number(digits, **where) if digits else 1
        if below and len(slashes) > 1:
            raise ParseError("malformed duration", **where)
        denominator = _number(below, **where) if below else 2 ** len(slashes)
        if numerator == 0 or denominator == 0:
            raise ParseError("duration must be positive", **where)
        unit_num, unit_den = self._unit_beats
        return beats_to_ticks(
            unit_num * numerator, unit_den * denominator, line=line_no,
            column=event_column, rule_id="abc.duration_resolution"), match.end()


def parse_abc(text: str,
              violations: list[Violation] | None = None) -> ScoreDoc:
    """Parse ABC text into a document, raising ParseError on any violation.

    Soft violations, which do not stop the parse, are appended to
    ``violations`` when it is given.
    """
    headers, body, line_of = split_headers(text, violations)
    x_field = headers.get("X")
    if x_field is not None and not (x_field.isascii() and x_field.isdigit()):
        raise ParseError("X: field must be a number", line=line_of["X"],
                         rule_id="abc.header_x")
    key_name = headers["K"]
    if key_name not in MAJOR_KEY_SIGNATURES:
        raise ParseError(
            f"unsupported key {key_name!r}", line=line_of["K"],
            rule_id="abc.header_key")
    key = KeySignature.parse(key_name)
    if "M" not in headers:
        raise ParseError("missing M: header field", rule_id="abc.header_meter")
    meter = parse_meter_field(headers["M"], line_of["M"])
    if "L" in headers:
        where = {"line": line_of["L"], "rule_id": "abc.header_unit"}
        match = _UNIT_RE.fullmatch(headers["L"])
        num, den = (0, 0) if not match else (
            _number(part, **where) for part in match.groups())
        if num == 0 or den == 0:
            raise ParseError(f"malformed L: field {headers['L']!r}", **where)
        unit = Fraction(num, den)
    else:
        unit = default_unit_length(meter)
    measures, final_barline = _BodyParser(body, key_name, unit).run()
    return ScoreDoc(
        format=NotationFormat.ABC_STAFF,
        key=key,
        meter=meter,
        measures=measures,
        final_barline=final_barline,
    )
