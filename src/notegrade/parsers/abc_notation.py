"""Parser for a strict subset of ABC staff notation.

Supported surface: X/T/K/M/L header fields, notes with ^/_/= accidentals
and '/, octave marks, slash or fraction duration multipliers, z rests,
[..] chords with a single outer multiplier, - ties, and |, ||, |] bars.
Accidentals apply to the note they precede only; they do not persist
through the measure.

Reading a body: one ``findall`` lists a line's items, barlines
included, and each distinct item, pitch and length text is resolved
once per batch: the caller's memo keeps each resolution under the key
and unit length it depends on, and only resolutions that succeed; a
measure shares them. One more memo, per parse, skips repeated text:
each line read from and left in a clean state (a measure closed before
it, so "|" opens no empty measure, and nothing pending after it).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from ..errors import ParseError, PitchError
from ..pitch import LETTER_SEMITONES, KeySignature, check_midi, sort_chord
from ..score import (Measure, NotationFormat, ScoreDoc, TimeSignature,
                     Violation, beats_to_ticks, split_lines)

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
_PITCHES_RE = re.compile(r"(?:[\^_=]?[A-Ga-g][',]*)*")
_LENGTH_RE = re.compile(r"([0-9]*)(/*)([0-9]*)")
_ACCIDENTALS = {"^": 1, "_": -1, "=": 0}
# One item of a tune body, after any whitespace: a barline, a rest, note
# or chord with its length, a "[" that opens no well-formed chord with
# the rest of its line (its error stops the parse), or any other
# character (a tie, a stray accidental, ...).
_ITEM_RE = re.compile(r"\s*(\|[|\]]?|(?:z|[\^_=]?[A-Ga-g][',]*"
                      r"|\[(?:[\^_=]?[A-Ga-g][',]*)+\])[0-9]*/*[0-9]*"
                      r"|\[.*|\S)")


def _number(digits: str, line: int, column: int | None = None,
            rule_id: str = "abc.parse") -> int:
    """``int(digits)``, or a ParseError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long",
                         line=line, column=column, rule_id=rule_id) from None


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
    lines = split_lines(text)
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


def _error(message: str, line_no: int, i: int) -> ParseError:
    """An ``abc.parse`` error at index ``i`` of line ``line_no``."""
    return ParseError(message, line=line_no, column=i + 1, rule_id="abc.parse")


def _parse_body(body: list[tuple[int, str]], key_name: str, unit: Fraction,
                memo: dict) -> tuple[tuple[Measure, ...], bool]:
    """The measures of a tune body, and whether it ends on a barline."""
    key_shift = key_signature_accidentals(key_name)
    unit_beats = (unit.numerator * 4, unit.denominator)
    # The ticks and pitches of each distinct rest, note or chord text,
    # and of the pitch and length texts they are made of.
    sounds, parts = memo.setdefault(("abc", key_name, unit_beats), ({}, {}))
    line_of: dict[str, tuple[Measure, ...]] = {}
    measures: list[Measure] = []
    pending: list[tuple] = []  # the sounds of the open measure
    ties: list[int] = []  # the indices in ``pending`` of its tied sounds
    lines = iter(body)
    for line_no, text in lines:
        first = len(measures)
        clean = first and not pending
        if clean and text in line_of:
            measures += line_of[text]
            continue
        items = _ITEM_RE.findall(text)
        for k, item in enumerate(items):
            sound = sounds.get(item)
            if sound is None:
                if item[0] == "|":
                    if pending:
                        measures.append(Measure(tuple(pending), tuple(ties)))
                        pending, ties = [], []
                    elif measures:
                        raise _error("empty measure", line_no,
                                     _item_start(text, k))
                    if item == "|]":
                        # The tune ends: only blank text may follow. Reading
                        # the rest of ``lines`` ends the outer loop too.
                        if k + 1 < len(items):
                            raise _error("content after final barline",
                                         line_no, _item_start(text, k + 1))
                        for after_no, after in lines:
                            found = _ITEM_RE.match(after)
                            if found:
                                raise _error("content after final barline",
                                             after_no, found.start(1))
                    continue
                if item == "-":
                    # A tied last sound means the item before was a tie too.
                    if not pending or ties and ties[-1] == len(pending) - 1:
                        raise _error("tie must directly follow a note",
                                     line_no, _item_start(text, k))
                    if not pending[-1][1]:
                        raise _error("rests cannot be tied", line_no,
                                     _item_start(text, k))
                    ties.append(len(pending) - 1)
                    continue
                try:
                    sound = sounds[item] = _resolve(
                        item, line_no, key_shift, unit_beats, parts)
                except ParseError as exc:
                    exc.column += _item_start(text, k)
                    raise
            pending.append(sound)
        if clean and not pending:
            line_of[text] = tuple(measures[first:])
    if pending:
        measures.append(Measure(tuple(pending), tuple(ties)))
    if not measures:
        raise ParseError("tune body contains no music", rule_id="abc.parse")
    # Without a measure pending, the last item closed one: a barline.
    return tuple(measures), not pending


def _item_start(text: str, k: int) -> int:
    """The index in ``text`` of its item ``k``."""
    return next(islice(_ITEM_RE.finditer(text), k, None)).start(1)


def _resolve(item: str, line_no: int, key_shift: dict[str, int],
             unit_beats: tuple[int, int],
             parts: dict) -> tuple[int, tuple[int, ...]]:
    """The ticks and pitches of the rest, note or chord ``item``, located
    as if it began its line; ``parts`` memoizes pitch and length texts."""
    if item[0] == "[":
        return _scan_chord(item, line_no, key_shift, unit_beats, parts)
    if item in _ACCIDENTALS:
        raise _error("accidental must be followed by a note letter",
                     line_no, 0)
    if len(item) == 1 and item not in "zABCDEFGabcdefg":
        raise _error(f"unexpected character {item!r}", line_no, 0)
    pitch = item.rstrip("0123456789/")  # the length is digits and slashes
    length = item[len(pitch):]
    if pitch not in parts:
        parts[pitch] = () if pitch == "z" else (_pitch(
            *_PITCH_RE.fullmatch(pitch).groups(), key_shift, line_no, 0),)
    if length not in parts:
        parts[length] = _ticks(*_LENGTH_RE.fullmatch(length).groups(),
                               line_no, len(pitch), 1, unit_beats)
    return parts[length], parts[pitch]


def _scan_chord(item: str, line_no: int, key_shift: dict[str, int],
                unit_beats: tuple[int, int],
                parts: dict) -> tuple[int, tuple[int, ...]]:
    """The ticks and pitches of the chord ``item``, which may be the rest
    of a line: its notes are read in one pass, then what ends them."""
    end = _PITCHES_RE.match(item, 1).end()
    chord = []
    for note in _PITCH_RE.finditer(item, 1, end):
        if note[0] not in parts:
            parts[note[0]] = (_pitch(*note.groups(), key_shift, line_no,
                                     note.start()),)
        chord += parts[note[0]]
    ch = item[end:end + 1]
    if ch != "]":
        raise _error(
            "unterminated chord" if not ch else
            "chord notes cannot carry their own durations"
            if ch in "0123456789/" else
            "accidental must be followed by a note letter" if ch in "^_="
            else f"unexpected character {ch!r} in chord",
            line_no, end if ch else 0)
    if not chord:
        raise _error("empty chord", line_no, 0)
    return (_ticks(*_LENGTH_RE.match(item, end + 1).groups(), line_no,
                   end + 1, 1, unit_beats), tuple(sort_chord(chord)))


def _pitch(accidental: str, letter: str, marks: str,
           key_shift: dict[str, int], line_no: int, i: int) -> int:
    """The MIDI number of the note written from index ``i``."""
    semitones = ((72 if letter.islower() else 60)
                 + LETTER_SEMITONES[letter.upper()]
                 + 12 * (marks.count("'") - marks.count(","))
                 + (_ACCIDENTALS[accidental] if accidental
                    else key_shift.get(letter.upper(), 0)))
    try:
        return check_midi(semitones)
    except PitchError as exc:
        raise ParseError(
            str(exc), line=line_no, column=i + 1,
            rule_id="abc.pitch_range") from None


def _ticks(digits: str, slashes: str, below: str, line_no: int, i: int,
           event_column: int, unit_beats: tuple[int, int]) -> int:
    """The duration in ticks of the event at ``event_column`` whose
    length multiplier, written from ``i``, has these three parts."""
    numerator = _number(digits, line_no, i + 1) if digits else 1
    if below and len(slashes) > 1:
        raise _error("malformed duration", line_no, i)
    denominator = _number(below, line_no, i + 1) if below else \
        2 ** len(slashes)
    if numerator == 0 or denominator == 0:
        raise _error("duration must be positive", line_no, i)
    unit_num, unit_den = unit_beats
    return beats_to_ticks(
        unit_num * numerator, unit_den * denominator, line=line_no,
        column=event_column, rule_id="abc.duration_resolution")


def parse_abc(text: str, violations: list[Violation] | None = None,
              memo: dict | None = None) -> ScoreDoc:
    """Parse ABC text into a document, raising ParseError on any violation.

    Soft violations, which do not stop the parse, are appended to
    ``violations`` when it is given. ``memo`` is a batch's memo of
    resolved text; without one, the parse starts its own.
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
            _number(part, line_of["L"], rule_id="abc.header_unit")
            for part in match.groups())
        if num == 0 or den == 0:
            raise ParseError(f"malformed L: field {headers['L']!r}", **where)
        unit = Fraction(num, den)
    else:
        unit = default_unit_length(meter)
    measures, final_barline = _parse_body(body, key_name, unit,
                                          {} if memo is None else memo)
    return ScoreDoc(
        format=NotationFormat.ABC_STAFF,
        key=key,
        meter=meter,
        measures=measures,
        final_barline=final_barline,
    )
