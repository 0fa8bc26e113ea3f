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
from itertools import islice, takewhile

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
_ACCIDENTALS = {"^": 1, "_": -1, "=": 0}
# One item of a tune body, after any whitespace: a barline, a tie, a rest
# or a note with its length (or a stray accidental), a chord's "[", or
# any other character. The group that matched tells which.
_ITEM_RE = re.compile(r"\s*(?:(\|\]|\|\||\|)|(-)|"
                      r"(z[0-9]*/*[0-9]*|[\^_=]?[A-Ga-g][',]*[0-9]*/*[0-9]*|[\^_=])"
                      r"|(\[)|(\S))")
_BAR, _TIE, _SOUND, _CHORD = 1, 2, 3, 4


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


def _error(message: str, line_no: int, i: int) -> ParseError:
    """An ``abc.parse`` error at index ``i`` of line ``line_no``."""
    return ParseError(message, line=line_no, column=i + 1, rule_id="abc.parse")


def _parse_body(body: list[tuple[int, str]], key_name: str,
                unit: Fraction) -> tuple[tuple[Measure, ...], bool]:
    """The measures of a tune body, and whether it ends on a barline.

    Each line is read item by item (``_ITEM_RE``), and each distinct note
    or rest text is resolved once. Every measure starts in the same
    state, so the measure written as each distinct text from a line start
    or a barline to the next barline is built once: kept when the barline
    closes it, and then taken, with the run of kept texts after it, by
    lookups into the line's parts between barlines. A text that raises is
    not kept, and a measure that spans lines is read item by item.
    """
    key_shift = key_signature_accidentals(key_name)
    unit_beats = (unit.numerator * 4, unit.denominator)
    # The pitches and ticks of each distinct note or rest text.
    sounds: dict[str, tuple[tuple[int, ...], int]] = {}
    measure_of: dict[str, Measure] = {}
    measures: list[Measure] = []
    pending: list[Event] = []
    onset = 0
    finished = False
    for line_no, text in body:
        parts = text.split("|")
        bars = len(parts) - 1
        # k counts the "|" before i: a measure starting at i is written
        # as parts[k], up to the next barline if k < bars.
        i, k, key = 0, 0, None
        while i < len(text):
            memo = None
            if not pending and not finished:
                key = parts[k] if k < bars else None
                if key in measure_of:
                    # A miss is None. The run ends past its last "|", or
                    # at it if "||" or "|]" begins there, to be read below.
                    hits = list(takewhile(
                        bool, map(measure_of.get, islice(parts, k, bars))))
                    n = len(hits)
                    measures += hits
                    i += n + sum(map(len, islice(parts, k, k + n)))
                    k += n
                    if parts[k][:1] != "]" and (parts[k] or k == bars):
                        continue
                    memo = measures.pop()
                    i, k = i - 1, k - 1
            item = _ITEM_RE.match(text, i)
            if item is None:
                break
            kind = item.lastindex
            start, i = item.start(kind), item.end()
            if finished:
                raise _error("content after final barline", line_no, start)
            if kind == _SOUND:
                token = item[kind]
                if token not in sounds:
                    sounds[token] = _scan_event(text, start, line_no,
                                                key_shift, unit_beats)[:2]
                pitches, ticks = sounds[token]
            elif kind == _CHORD:
                pitches, ticks, i = _scan_event(text, start, line_no,
                                                key_shift, unit_beats)
            elif kind == _BAR:
                if memo is None and pending:
                    memo = Measure.trusted(tuple(pending))
                    if key is not None:
                        measure_of[key] = memo
                if memo is not None:
                    measures.append(memo)
                elif measures:
                    raise _error("empty measure", line_no, start)
                pending, onset = [], 0
                finished = item[kind] == "|]"
                k += len(item[kind])
                continue
            elif kind == _TIE:
                # A tied last event means the item before was a tie too.
                if not pending or pending[-1].tied:
                    raise _error("tie must directly follow a note", line_no, start)
                last = pending[-1]
                if last.is_rest:
                    raise _error("rests cannot be tied", line_no, start)
                pending[-1] = Event.trusted(*last[:3], True)
                continue
            else:
                raise _error(f"unexpected character {item[kind]!r}", line_no, start)
            pending.append(Event.trusted(onset, ticks, pitches))
            onset += ticks
    if pending:
        measures.append(Measure.trusted(tuple(pending)))
    if not measures:
        raise ParseError("tune body contains no music", rule_id="abc.parse")
    # Without a measure pending, the last item closed one: a barline.
    return tuple(measures), not pending


def _scan_event(text: str, i: int, line_no: int, key_shift: dict[str, int],
                unit_beats: tuple[int, int]) -> tuple[tuple[int, ...], int, int]:
    """The pitches and ticks of the rest, note or chord at ``i``, and the
    index after it. A stray accidental raises from ``_scan_pitch``."""
    if text[i] == "z":
        pitches, end = (), i + 1
    elif text[i] != "[":
        midi, end = _scan_pitch(text, i, line_no, key_shift)
        pitches = (midi,)
    else:
        chord, end = [], i + 1
        while True:
            if end >= len(text):
                raise _error("unterminated chord", line_no, i)
            ch = text[end]
            if ch == "]":
                end += 1
                break
            if ch in "0123456789/":
                raise _error("chord notes cannot carry their own durations",
                             line_no, end)
            if not (ch in "^_=" or ch.upper() in LETTER_SEMITONES):
                raise _error(f"unexpected character {ch!r} in chord", line_no, end)
            midi, end = _scan_pitch(text, end, line_no, key_shift)
            chord.append(midi)
        if not chord:
            raise _error("empty chord", line_no, i)
        pitches = tuple(sort_chord(chord))
    ticks, end = _scan_duration(text, end, line_no, i + 1, unit_beats)
    return pitches, ticks, end


def _scan_pitch(text: str, i: int, line_no: int,
                key_shift: dict[str, int]) -> tuple[int, int]:
    match = _PITCH_RE.match(text, i)
    if not match:
        raise _error("accidental must be followed by a note letter",
                     line_no, i)
    accidental, letter, marks = match.groups()
    semitones = ((72 if letter.islower() else 60)
                 + LETTER_SEMITONES[letter.upper()]
                 + 12 * (marks.count("'") - marks.count(","))
                 + (_ACCIDENTALS[accidental] if accidental
                    else key_shift.get(letter.upper(), 0)))
    try:
        return check_midi(semitones), match.end()
    except PitchError as exc:
        raise ParseError(
            str(exc), line=line_no, column=i + 1,
            rule_id="abc.pitch_range") from None


def _scan_duration(text: str, i: int, line_no: int, event_column: int,
                   unit_beats: tuple[int, int]) -> tuple[int, int]:
    """The duration in ticks of the event at ``event_column`` whose
    length multiplier starts at ``i``, and the index after it."""
    match = _LENGTH_RE.match(text, i)
    digits, slashes, below = match.groups()
    where = {"line": line_no, "column": i + 1, "rule_id": "abc.parse"}
    numerator = _number(digits, **where) if digits else 1
    if below and len(slashes) > 1:
        raise _error("malformed duration", line_no, i)
    denominator = _number(below, **where) if below else 2 ** len(slashes)
    if numerator == 0 or denominator == 0:
        raise _error("duration must be positive", line_no, i)
    unit_num, unit_den = unit_beats
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
    measures, final_barline = _parse_body(body, key_name, unit)
    return ScoreDoc(
        format=NotationFormat.ABC_STAFF,
        key=key,
        meter=meter,
        measures=measures,
        final_barline=final_barline,
    )
