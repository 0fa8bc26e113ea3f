"""The ABC tune body reader against the character scanner it replaced.

``_BodyParser`` is the scanner ``parse_abc`` used before its body was read
with one item pattern, kept here unchanged as the oracle: on any body,
both must build the same measures and the same final barline, or raise
the same ParseError at the same place.
"""

import re
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from notegrade.errors import ParseError, PitchError
from notegrade.parsers import parse_abc
from notegrade.parsers.abc_notation import (_number, default_unit_length,
                                            key_signature_accidentals,
                                            parse_meter_field, split_headers)
from notegrade.pitch import LETTER_SEMITONES, check_midi, sort_chord
from notegrade.score import Event, Measure, beats_to_ticks

_PITCH_RE = re.compile(r"([\^_=]?)([A-Ga-g])([',]*)")
_LENGTH_RE = re.compile(r"([0-9]*)(/*)([0-9]*)")
_NOTE_RE = re.compile(_PITCH_RE.pattern + _LENGTH_RE.pattern)
_ACCIDENTALS = {"^": 1, "_": -1, "=": 0}


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
            self._measures.append(Measure.of(tuple(self._pending)))
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
            measure = Measure.of(tuple(self._pending))
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
            measure = Measure.of(tuple(self._pending))
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


def _outcome(parse):
    """What ``parse`` gives: (measures' events, final barline), or the
    ParseError's (message, rule id, line, column)."""
    try:
        measures, final_barline = parse()
    except ParseError as exc:
        return "error", (exc.message, exc.rule_id, exc.line, exc.column)
    return "doc", (tuple(m.events for m in measures), final_barline)


def _by_oracle(text: str):
    headers, body, _ = split_headers(text)
    unit = (Fraction(headers["L"]) if "L" in headers
            else default_unit_length(parse_meter_field(headers["M"])))
    return _BodyParser(body, headers["K"], unit).run()


def _by_parser(text: str):
    doc = parse_abc(text)
    return doc.measures, doc.final_barline


# Items of a body: notes and rests with lengths, chords, ties and
# spaces that read, and items that raise: bad lengths, pitches and
# chords, a tie after a tie or a rest, stray characters.
_WELL_FORMED = (
    "C", "d", "^F", "_B,", "=c'", "G,,", "z", "z2", "z/", "C2", "D/2",
    "E3/2", "F//", "g/4", "d8", "[CEG]", "[ceg]2", "[G,B,D]/2", "[^FA]",
    "-", "C-", " ", "  ", "\t",
)
_ILL_FORMED = (
    "c''", "c" + "'" * 9, "A0", "B/0", "c//3", "C/3", "C" + "9" * 4400,
    "[]", "[C2E]", "[C E]", "[C", "[^]", "[Cx]", "--", "z-", "^", "_", "=",
    "x", "Z", "#", "]", "/", "3", "\u00a0",
)
_ITEM = st.one_of(*[st.sampled_from(_WELL_FORMED)] * 3,
                  st.sampled_from(_ILL_FORMED))
_MEASURE = st.lists(_ITEM, max_size=6).map("".join)


@st.composite
def _bodies(draw):
    """Measures drawn from a few texts, so that many repeat, each closed
    by a barline, a newline or nothing, between optional spaces."""
    texts = draw(st.lists(_MEASURE, min_size=1, max_size=4))
    closers = st.sampled_from(("|", "||", "|]", "\n", "|\n", " | ", ""))
    parts = draw(st.lists(st.tuples(st.sampled_from(texts), closers),
                          max_size=12))
    edges = st.sampled_from(("", " ", "  ", "|", " |"))
    return (draw(edges) + "".join(text + closer for text, closer in parts)
            + draw(edges))


@settings(max_examples=400, deadline=None)
@given(body=_bodies(), key=st.sampled_from(("C", "G", "Eb")),
       unit=st.sampled_from(("L:1/8\n", "L:1/4\n", "")))
def test_body_reader_agrees_with_the_character_scanner(body, key, unit):
    text = f"X:1\nM:4/4\n{unit}K:{key}\n{body}\n"
    assert _outcome(lambda: _by_parser(text)) == \
        _outcome(lambda: _by_oracle(text))
