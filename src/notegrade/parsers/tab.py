"""Parser for six-line ASCII guitar tablature.

Exactly six non-blank lines labeled e| B| G| D| A| E| top to bottom
(string 1, highest, to string 6). Bodies contain only digits, dashes,
and barlines; barlines must sit in the same column on every string.
A maximal digit run is one fret number, its column the run's first.
Runs sharing a start column form one chord frame. Tablature carries no
rhythm, so frames within a measure are spaced one beat apart, and the
key and meter default to C and 4/4.
"""

from __future__ import annotations

import re
from collections.abc import Container

from ..errors import ParseError, PitchError
from ..pitch import (
    FRET_MAX,
    STANDARD_TUNING,
    KeySignature,
    TabEvent,
    Tuning,
    tab_to_midi,
)
from ..score import (TICKS_PER_BEAT, Event, Measure, NotationFormat, ScoreDoc,
                     TimeSignature)

STRING_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")

_BAD_CHAR_RE = re.compile(r"[^0-9|-]")
_BAR_RE = re.compile(r"\|")
_RUN_RE = re.compile(r"[0-9]+")
_FRETLESS = str.maketrans("0123456789", "-" * 10)
_ZERO_WIDTH = ("",) * 6


def parse_ascii_tab(text: str, tuning: Tuning = STANDARD_TUNING) -> ScoreDoc:
    """Parse tablature text, raising ParseError on any violation."""
    non_blank = [(no, raw.rstrip()) for no, raw in
                 enumerate(text.splitlines(), start=1) if raw.strip()]
    if len(non_blank) != 6:
        raise ParseError(
            f"tablature needs exactly 6 lines, got {len(non_blank)}",
            rule_id="tab.six_lines")

    bodies: list[str] = []
    for (line_no, line), label in zip(non_blank, STRING_LABELS):
        if not line.startswith(label):
            raise ParseError(
                f"line must begin with {label!r}", line=line_no, column=1,
                rule_id="tab.labels")
        bodies.append(line[len(label):])

    width = len(bodies[0])
    for (line_no, _), body in zip(non_blank, bodies):
        if len(body) != width:
            raise ParseError(
                "string lines have different lengths", line=line_no,
                rule_id="tab.ragged")
    if width == 0:
        raise ParseError("tablature body is empty", rule_id="tab.parse")

    for (line_no, _), body in zip(non_blank, bodies):
        bad = _BAD_CHAR_RE.search(body)
        if bad:
            raise ParseError(
                f"character {bad[0]!r} not allowed in tablature", line=line_no,
                column=bad.start() + 3, rule_id="tab.charset")

    # With the charset checked, a body less its frets is its barlines.
    if len({body.translate(_FRETLESS) for body in bodies}) > 1:
        bars = [{m.start() for m in _BAR_RE.finditer(body)} for body in bodies]
        stray = set().union(*bars).difference(bars[0].intersection(*bars))
        raise ParseError(
            "barline does not span all six strings",
            line=non_blank[0][0], column=min(stray) + 3,
            rule_id="tab.bar_alignment")

    # A segment between barlines is keyed by its six slices, and no fret
    # run crosses a barline: each distinct run of a string's distinct
    # slices is checked and resolved once, and an error located at its first
    # run only when there is one, so every measure below parses cleanly.
    # Fret errors come first, in string order; then the leftmost pitch error.
    segments = list(zip(*(body.split("|") for body in bodies)))
    distinct = dict.fromkeys(segments)
    midi_of: list[dict[str, int]] = []
    pitch_errors: list[tuple[int, int, str]] = []  # column, string, message
    for string, ((line_no, _), body, pieces) in enumerate(
            zip(non_blank, bodies, zip(*distinct)), start=1):
        midi, too_high, unplayable = {}, {}, {}
        for text in set(_RUN_RE.findall("|".join(pieces))):
            fret = text.lstrip("0") or "0"
            # Compare lengths first: int() refuses very long digit runs.
            if len(fret) > len(str(FRET_MAX)) or int(fret) > FRET_MAX:
                too_high[text] = fret
                continue
            try:
                midi[text] = tab_to_midi(TabEvent(string, int(fret)), tuning)
            except PitchError as exc:
                unplayable[text] = str(exc)
        if too_high:
            run = _first_run(body, too_high)
            raise ParseError(
                f"fret {too_high[run[0]]} above {FRET_MAX}", line=line_no,
                column=run.start() + 3, rule_id="tab.fret_range")
        if unplayable:
            run = _first_run(body, unplayable)
            pitch_errors.append((run.start(), string, unplayable[run[0]]))
        midi_of.append(midi)
    if pitch_errors:
        column, _, message = min(pitch_errors)
        raise ParseError(message, column=column + 3,
                         rule_id="tab.pitch_range")

    # Each segment is a measure, even a silent one, but one of zero width
    # is none, and the one after the last barline is one only when it
    # holds notes. Each distinct segment is built once.
    measure_of = {segment: _measure(segment, midi_of) for segment in distinct}
    last = measure_of[segments.pop()]
    measures = list(map(measure_of.__getitem__,
                        filter(_ZERO_WIDTH.__ne__, segments)))
    if last.events:
        measures.append(last)
    elif not any(m.events for m in measure_of.values()):
        raise ParseError("tablature contains no notes", rule_id="tab.parse")

    return ScoreDoc(
        format=NotationFormat.ASCII_TAB,
        key=KeySignature.parse("C"),
        meter=TimeSignature(4, 4),
        measures=tuple(measures),
        final_barline=bool(segments) and not last.events,
    )


def _first_run(body: str, texts: Container[str]) -> re.Match:
    """The leftmost fret run in ``body`` written as one of ``texts``."""
    return next(run for run in _RUN_RE.finditer(body) if run[0] in texts)


def _measure(segment: tuple[str, ...],
             midi_of: list[dict[str, int]]) -> Measure:
    """The measure on the six string slices ``segment``: fret runs that
    start in the same column form one frame, and frames are a beat
    apart."""
    frames: dict[int, set[int]] = {}
    stride = len(segment[0]) + 1
    for run in _RUN_RE.finditer("|".join(segment)):
        string, column = divmod(run.start(), stride)
        frames.setdefault(column, set()).add(midi_of[string][run[0]])
    return Measure.trusted(tuple(
        Event.trusted(beat * TICKS_PER_BEAT, TICKS_PER_BEAT,
                      tuple(sorted(frames[column])))
        for beat, column in enumerate(sorted(frames))))
