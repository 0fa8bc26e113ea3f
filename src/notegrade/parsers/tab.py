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

from ..errors import ParseError, PitchError
from ..pitch import (
    FRET_MAX,
    STANDARD_TUNING,
    KeySignature,
    TabEvent,
    Tuning,
    sort_chord,
    tab_to_midi,
)
from ..score import (TICKS_PER_BEAT, Event, Measure, NotationFormat, ScoreDoc,
                     TimeSignature)

STRING_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")

_BAD_CHAR_RE = re.compile(r"[^0-9|-]")
_BAR_RE = re.compile(r"\|")
_RUN_RE = re.compile(r"[0-9]+")


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

    bar_cols = sorted({m.start() for b in bodies for m in _BAR_RE.finditer(b)})
    for col in bar_cols:
        if not all(b[col] == "|" for b in bodies):
            raise ParseError(
                "barline does not span all six strings",
                line=non_blank[0][0], column=col + 3,
                rule_id="tab.bar_alignment")

    # (start column, string number, fret) for each maximal digit run.
    runs: list[tuple[int, int, int]] = []
    for string_idx, body in enumerate(bodies):
        line_no = non_blank[string_idx][0]
        for run in _RUN_RE.finditer(body):
            # Compare lengths first: int() refuses very long digit runs.
            fret = run[0].lstrip("0") or "0"
            if len(fret) > len(str(FRET_MAX)) or int(fret) > FRET_MAX:
                raise ParseError(
                    f"fret {fret} above {FRET_MAX}", line=line_no,
                    column=run.start() + 3, rule_id="tab.fret_range")
            runs.append((run.start(), string_idx + 1, int(fret)))

    # One sweep over the runs in column order, cut at the barlines. Each
    # segment between barlines is a measure, even a silent one; the
    # segment after the last barline is one only when it holds notes.
    runs.sort()
    measures: list[Measure] = []
    taken = lo = 0
    for hi in (*bar_cols, width):
        frames: dict[int, list[int]] = {}
        while taken < len(runs) and runs[taken][0] < hi:
            col, string, fret = runs[taken]
            taken += 1
            try:
                midi = tab_to_midi(TabEvent(string, fret, col), tuning)
            except PitchError as exc:
                raise ParseError(
                    str(exc), column=col + 3,
                    rule_id="tab.pitch_range") from None
            frames.setdefault(col, []).append(midi)
        events = tuple(
            Event.trusted(beat * TICKS_PER_BEAT, TICKS_PER_BEAT,
                          tuple(sort_chord(frame)))
            for beat, frame in enumerate(frames.values()))
        if events or lo < hi < width:
            measures.append(Measure(events))
        lo = hi + 1
    final_barline = bool(bar_cols) and not events  # the trailing segment's

    if not any(m.events for m in measures):
        raise ParseError("tablature contains no notes", rule_id="tab.parse")

    return ScoreDoc(
        format=NotationFormat.ASCII_TAB,
        key=KeySignature.parse("C"),
        meter=TimeSignature(4, 4),
        measures=tuple(measures),
        final_barline=final_barline,
    )
