"""Parser for six-line ASCII guitar tablature.

Exactly six non-blank lines labeled e| B| G| D| A| E| top to bottom
(string 1, highest, to string 6). Bodies contain only digits, dashes,
and barlines; barlines must sit in the same column on every string.
A maximal digit run is one fret number, its column the run's first.
Runs sharing a start column form one chord frame. Tablature carries no
rhythm, so frames within a measure are spaced one beat apart, and the
key and meter default to C and 4/4.

Reading a body: each distinct segment (six slices between barlines) is
built once, a sound per frame, from one sweep per string over its
distinct slices.
"""

from __future__ import annotations

import re
from collections.abc import Container
from itertools import accumulate, count

from ..errors import ParseError, PitchError
from ..pitch import (
    FRET_MAX,
    MIDI_MAX,
    STANDARD_TUNING,
    KeySignature,
    TabEvent,
    Tuning,
    tab_to_midi,
)
from ..score import (TICKS_PER_BEAT, Measure, NotationFormat, ScoreDoc,
                     TimeSignature, split_lines)

STRING_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")

_RUN_RE = re.compile(r"[0-9]+")
_FRETLESS = str.maketrans("0123456789", "-" * 10)
_ZERO_WIDTH = "|" * 5  # six empty slices joined
_KEY, _METER = KeySignature.parse("C"), TimeSignature(4, 4)


def parse_ascii_tab(text: str, tuning: Tuning = STANDARD_TUNING) -> ScoreDoc:
    """Parse tablature text, raising ParseError on any violation."""
    non_blank = [(no, raw.rstrip()) for no, raw in
                 enumerate(split_lines(text), start=1) if raw.strip()]
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

    # A body less its frets is its barlines and any character not allowed.
    fretless = [body.translate(_FRETLESS) for body in bodies]
    for (line_no, _), body, bare in zip(non_blank, bodies, fretless):
        if bare.count("-") + bare.count("|") < len(bare):
            bad = re.search(r"[^0-9|-]", body)  # compiled on first use
            raise ParseError(
                f"character {bad[0]!r} not allowed in tablature", line=line_no,
                column=bad.start() + 3, rule_id="tab.charset")
    if len(set(fretless)) > 1:
        bars = [{m.start() for m in re.finditer(r"\|", body)}
                for body in bodies]
        stray = set().union(*bars).difference(bars[0].intersection(*bars))
        raise ParseError(
            "barline does not span all six strings",
            line=non_blank[0][0], column=min(stray) + 3,
            rule_id="tab.bar_alignment")

    # Each segment as the index of its first copy, keyed by its six
    # slices joined (a string hashes faster than a tuple). No fret run
    # crosses a barline: each string's distinct slices are joined and
    # swept once, each distinct run text is checked and resolved once, and
    # an error located at its first run only when there is one. Fret errors
    # come first, in string order; then the leftmost pitch error.
    slices = [body.split("|") for body in bodies]
    first_of: dict[str, int] = {}
    segments = list(map(first_of.setdefault, map("|".join, zip(*slices)),
                        count()))
    distinct = list(first_of.values())
    # A frame: the pitches of the runs that start at one index of the
    # joined slices, on any string.
    frames: dict[int, set[int]] = {}
    pitch_errors: list[tuple[int, int, str]] = []  # column, string, message
    for string, ((line_no, _), body, pieces, open_midi) in enumerate(
            zip(non_blank, bodies, slices, tuning.base), start=1):
        runs = list(_RUN_RE.finditer("|".join(map(pieces.__getitem__,
                                                   distinct))))
        midi, too_high, unplayable = {}, {}, {}
        for text in set(map(re.Match.group, runs)):
            fret = text.lstrip("0") or "0"
            # Compare lengths first: int() refuses very long digit runs.
            if len(fret) > len(str(FRET_MAX)) or int(fret) > FRET_MAX:
                too_high[text] = fret
            elif open_midi + int(fret) <= MIDI_MAX:
                midi[text] = open_midi + int(fret)
            else:  # out of range: the checked call raises, with its message
                try:
                    midi[text] = tab_to_midi(TabEvent(string, int(fret)),
                                             tuning)
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
            continue
        for run in runs:
            frames.setdefault(run.start(), set()).add(midi[run[0]])
    if pitch_errors:
        column, _, message = min(pitch_errors)
        raise ParseError(message, column=column + 3,
                         rule_id="tab.pitch_range")
    if not frames:
        raise ParseError("tablature contains no notes", rule_id="tab.parse")

    # Each distinct segment is a measure of its frames, a beat apart;
    # segment k of the joined slices ends before ends[k].
    ends = list(accumulate(len(slices[0][i]) + 1 for i in distinct))
    sounds: list[list[tuple]] = [[] for _ in ends]
    k = 0
    for index in sorted(frames):
        while index >= ends[k]:
            k += 1
        sounds[k].append((TICKS_PER_BEAT, tuple(sorted(frames[index]))))
    measure_of = dict(zip(distinct, (Measure(tuple(s), ()) for s in sounds)))
    # Each segment is a measure, even a silent one, but one of zero width
    # is none, and the one after the last barline is one only when it
    # holds notes.
    last = measure_of[segments.pop()]
    zero_width = first_of.get(_ZERO_WIDTH, -1)
    measures = list(map(measure_of.__getitem__,
                        filter(zero_width.__ne__, segments)))
    if last.sounds:
        measures.append(last)

    return ScoreDoc(
        format=NotationFormat.ASCII_TAB,
        key=_KEY,
        meter=_METER,
        measures=tuple(measures),
        final_barline=bool(segments) and not last.sounds,
    )


def _first_run(body: str, texts: Container[str]) -> re.Match:
    """The leftmost fret run in ``body`` written as one of ``texts``."""
    return next(run for run in _RUN_RE.finditer(body) if run[0] in texts)
