"""The benchmark's own model of a piece, and its renderings.

A piece here is a key, a meter and a list of events. It is written out
as ground-truth JSON and as staff (ABC), jianpu and ASCII-tab text,
using only the format rules stated in the notegrade README. Nothing in
this module imports notegrade: the streams a rendering must project to
are worked out from the events, so the grader's output can be checked
against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
TONICS = {"C": 0, "Db": 1, "D": 2, "Eb": 3, "E": 4, "F": 5, "Gb": 6,
          "G": 7, "Ab": 8, "A": 9, "Bb": 10, "B": 11, "Cb": 11}
# Signature size on the circle of fifths: positive sharps, negative flats.
SIGNATURES = {"C": 0, "G": 1, "D": 2, "A": 3, "E": 4, "B": 5,
              "F": -1, "Bb": -2, "Eb": -3, "Ab": -4, "Db": -5, "Gb": -6,
              "Cb": -7}
# Keys used for generated pieces. Cb is kept out: it sounds like B and is
# used only by the fixed known-fault samples.
PIECE_KEYS = ("C", "G", "D", "A", "E", "B", "F", "Bb", "Eb", "Ab", "Db", "Gb")
LETTERS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
STANDARD_TUNING = (64, 59, 55, 50, 45, 40)   # strings 1 (e) to 6 (E)
TAB_LABELS = ("e|", "B|", "G|", "D|", "A|", "E|")
FRET_MAX = 24


@dataclass(frozen=True)
class Ev:
    """One ground-truth event. Empty ``pitches`` is a rest. ``split``
    asks the staff rendering to write the event as two tied halves."""

    pitches: tuple[int, ...]
    dur: Fraction
    split: bool = False


@dataclass(frozen=True)
class Piece:
    key: str
    meter: tuple[int, int]
    events: tuple[Ev, ...]

    @property
    def capacity(self) -> Fraction:
        return Fraction(4 * self.meter[0], self.meter[1])

    def pitch_stream(self) -> list[tuple[int, ...]]:
        return [e.pitches for e in self.events if e.pitches]

    def duration_stream(self) -> list[Fraction]:
        return [e.dur for e in self.events]


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def ground_truth_json(sample_id: str, fmt: str, piece: Piece) -> str:
    onset = Fraction(0)
    events = []
    for ev in piece.events:
        events.append({"onset_beats": fraction_text(onset),
                       "duration_beats": fraction_text(ev.dur),
                       "midi": list(ev.pitches)})
        onset += ev.dur
    return json.dumps({"id": sample_id, "format": fmt, "key": piece.key,
                       "meter": f"{piece.meter[0]}/{piece.meter[1]}",
                       "events": events}, sort_keys=True)


def diatonic(key: str, degree: int, octave: int) -> int:
    """MIDI pitch of a major-scale degree (1-7); degree 1, octave 0 sits
    at 60 plus the tonic's pitch class."""
    return 60 + TONICS[key] + MAJOR_SCALE[degree - 1] + 12 * octave


# --- staff (ABC) ----------------------------------------------------------

def _key_shift(key: str) -> dict[str, int]:
    count = SIGNATURES[key]
    if count >= 0:
        return {letter: 1 for letter in "FCGDAEB"[:count]}
    return {letter: -1 for letter in "BEADGCF"[:-count]}


def abc_pitch(midi: int, key: str) -> str:
    """Spell a MIDI pitch in ``key``, with no accidental where the key
    signature already gives the pitch, else an explicit one."""
    shift = _key_shift(key)
    options = []
    for letter, semis in LETTERS.items():
        for acc in (-1, 0, 1):
            if (semis + acc - midi) % 12 == 0:
                options.append((acc != shift.get(letter, 0), abs(acc), letter,
                                acc))
    implicit, _, letter, acc = min(options)
    mark = "" if not implicit else {-1: "_", 0: "=", 1: "^"}[acc]
    octave = (midi - acc - LETTERS[letter] - 60) // 12
    if octave >= 1:
        return mark + letter.lower() + "'" * (octave - 1)
    return mark + letter + "," * (-octave)


def abc_length(dur: Fraction) -> str:
    """A duration multiplier under L:1/4, where one unit is one beat."""
    if dur == 1:
        return ""
    if dur.numerator == 1:
        return f"/{dur.denominator}"
    if dur.denominator == 1:
        return str(dur.numerator)
    return f"{dur.numerator}/{dur.denominator}"


def abc_event(ev: Ev, key: str) -> str:
    if not ev.pitches:
        return "z" + abc_length(ev.dur)
    if len(ev.pitches) == 1:
        head = abc_pitch(ev.pitches[0], key)
    else:
        head = "[" + "".join(abc_pitch(p, key) for p in ev.pitches) + "]"
    if ev.split:
        half = abc_length(ev.dur / 2)
        return f"{head}{half}-{head}{half}"
    return head + abc_length(ev.dur)


def render_abc(events, key: str, meter: tuple[int, int], *,
               bars: list[int] | None = None, headers: str = "XMLK",
               final_bar: bool = True) -> str:
    """Write events as ABC, with the header fields named in ``headers``.
    ``bars`` gives the number of events in each measure (see group_bars)."""
    tokens = [abc_event(ev, key) for ev in events]
    groups = group_bars(tokens, bars)
    lines = {"X": "X:1", "M": f"M:{meter[0]}/{meter[1]}", "L": "L:1/4",
             "K": f"K:{key}"}
    head = "".join(lines[h] + "\n" for h in headers)
    return head + _join_bars(groups, "|") + ("|]\n" if final_bar else "\n")


def _join_bars(groups: list[list[str]], bar: str) -> str:
    """Measures joined by ``bar``, four measures to a line."""
    lines = [bar.join(" ".join(group) for group in groups[i:i + 4])
             for i in range(0, len(groups), 4)]
    return (bar.rstrip() + "\n").join(lines)


def group_bars(items: list, bars: list[int] | None) -> list:
    """Split ``items`` into measures of the sizes in ``bars``, or of four
    items each."""
    if bars is None:
        return [items[i:i + 4] for i in range(0, len(items), 4)]
    out, i = [], 0
    for size in bars:
        out.append(items[i:i + size])
        i += size
    assert i == len(items), "bar sizes must cover every item"
    return out


# --- jianpu ----------------------------------------------------------------

def jianpu_event(ev: Ev, key: str) -> str:
    if ev.pitches:
        (midi,) = ev.pitches
        octave, semis = divmod(midi - 60 - TONICS[key], 12)
        head = str(MAJOR_SCALE.index(semis) + 1)
        head += "'" * octave if octave > 0 else "," * -octave
    else:
        head = "0"
    whole, part = divmod(ev.dur, 1)
    if part == 0:
        return " ".join([head] + ["-"] * (int(whole) - 1))
    underscores = {Fraction(1, 2): "_", Fraction(1, 4): "__"}[part]
    # A dash adds one tied beat, so 3/2 is a half beat and a dash.
    return " ".join([head + underscores] + ["-"] * int(whole))


def render_jianpu(events, key: str, meter: tuple[int, int], *,
                  bars: list[int] | None = None, directive: bool = True,
                  final_bar: bool = True) -> str:
    tokens = [jianpu_event(ev, key) for ev in events]
    groups = group_bars(tokens, bars)
    head = f"1={key} {meter[0]}/{meter[1]}\n" if directive else ""
    return head + _join_bars(groups, " | ") + (" |\n" if final_bar else "\n")


# --- ASCII tab ---------------------------------------------------------------

def tab_positions(pitches: tuple[int, ...],
                  tuning=STANDARD_TUNING) -> dict[int, int]:
    """Strings (1-6) and frets for a chord frame, higher pitches on
    higher strings, each fret as low as the earlier choices allow."""
    def place(rest, first_string):
        if not rest:
            return {}
        pitch = rest[0]
        for string in range(first_string, 7):
            fret = pitch - tuning[string - 1]
            if 0 <= fret <= FRET_MAX:
                tail = place(rest[1:], string + 1)
                if tail is not None:
                    return {string: fret, **tail}
        return None

    found = place(sorted(pitches, reverse=True), 1)
    if found is None:
        raise ValueError(f"no tab position for {pitches}")
    return found


def render_tab(frames: list[tuple[int, ...]], *,
               bars: list[int] | None = None, drop_first_line: bool = False,
               final_bar: bool = True) -> str:
    """Write chord frames as six-line tab, one column group per frame.
    A bar size of 0 in ``bars`` writes an empty measure."""
    lines = [[] for _ in range(6)]
    groups = group_bars(list(frames), bars)
    for g, group in enumerate(groups):
        for line in lines:
            line.append("-")
        for frame in group:
            frets = tab_positions(frame)
            width = max(len(str(f)) for f in frets.values())
            for string in range(1, 7):
                cell = str(frets[string]) if string in frets else ""
                lines[string - 1].append(cell.ljust(width, "-") + "-")
        if final_bar or g < len(groups) - 1:
            for line in lines:
                line.append("|")
    rows = [label + "".join(line) for label, line in zip(TAB_LABELS, lines)]
    if drop_first_line:
        rows = rows[1:]
    return "\n".join(rows) + "\n"
