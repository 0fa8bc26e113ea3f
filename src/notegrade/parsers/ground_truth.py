"""Reader for ground-truth annotation JSON.

Ground truth is benchmark data, not model output, so every problem here
raises SchemaError: a bad annotation means the evaluation itself cannot
be trusted and must stop.

Document shape:

    {"id": str, "format": "staff"|"jianpu"|"tab", "key": "C",
     "meter": "N/D", "tempo_bpm": 120,
     "events": [{"onset_beats": "0/1", "duration_beats": "1/1",
                 "midi": [60, 64, 67]}]}

``tempo_bpm`` is optional. Onsets and durations are exact "num/den"
strings in quarter-note beats. ``midi`` is a strictly ascending chord
frame; an empty list is a rest.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path

from ..errors import ParseError, SchemaError, json_object, read_input
from ..pitch import MIDI_MAX, MIDI_MIN, KeySignature
from ..score import GroundTruth, GroundTruthEvent, NotationFormat, TimeSignature

_BEATS_RE = re.compile(r"([0-9]+)/([0-9]+)")

_TOP_LEVEL_KEYS = {"id", "format", "key", "meter", "tempo_bpm", "events"}
_EVENT_KEYS = {"onset_beats", "duration_beats", "midi"}


def _beats(value: object, field: str, index: int,
           known: dict[str, Fraction]) -> Fraction:
    """The Fraction ``value`` writes; ``known`` memoizes the texts read."""
    if type(value) is str and value in known:
        return known[value]
    if not isinstance(value, str):
        raise SchemaError(f"events[{index}].{field} must be a num/den string")
    match = _BEATS_RE.fullmatch(value)
    try:
        num, den = (int(part) for part in match.groups()) if match else (0, 0)
    except ValueError:
        raise SchemaError(
            f"events[{index}].{field} has more digits than int() accepts"
        ) from None
    if den == 0:
        raise SchemaError(
            f"events[{index}].{field} {value!r} is not a valid num/den string")
    beats = known[value] = Fraction(num, den)
    return beats


def _event(obj: object, index: int, known: dict) -> GroundTruthEvent:
    if type(obj) is not dict or obj.keys() != _EVENT_KEYS:
        json_object(obj, f"events[{index}]", SchemaError, known=_EVENT_KEYS,
                    required=_EVENT_KEYS)  # raises, naming the flaw
    onset = _beats(obj["onset_beats"], "onset_beats", index, known)
    duration = _beats(obj["duration_beats"], "duration_beats", index, known)
    if not duration:  # no sign is written, so not zero is positive
        raise SchemaError(f"events[{index}].duration_beats must be positive")
    midi = obj["midi"]
    if not isinstance(midi, list):
        raise SchemaError(f"events[{index}].midi must be a list")
    for value in midi:
        if not isinstance(value, int) or isinstance(value, bool) or \
                not MIDI_MIN <= value <= MIDI_MAX:
            raise SchemaError(
                f"events[{index}].midi contains invalid pitch {value!r}")
    if any(a >= b for a, b in zip(midi, midi[1:])):
        raise SchemaError(
            f"events[{index}].midi must be strictly ascending")
    return GroundTruthEvent(onset, duration, tuple(midi))


def _text_field(obj: dict, name: str, parse):
    if not isinstance(obj[name], str):
        raise SchemaError(f"{name} must be a string")
    try:
        return parse(obj[name])
    except ParseError as exc:
        raise SchemaError(str(exc)) from None


def parse_ground_truth(text: str, memo: dict | None = None) -> GroundTruth:
    """Parse a ground-truth JSON document, raising SchemaError on any flaw.
    ``memo`` is a batch's memo: the Fraction of each "num/den" text read."""
    obj = json_object(text, "ground truth", SchemaError, decode=True,
                      known=_TOP_LEVEL_KEYS,
                      required=_TOP_LEVEL_KEYS - {"tempo_bpm"})

    sample_id = obj["id"]
    if not isinstance(sample_id, str) or not sample_id:
        raise SchemaError("id must be a non-empty string")
    fmt = _text_field(obj, "format", NotationFormat.parse)
    key = _text_field(obj, "key", KeySignature.parse)
    meter = _text_field(obj, "meter", TimeSignature.parse)

    tempo = obj.get("tempo_bpm")
    if tempo is not None:
        # NaN fails both comparisons, infinity and huge ints the second.
        if not isinstance(tempo, (int, float)) or isinstance(tempo, bool) or \
                not 0 < tempo <= sys.float_info.max:
            raise SchemaError(
                f"tempo_bpm must be a finite positive number, got {tempo!r}")
        tempo = float(tempo)

    if not isinstance(obj["events"], list):
        raise SchemaError("events must be a list")
    known = {} if memo is None else memo.setdefault("beats", {})
    events = tuple(_event(e, i, known) for i, e in enumerate(obj["events"]))
    for i, (a, b) in enumerate(zip(events, events[1:])):
        if a.onset_beats > b.onset_beats:
            raise SchemaError(f"events[{i + 1}] onset precedes events[{i}]")

    return GroundTruth(
        id=sample_id, format=fmt, key=key, meter=meter,
        events=events, tempo_bpm=tempo,
    )


def load_ground_truth(path: str | Path, memo: dict | None = None,
                      ) -> GroundTruth:
    """Load and parse a ground-truth file; any flaw, an unreadable file
    too, is a SchemaError that names the file."""
    try:
        return parse_ground_truth(
            read_input(path, "ground truth", SchemaError), memo)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
