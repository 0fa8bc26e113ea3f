"""Pitch arithmetic: MIDI pitch model, scientific pitch names, guitar string/fret
and numbered-notation degree conversion, and chord-frame sorting.

All pitches are carried internally as MIDI note numbers (integers 0-127,
C4 = 60). Every operation here is pure; values are immutable.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable

from .errors import ParseError, PitchError

MIDI_MIN = 0
MIDI_MAX = 127

# Sharp-canonical pitch class names; flats are accepted on input only.
SHARP_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
FLAT_NAMES = ("C", "Db", "D", "Eb", "E", "F", "Gb", "G", "Ab", "A", "Bb", "B")

_PITCH_CLASSES = {**dict(zip(FLAT_NAMES, range(12))),
                  **dict(zip(SHARP_NAMES, range(12)))}

LETTER_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}

# Semitone offsets of major-scale degrees 1..7 above the tonic.
MAJOR_SCALE_SEMITONES = (0, 2, 4, 5, 7, 9, 11)

# Degree 1 of C major sits at middle C; other tonics shift within the same
# octave region (tonic pitch class added to 60).
TONIC_BASE_MIDI = 60

_PITCH_NAME_RE = re.compile(r"([A-Ga-g])([#b]?)(-?)([0-9]+)")


def check_midi(value: int) -> int:
    """Validate a MIDI note number, returning it unchanged."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PitchError(f"MIDI pitch must be an integer, got {value!r}")
    if not MIDI_MIN <= value <= MIDI_MAX:
        raise PitchError(f"MIDI pitch {value} outside {MIDI_MIN}..{MIDI_MAX}")
    return value


class ScientificPitch(namedtuple("ScientificPitch", "letter sharp octave")):
    """A pitch name with octave, e.g. C4 (middle C) or F#5, ordered by
    its fields.

    Canonical spellings use sharps only. Flat names are accepted by
    :func:`scientific_to_midi` and normalized to the enharmonic sharp.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, letter: str, sharp: bool,
                octave: int) -> "ScientificPitch":
        if letter not in LETTER_SEMITONES:
            raise PitchError(f"pitch letter must be A-G, got {letter!r}")
        if not -1 <= octave <= 9:
            raise PitchError(f"octave {octave} outside -1..9")
        return super().__new__(cls, letter, sharp, octave)

    @property
    def name(self) -> str:
        return f"{self.letter}{'#' if self.sharp else ''}{self.octave}"

    def __str__(self) -> str:
        return self.name


def midi_to_scientific(midi: int) -> ScientificPitch:
    """Name a MIDI pitch in sharp-canonical scientific notation (60 -> C4)."""
    check_midi(midi)
    octave, pc = divmod(midi, 12)
    name = SHARP_NAMES[pc]
    return ScientificPitch(letter=name[0], sharp=name.endswith("#"), octave=octave - 1)


def scientific_to_midi(pitch: ScientificPitch | str) -> int:
    """Convert a pitch name (or ScientificPitch) to its MIDI note number.

    String input accepts flat spellings ("Db4" -> 61); the result is the
    enharmonic MIDI value, so flats normalize to sharps for free.
    """
    if isinstance(pitch, ScientificPitch):
        semis = LETTER_SEMITONES[pitch.letter] + (1 if pitch.sharp else 0)
        return check_midi((pitch.octave + 1) * 12 + semis)
    match = _PITCH_NAME_RE.fullmatch(pitch.strip())
    if not match:
        raise ParseError(f"malformed pitch name {pitch!r}")
    letter, accidental, sign, digits = match.groups()
    digits = digits.lstrip("0") or "0"
    if len(digits) > 2:  # checked before int(), which caps its digits
        raise PitchError(f"pitch name with a {len(digits)}-digit octave is "
                         f"outside MIDI {MIDI_MIN}..{MIDI_MAX}")
    semis = LETTER_SEMITONES[letter.upper()]
    if accidental == "#":
        semis += 1
    elif accidental == "b":
        semis -= 1
    midi = (int(sign + digits) + 1) * 12 + semis
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise PitchError(f"pitch {pitch!r} maps to MIDI {midi}, outside 0..127")
    return midi


def pitch_class_from_name(name: str) -> int:
    """Parse a bare pitch class ("C", "F#", "Bb") into 0..11."""
    try:
        return _PITCH_CLASSES[name.strip()]
    except KeyError:
        raise ParseError(f"unknown pitch class {name!r}") from None


class KeySignature(namedtuple("KeySignature", "tonic mode")):
    """A major key identified by its tonic pitch class (0..11)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, tonic: int, mode: str = "major") -> "KeySignature":
        if not 0 <= tonic <= 11:
            raise PitchError(f"tonic pitch class {tonic} outside 0..11")
        if mode != "major":
            raise PitchError(f"unsupported mode {mode!r} (major only)")
        return super().__new__(cls, tonic, mode)

    @classmethod
    def parse(cls, name: str) -> "KeySignature":
        return cls(tonic=pitch_class_from_name(name))

    @property
    def name(self) -> str:
        return SHARP_NAMES[self.tonic]

    @property
    def base_midi(self) -> int:
        """MIDI value of scale degree 1 without octave modifiers."""
        return TONIC_BASE_MIDI + self.tonic


class Tuning(namedtuple("Tuning", "base")):
    """Open-string MIDI pitches indexed by string number 1 (highest) to 6."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, base: tuple[int, int, int, int, int, int]) -> "Tuning":
        if len(base) != 6:
            raise PitchError("tuning must define exactly 6 strings")
        for value in base:
            check_midi(value)
        for higher, lower in zip(base, base[1:]):
            if higher <= lower:
                raise PitchError("string pitches must strictly decrease from string 1 to 6")
        return super().__new__(cls, base)

    @classmethod
    def from_json(cls, value: object) -> "Tuning":
        """Build a tuning from decoded JSON: a list of 6 integers."""
        if not isinstance(value, list) or len(value) != 6 or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise PitchError("tuning must be a list of 6 integers")
        return cls(tuple(value))

    def open_midi(self, string: int) -> int:
        if not 1 <= string <= 6:
            raise PitchError(f"string number {string} outside 1..6")
        return self.base[string - 1]


STANDARD_TUNING = Tuning((64, 59, 55, 50, 45, 40))

FRET_MIN = 0
FRET_MAX = 24


class TabEvent(namedtuple("TabEvent", "string fret column")):
    """One fretted (or open) note: string 1-6, fret 0-24, temporal column."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, string: int, fret: int, column: int = 0) -> "TabEvent":
        if not 1 <= string <= 6:
            raise PitchError(f"string {string} outside 1..6")
        if not FRET_MIN <= fret <= FRET_MAX:
            raise PitchError(f"fret {fret} outside {FRET_MIN}..{FRET_MAX}")
        if column < 0:
            raise PitchError(f"column {column} must be >= 0")
        return super().__new__(cls, string, fret, column)


class JianpuNote(namedtuple("JianpuNote", "degree octave_mod duration")):
    """A numbered-notation token: scale degree (0 = rest), octave shift, beats."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace uses it

    def __new__(cls, degree: int, octave_mod: int = 0,
                duration: Fraction = Fraction(1)) -> "JianpuNote":
        if not 0 <= degree <= 7:
            raise PitchError(f"degree {degree} outside 0..7")
        if duration <= 0:
            raise PitchError(f"duration {duration} must be positive")
        return super().__new__(cls, degree, octave_mod, duration)


def tab_to_midi(event: TabEvent, tuning: Tuning = STANDARD_TUNING) -> int:
    """Resolve a string/fret position to its MIDI pitch under the tuning."""
    midi = tuning.open_midi(event.string) + event.fret
    if midi > MIDI_MAX:
        raise PitchError(
            f"string {event.string} fret {event.fret} exceeds MIDI range ({midi})")
    return midi


def jianpu_to_midi(note: JianpuNote, key: KeySignature) -> int:
    """Resolve a scale degree in a key to its absolute MIDI pitch.

    Degree 0 is a rest and carries no pitch; passing one is a caller bug.
    """
    if note.degree == 0:
        raise PitchError("degree 0 is a rest and has no pitch")
    midi = (key.base_midi
            + MAJOR_SCALE_SEMITONES[note.degree - 1]
            + 12 * note.octave_mod)
    if not MIDI_MIN <= midi <= MIDI_MAX:
        raise PitchError(
            f"degree {note.degree} octave {note.octave_mod:+d} in {key.name} "
            f"maps to MIDI {midi}, outside 0..127")
    return midi


def sort_chord(frame: Iterable[int]) -> list[int]:
    """Order a chord frame ascending by pitch, collapsing duplicates.

    Unison doublings are a rendering detail; the canonical form is set-like.
    """
    pitches = sorted({check_midi(p) for p in frame})
    if not pitches:
        raise PitchError("chord frame must contain at least one pitch")
    return pitches
