"""Parser for numbered (jianpu) notation in a plain-text transcription.

The first non-blank line is a key directive, ``1=<tonic> [N/D]``, the
meter defaulting to 4/4. Music tokens follow, whitespace separated:

- ``1``-``7``: one scale degree lasting one beat
- ``0``: a one-beat rest
- trailing ``'`` or ``,`` marks shift a degree up or down an octave each
- each trailing ``_`` halves the token's duration, at most 12 times
- ``-`` continues the previous note or rest for one more beat
- ``|`` closes a measure

A dash is modeled as a tied one-beat event in the measure where it
appears, so a note held across a barline contributes its beats to each
measure it spans.
"""

from __future__ import annotations

import re

from ..errors import ParseError, PitchError
from ..pitch import (MAJOR_SCALE_SEMITONES, MIDI_MAX, MIDI_MIN, JianpuNote,
                     KeySignature, jianpu_to_midi)
from ..score import (TICKS_PER_BEAT, Event, Measure, NotationFormat, ScoreDoc,
                     TimeSignature, Violation, beats_to_ticks, split_lines)

_DIRECTIVE_RE = re.compile(r"1=([A-G][#b]?)(?:\s+([0-9]+/[0-9]+))?")
_TOKEN_RE = re.compile(r"^([0-7])('+|,+)?(_+)?$")
_WORD_RE = re.compile(r"\S+")
_BAR_RE = re.compile(r"\|(?!\S)(?<!\S\|)")  # a "|" word


def parse_key_directive(line: str,
                        line_no: int) -> tuple[KeySignature, TimeSignature]:
    match = _DIRECTIVE_RE.fullmatch(line.strip())
    if not match:
        raise ParseError(
            f"malformed key directive {line.strip()!r}; expected 1=<tonic> [N/D]",
            line=line_no, rule_id="jianpu.key_directive")
    tonic, meter_text = match.groups()
    try:
        key = KeySignature.parse(tonic)
        meter = (TimeSignature.parse(meter_text) if meter_text
                 else TimeSignature(4, 4))
    except ParseError as exc:
        raise ParseError(str(exc), line=line_no,
                         rule_id="jianpu.key_directive") from None
    return key, meter


def _resolve_token(token: str, key: KeySignature, line_no: int,
                   column: int) -> tuple[int, tuple[int, ...]]:
    """The duration in ticks and the pitches of a note or rest token."""
    match = _TOKEN_RE.match(token)
    if not match:
        if re.match(r"^[89]", token):
            raise ParseError(
                f"scale degree out of range in {token!r}", line=line_no,
                column=column, rule_id="jianpu.degree_range")
        raise ParseError(
            f"unexpected token {token!r}", line=line_no, column=column,
            rule_id="jianpu.parse")
    degree = int(match.group(1))
    marks = match.group(2) or ""
    octave_mod = marks.count("'") - marks.count(",")
    if degree == 0 and octave_mod:
        raise ParseError(
            "rests cannot carry octave marks", line=line_no, column=column,
            rule_id="jianpu.parse")
    duration = beats_to_ticks(
        1, 2 ** len(match.group(3) or ""), line=line_no, column=column,
        rule_id="jianpu.duration_resolution")
    if degree == 0:
        return duration, ()
    midi = key.base_midi + MAJOR_SCALE_SEMITONES[degree - 1] + 12 * octave_mod
    if MIDI_MIN <= midi <= MIDI_MAX:
        return duration, (midi,)
    try:  # out of range: the checked call raises, with its message
        return duration, (jianpu_to_midi(JianpuNote(degree, octave_mod), key),)
    except PitchError as exc:
        raise ParseError(
            str(exc), line=line_no, column=column,
            rule_id="jianpu.pitch_range") from None


def parse_jianpu(text: str,
                 key_override: KeySignature | None = None,
                 violations: list[Violation] | None = None) -> ScoreDoc:
    """Parse numbered-notation text, raising ParseError on any violation.

    ``key_override`` resolves degrees in a different key than the
    directive declares, for projecting a piece whose directive is wrong.
    Music that does not end with a barline is a soft violation, added
    to ``violations`` when it is given.
    """
    lines = list(enumerate(split_lines(text), start=1))
    directive_idx = next(
        (idx for idx, (_, raw) in enumerate(lines) if raw.strip()), None)
    if directive_idx is None:
        raise ParseError("missing key directive", rule_id="jianpu.key_directive")
    if violations is not None:
        last = next((raw for _, raw in reversed(lines[directive_idx + 1:])
                     if raw.strip()), "")
        if last and not last.rstrip().endswith("|"):
            violations.append(Violation(
                "jianpu.measure_bars", "music does not end with a barline"))
    directive_line, directive = lines[directive_idx]
    key, meter = parse_key_directive(directive, directive_line)
    if key_override is not None:
        key = key_override

    closed: list[Measure] = []
    pending: list[Event] = []
    bar_seen = False
    # Duration in ticks and pitches of each distinct note or rest token.
    resolved: dict[str, tuple[int, tuple[int, ...]]] = {}
    # The measure built from each distinct measure text (see below).
    measure_of: dict[str, Measure] = {}

    def read(token: str, line_no: int, column: int) -> None:
        """Add the note, rest or dash ``token`` to the pending measure."""
        if token == "-":
            # Hold the previous event one beat more, across a barline too;
            # a closed measure is rebuilt, never changed, as it may be shared.
            if pending:
                last = pending[-1]
                pending[-1] = Event.trusted(*last[:3], True)
            elif closed:
                *held, last = closed[-1].events
                closed[-1] = Measure.trusted(
                    (*held, Event.trusted(*last[:3], True)))
            else:
                raise ParseError(
                    "dash has no note to continue", line=line_no, column=column,
                    rule_id="jianpu.parse")
            duration, pitches = TICKS_PER_BEAT, last.pitches
        else:
            if token not in resolved:
                resolved[token] = _resolve_token(token, key, line_no, column)
            duration, pitches = resolved[token]
        onset = pending[-1].onset_ticks + pending[-1].duration_ticks \
            if pending else 0
        pending.append(Event.trusted(onset, duration, pitches))

    # A measure between two barlines of one line starts in the same state
    # wherever it appears, unless a dash opens it, so each distinct text
    # is read once and kept, then taken with one lookup; a text that
    # raises is not kept. So is a line that starts and ends with nothing
    # pending after a barline, and whose first word is not a dash (which
    # rebuilds the measure before).
    line_of: dict[str, tuple[Measure, ...]] = {}
    for line_no, line in lines[directive_idx + 1:]:
        clean = bar_seen and not pending
        if clean and line in line_of:
            closed += line_of[line]
            continue
        first = len(closed)
        parts = _BAR_RE.split(line)
        bars = len(parts) - 1
        offset = 0  # parts[k] starts at line[offset]
        for k, part in enumerate(parts):
            written = part.strip()
            kept = not pending and not written.startswith("-")
            if kept and k < bars and written in measure_of:
                closed.append(measure_of[written])
                offset += len(part) + 1
                continue
            for word in _WORD_RE.finditer(part):
                read(word[0], line_no, offset + word.start() + 1)
            if k == bars:
                break
            if pending:
                closed.append(Measure.trusted(tuple(pending)))
                if kept:
                    measure_of[written] = closed[-1]
                pending.clear()
            elif bar_seen:
                raise ParseError("empty measure", line=line_no,
                                 column=offset + len(part) + 1,
                                 rule_id="jianpu.measure_bars")
            bar_seen = True
            offset += len(part) + 1
        if clean and not pending and not line.lstrip().startswith("-"):
            line_of[line] = tuple(closed[first:])

    final_barline = not pending
    if pending:
        closed.append(Measure.trusted(tuple(pending)))
    if not closed:
        raise ParseError("no music after key directive", rule_id="jianpu.parse")

    return ScoreDoc(
        format=NotationFormat.JIANPU,
        key=key,
        meter=meter,
        measures=tuple(closed),
        final_barline=final_barline,
    )
