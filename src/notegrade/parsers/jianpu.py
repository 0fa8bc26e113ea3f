"""Parser for numbered (jianpu) notation in a plain-text transcription.

The first non-blank line is a key directive, ``1=<tonic> [N/D]``, the
meter defaulting to 4/4. Music tokens follow, whitespace separated:

- ``1``-``7``: one scale degree lasting one beat
- ``0``: a one-beat rest
- trailing ``'`` or ``,`` marks shift a degree up or down an octave each
- each trailing ``_`` halves the token's duration
- ``-`` continues the previous note or rest for one more beat
- ``|`` closes a measure

A dash is modeled as a tied one-beat event in the measure where it
appears, so a note held across a barline contributes its beats to each
measure it spans.
"""

from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction

from ..errors import ParseError, PitchError
from ..pitch import JianpuNote, KeySignature, jianpu_to_midi
from ..score import (Event, Measure, NotationFormat, ScoreDoc,
                     TimeSignature, Violation)

_DIRECTIVE_RE = re.compile(r"1=([A-G][#b]?)(?:\s+([0-9]+/[0-9]+))?")
_TOKEN_RE = re.compile(r"^([0-7])('+|,+)?(_+)?$")


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


def _split_tokens(lines: list[tuple[int, str]]):
    for line_no, text in lines:
        column = 1
        for chunk in re.split(r"(\s+)", text):
            if chunk and not chunk.isspace():
                yield line_no, column, chunk
            column += len(chunk)


def parse_jianpu(text: str,
                 key_override: KeySignature | None = None,
                 violations: list[Violation] | None = None) -> ScoreDoc:
    """Parse numbered-notation text, raising ParseError on any violation.

    ``key_override`` resolves degrees in a different key than the
    directive declares, for projecting a piece whose directive is wrong.
    Music that does not end with a barline is a soft violation, added
    to ``violations`` when it is given.
    """
    lines = list(enumerate(text.splitlines(), start=1))
    directive_idx = None
    for idx, (_, raw) in enumerate(lines):
        if raw.strip():
            directive_idx = idx
            break
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

    closed: list[list[Event]] = []
    pending: list[Event] = []
    onset = Fraction(0)
    last_was_bar = False

    def mark_previous_tied() -> tuple[int, ...] | None:
        if pending:
            pending[-1] = replace(pending[-1], tied=True)
            return pending[-1].pitches
        if closed:
            closed[-1][-1] = replace(closed[-1][-1], tied=True)
            return closed[-1][-1].pitches
        return None

    for line_no, column, token in _split_tokens(lines[directive_idx + 1:]):
        if token == "|":
            if not pending:
                if closed or last_was_bar:
                    raise ParseError(
                        "empty measure", line=line_no, column=column,
                        rule_id="jianpu.measure_bars")
                last_was_bar = True
                continue
            closed.append(pending)
            pending = []
            onset = Fraction(0)
            last_was_bar = True
            continue
        last_was_bar = False
        if token == "-":
            pitches = mark_previous_tied()
            if pitches is None:
                raise ParseError(
                    "dash has no note to continue", line=line_no, column=column,
                    rule_id="jianpu.parse")
            pending.append(Event(onset, Fraction(1), pitches))
            onset += Fraction(1)
            continue
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
        duration = Fraction(1, 2 ** len(match.group(3) or ""))
        if degree == 0:
            pitches = ()
        else:
            try:
                midi = jianpu_to_midi(JianpuNote(degree, octave_mod), key)
            except PitchError as exc:
                raise ParseError(
                    str(exc), line=line_no, column=column,
                    rule_id="jianpu.pitch_range") from None
            pitches = (midi,)
        pending.append(Event(onset, duration, pitches))
        onset += duration

    if pending:
        closed.append(pending)
        final_barline = False
    else:
        final_barline = last_was_bar
    if not closed:
        raise ParseError("no music after key directive", rule_id="jianpu.parse")

    measures = tuple(Measure(tuple(events)) for events in closed)
    return ScoreDoc(
        format=NotationFormat.JIANPU,
        key=key,
        meter=meter,
        measures=measures,
        final_barline=final_barline,
    )
