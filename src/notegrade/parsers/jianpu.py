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

Reading a body: a line splits into words with one ``str.split``, a
``|`` word closing a measure, and each distinct word is resolved once
per batch, a degree by ``pitch.jianpu_to_midi``: the memo passed in
keeps each resolution under the key it was resolved in, if it succeeds,
and a measure shares them. One more memo, per parse, skips repeated
text: each line read from and left in a clean state (a barline seen,
nothing pending, no opening dash).
"""

from __future__ import annotations

import re
from itertools import islice

from ..errors import ParseError, PitchError
from ..pitch import JianpuNote, KeySignature, jianpu_to_midi
from ..score import (TICKS_PER_BEAT, Measure, NotationFormat, ScoreDoc,
                     TimeSignature, Violation, beats_to_ticks, split_lines)

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


def _resolve_token(token: str,
                   key: KeySignature) -> tuple[int, tuple[int, ...]]:
    """The duration in ticks and the pitches of a note or rest token; a
    ParseError it raises carries no position."""
    match = _TOKEN_RE.match(token)
    if not match:
        if re.match(r"^[89]", token):
            raise ParseError(f"scale degree out of range in {token!r}",
                             rule_id="jianpu.degree_range")
        raise ParseError(f"unexpected token {token!r}", rule_id="jianpu.parse")
    degree = int(match.group(1))
    marks = match.group(2) or ""
    octave_mod = marks.count("'") - marks.count(",")
    if degree == 0 and octave_mod:
        raise ParseError("rests cannot carry octave marks",
                         rule_id="jianpu.parse")
    duration = beats_to_ticks(1, 2 ** len(match.group(3) or ""),
                              rule_id="jianpu.duration_resolution")
    if degree == 0:
        return duration, ()
    try:
        return duration, (jianpu_to_midi(JianpuNote(degree, octave_mod), key),)
    except PitchError as exc:
        raise ParseError(str(exc), rule_id="jianpu.pitch_range") from None


def _column(line: str, n: int) -> int:
    """The 1-based column of word ``n`` of ``line``."""
    return next(islice(re.finditer(r"\S+", line), n, None)).start() + 1


def parse_jianpu(text: str,
                 key_override: KeySignature | None = None,
                 violations: list[Violation] | None = None,
                 memo: dict | None = None) -> ScoreDoc:
    """Parse numbered-notation text, raising ParseError on any violation.

    ``key_override`` resolves degrees in a different key than the
    directive declares, for projecting a piece whose directive is wrong.
    Music that does not end with a barline is a soft violation, added
    to ``violations`` when it is given. ``memo`` is a batch's memo of
    resolved text; without one, the parse starts its own.
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
    pending: list[tuple] = []  # the sounds of the open measure
    ties: list[int] = []  # the indices in ``pending`` of its tied sounds
    bar_seen = False
    # The (ticks, pitches) of each distinct word, and of a dash by pitches.
    resolved = {} if memo is None else memo.setdefault(("jianpu", key), {})
    # The measures each line read from a clean state closed (see the
    # module docstring).
    line_of: dict[str, tuple[Measure, ...]] = {}
    for line_no, line in lines[directive_idx + 1:]:
        clean = bar_seen and not pending
        if clean and line in line_of:
            closed += line_of[line]
            continue
        first = len(closed)
        for n, word in enumerate(line.split()):
            sound = resolved.get(word)
            if sound is None and word == "|":
                if pending:
                    closed.append(Measure(tuple(pending), tuple(ties)))
                    pending, ties = [], []
                elif bar_seen:
                    raise ParseError("empty measure", line=line_no,
                                     column=_column(line, n),
                                     rule_id="jianpu.measure_bars")
                bar_seen = True
                continue
            if sound is None and word == "-":
                # Tie the sound before (never tied yet) to one beat more,
                # across a barline too; a closed measure is rebuilt, never
                # changed, as it may be shared.
                if pending:
                    ties.append(len(pending) - 1)
                    held = pending[-1]
                elif closed:
                    sounds, tied = closed[-1]
                    closed[-1] = Measure(sounds, (*tied, len(sounds) - 1))
                    held = sounds[-1]
                else:
                    raise ParseError(
                        "dash has no note to continue", line=line_no,
                        column=_column(line, n), rule_id="jianpu.parse")
                sound = resolved.setdefault(held[1], (TICKS_PER_BEAT, held[1]))
            elif sound is None:
                try:
                    sound = resolved[word] = _resolve_token(word, key)
                except ParseError as exc:
                    exc.line, exc.column = line_no, _column(line, n)
                    raise
            pending.append(sound)
        if clean and not pending and not line.lstrip().startswith("-"):
            line_of[line] = tuple(closed[first:])

    final_barline = not pending
    if pending:
        closed.append(Measure(tuple(pending), tuple(ties)))
    if not closed:
        raise ParseError("no music after key directive", rule_id="jianpu.parse")

    return ScoreDoc(
        format=NotationFormat.JIANPU,
        key=key,
        meter=meter,
        measures=tuple(closed),
        final_barline=final_barline,
    )
