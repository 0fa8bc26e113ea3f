"""Projection of parsed documents onto canonical, format-free sequences.

Two streams come out of a document: pitch tokens (each a strictly
ascending chord frame, rests omitted) and durations in beats for every
event, rests included. Tied events merge first, so articulation of one
long note as tied pieces scores the same as the single note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from operator import attrgetter

from .errors import ConfigError
from .metrics import require_exact
from .score import TICKS_PER_BEAT, GroundTruth, ScoreDoc

DEFAULT_GRID = Fraction(1, 4)
_EVENTS = attrgetter("events")
_PITCHES = attrgetter("pitches")
_DURATION_TICKS = attrgetter("duration_ticks")
_TIED = attrgetter("tied")


@dataclass(frozen=True)
class CanonicalSequence:
    pitch_tokens: tuple[tuple[int, ...], ...]
    durations: tuple[Fraction, ...]


def project(doc: ScoreDoc) -> CanonicalSequence:
    """Flatten a document into canonical pitch and duration streams.

    An event joins the unit before it when the event before it is tied
    and has the same pitches; the unit lasts as long as its events.
    """
    events = list(chain.from_iterable(map(_EVENTS, doc.measures)))
    pitches = list(map(_PITCHES, events))
    ticks = list(map(_DURATION_TICKS, events))
    tied = list(map(_TIED, events))
    joined = [j for j in compress(range(1, len(events)), tied)
              if pitches[j] == pitches[j - 1]]
    if joined:
        keep = [True] * len(events)
        for j in joined:
            keep[j] = False
        head = 0
        for j in joined:  # ascending, so each unit's head is seen first
            if keep[j - 1]:
                head = j - 1
            ticks[head] += ticks[j]
        pitches = list(compress(pitches, keep))
        ticks = list(compress(ticks, keep))
    beats = {t: Fraction(t, TICKS_PER_BEAT) for t in set(ticks)}
    return CanonicalSequence(
        pitch_tokens=tuple(filter(None, pitches)),
        durations=tuple(map(beats.__getitem__, ticks)),
    )


def project_ground_truth(gt: GroundTruth) -> CanonicalSequence:
    return CanonicalSequence(
        pitch_tokens=tuple(e.midi for e in gt.events if e.midi),
        durations=tuple(e.duration_beats for e in gt.events),
    )


def quantize_duration(duration: Fraction, grid: Fraction) -> Fraction:
    """Snap a duration to the nearest grid multiple, at least one step.

    Exact midpoints round up: 3/8 on a 1/4 grid becomes 1/2.
    """
    require_exact("quantization grid", grid)
    if grid <= 0:
        raise ConfigError(f"quantization grid must be positive, got {grid}")
    n, d = duration.numerator, duration.denominator
    g_n, g_d = grid.numerator, grid.denominator
    # floor(n/d / (g_n/g_d) + 1/2), in integers.
    steps = (2 * n * g_d + d * g_n) // (2 * d * g_n)
    return max(steps, 1) * grid


def quantize_durations(durations: tuple[Fraction, ...],
                       grid: Fraction = DEFAULT_GRID) -> tuple[Fraction, ...]:
    """Snap every duration to the grid, as ``quantize_duration``.

    Each distinct object is hashed once and each distinct value snapped
    once, and the result holds one object per value: ``project`` writes
    one object per distinct duration, so a long stream costs a hash per
    distinct duration here and in ``edit_distance``.
    """
    snapped: dict[Fraction, Fraction] = {}
    snapped_by_id: dict[int, Fraction] = {}
    for key, duration in dict(zip(map(id, durations), durations)).items():
        value = snapped.get(duration)
        if value is None:
            value = snapped[duration] = quantize_duration(duration, grid)
        snapped_by_id[key] = value
    return tuple(map(snapped_by_id.__getitem__, map(id, durations)))


def beats_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def sequence_to_json_dict(seq: CanonicalSequence,
                          grid: Fraction | None = None) -> dict:
    out = {
        "pitch_tokens": [list(token) for token in seq.pitch_tokens],
        "durations": [beats_text(d) for d in seq.durations],
    }
    if grid is not None:
        out["quantized_durations"] = [
            beats_text(d) for d in quantize_durations(seq.durations, grid)]
    return out
