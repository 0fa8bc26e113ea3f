"""Projection of parsed documents onto canonical, format-free sequences.

Two streams come out of a document: pitch tokens (each a strictly
ascending chord frame, rests omitted) and durations in beats for every
event, rests included. Tied events merge first, so articulation of one
long note as tied pieces scores the same as the single note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError
from .metrics import require_exact
from .score import TICKS_PER_BEAT, GroundTruth, ScoreDoc

DEFAULT_GRID = Fraction(1, 4)


@dataclass(frozen=True)
class CanonicalSequence:
    pitch_tokens: tuple[tuple[int, ...], ...]
    durations: tuple[Fraction, ...]


def project(doc: ScoreDoc) -> CanonicalSequence:
    """Flatten a document into canonical pitch and duration streams."""
    units: list[list] = []
    for event in doc.events():
        if units and units[-1][2] and units[-1][0] == event.pitches:
            units[-1][1] += event.duration_ticks
            units[-1][2] = event.tied
        else:
            units.append([event.pitches, event.duration_ticks, event.tied])
    beats = {t: Fraction(t, TICKS_PER_BEAT) for t in {t for _, t, _ in units}}
    return CanonicalSequence(
        pitch_tokens=tuple(pitches for pitches, _, _ in units if pitches),
        durations=tuple(beats[ticks] for _, ticks, _ in units),
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
    snapped = {d: quantize_duration(d, grid) for d in set(durations)}
    return tuple(snapped[d] for d in durations)


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
