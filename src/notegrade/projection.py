"""Projection of parsed documents onto canonical, format-free sequences.

Two streams come out of a document: pitch tokens (each a strictly
ascending chord frame, rests omitted) and durations for every event,
rests included. Tied events merge first, so articulation of one long
note as tied pieces scores the same as the single note. Durations are
integers, scored in whole grid steps and printed as ``Fraction`` beats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError
from .metrics import require_exact
from .score import TICKS_PER_BEAT, GroundTruth, ScoreDoc

DEFAULT_GRID = Fraction(1, 4)
_TICKS, _PITCHES = itemgetter(0), itemgetter(1)


class CanonicalSequence(NamedTuple):
    """Pitch tokens, and durations in ``1/units_per_beat``-beat units."""

    pitch_tokens: tuple[tuple[int, ...], ...]
    duration_units: tuple[int, ...]
    units_per_beat: int = TICKS_PER_BEAT

    @property
    def durations(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(units, self.units_per_beat)
                     for units in self.duration_units)

    def steps(self, grid: Fraction) -> tuple[int, ...]:
        """Each duration in whole grid steps, as ``quantize_duration``."""
        step = {units: grid_steps(units, self.units_per_beat, grid)
                for units in set(self.duration_units)}
        return tuple(map(step.__getitem__, self.duration_units))


def project(doc: ScoreDoc) -> CanonicalSequence:
    """Flatten a document into canonical pitch and duration streams.

    A sound joins the unit before it when the sound before it is tied
    and has the same pitches; the unit lasts as long as its sounds.
    """
    sounds, tied = [], []  # tied: indices into sounds, ascending
    for measure_sounds, measure_tied in doc.measures:
        if measure_tied:
            tied += [len(sounds) + i for i in measure_tied]
        sounds += measure_sounds
    ticks, pitches = list(map(_TICKS, sounds)), list(map(_PITCHES, sounds))
    joined = [i + 1 for i in tied
              if i + 1 < len(sounds) and pitches[i + 1] == pitches[i]]
    if joined:
        keep = [True] * len(ticks)
        for j in joined:
            keep[j] = False
        head = 0
        for j in joined:  # ascending, so each unit's head is seen first
            if keep[j - 1]:
                head = j - 1
            ticks[head] += ticks[j]
        pitches = compress(pitches, keep)
        ticks = compress(ticks, keep)
    return CanonicalSequence(tuple(filter(None, pitches)), tuple(ticks))


def project_ground_truth(gt: GroundTruth) -> CanonicalSequence:
    """Durations in units of their least common denominator."""
    durations = [e.duration_beats for e in gt.events]
    per_beat = math.lcm(*(d.denominator for d in durations))
    return CanonicalSequence(
        tuple(e.midi for e in gt.events if e.midi),
        tuple(d.numerator * per_beat // d.denominator for d in durations),
        per_beat)


def check_grid(grid: Fraction) -> None:
    """A ConfigError unless ``grid`` is a positive int or Fraction."""
    require_exact("grid", grid)
    if grid <= 0:
        raise ConfigError(f"grid must be positive, got {grid}")


def grid_steps(n: int, d: int, grid: Fraction) -> int:
    """The whole steps of ``grid`` nearest ``n/d`` beats, at least one;
    exact midpoints round up. The caller checks ``grid``."""
    g_n, g_d = grid.numerator, grid.denominator
    # floor(n/d / (g_n/g_d) + 1/2), in integers.
    return max((2 * n * g_d + d * g_n) // (2 * d * g_n), 1)


def quantize_duration(duration: Fraction, grid: Fraction) -> Fraction:
    """Snap a duration to the nearest grid multiple, at least one step.

    Exact midpoints round up: 3/8 on a 1/4 grid becomes 1/2.
    """
    check_grid(grid)
    return grid_steps(duration.numerator, duration.denominator, grid) * grid


def quantize_durations(durations: tuple[Fraction, ...],
                       grid: Fraction = DEFAULT_GRID) -> tuple[Fraction, ...]:
    """Snap every duration to the grid, as ``quantize_duration``."""
    snapped = {d: quantize_duration(d, grid) for d in set(durations)}
    return tuple(map(snapped.__getitem__, durations))


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
